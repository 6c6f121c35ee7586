"""Command-line surface.

Two families of subcommands:

    lefpen pencil {validate, hurwitz, matching, gamma-check}
    lefpen verify {cutoff, deform, localtrans, radial}

Each ``cmd_*`` returns ``(report, ok)`` and raises ``OSError`` or
``ValueError`` on bad input (an unreadable file, a malformed or too deeply
nested document, a failed constructor check, a bad flag).  ``main`` alone
turns those into exit 2 with one ``error:`` line on stderr, and alone
writes the report: JSON on stdout (sorted keys, so identical inputs give
byte-identical output), or to the file --out names.  Exit codes: 0
success / verified, 1 a check ran and failed, 2 usage or input error.
The verify handlers import numpy and the numerical layer where they run,
so the pencil subcommands start without numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .words import braid_from_str, braid_to_str, word_to_str
from .fiber import cycle_to_json
from .pencil import (
    _labelled_arcs,
    automorphism_from_json,
    classify_labels,
    hurwitz_apply,
    in_gamma_detail,
    pencil_from_json,
    pencil_to_json,
)

OK, CHECK_FAILED, USAGE = 0, 1, 2


def _emit(report, out_path, code):
    """Write the report to stdout, or to out_path if given; return the exit
    code, or USAGE if out_path cannot be written."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as e:
        return _fail("cannot write --out %s: %s" % (out_path, e.strerror))
    return code


def _fail(message):
    sys.stderr.write("error: %s\n" % message)
    return USAGE


def _read_json(path):
    """The JSON document in a file; one nested past the decoder's recursion limit is bad input."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply to decode" % path) from None


def cmd_pencil_validate(args):
    P = pencil_from_json(_read_json(args.file))
    report = {"ok": True, "r": P.r, "fiber": pencil_to_json(P)["fiber"]}
    if not args.closed:
        return report, True
    report["closed"] = P.is_closed()
    return report, report["closed"]


def cmd_pencil_hurwitz(args):
    P = pencil_from_json(_read_json(args.file))
    Q = hurwitz_apply(braid_from_str(P.r, args.braid), P)
    report = pencil_to_json(Q)
    report["total_monodromy_preserved"] = P.total_monodromy() == Q.total_monodromy()
    return report, report["total_monodromy_preserved"]


def cmd_pencil_matching(args):
    P = pencil_from_json(_read_json(args.file))
    if args.max_len < 0:
        raise ValueError("--max-len must be >= 0")
    rows = []
    for a, eta1, eta2, s1, s2 in _labelled_arcs(P, args.max_len):
        cls = classify_labels(s1, s2, trust_algebraic=args.trust_algebraic)
        rows.append(
            {
                "base": a.base,
                "carrier": braid_to_str(a.carrier),
                "class": str(cls),
                "supporting_pair": [word_to_str(eta1), word_to_str(eta2)],
                "labels": [cycle_to_json(s1), cycle_to_json(s2)],
            }
        )
    rows.sort(key=lambda row: (row["base"], row["carrier"]))
    return {"r": P.r, "max_len": args.max_len, "arcs": rows}, True


def cmd_pencil_gamma_check(args):
    P = pencil_from_json(_read_json(args.file))
    A = automorphism_from_json(P.fiber, P.r, _read_json(args.auto))
    ok, detail = in_gamma_detail(A, P)
    report = {"in_gamma": ok}
    if not ok:
        report["violation"] = detail
    return report, ok


def cmd_verify_cutoff(args):
    import numpy as np
    from .transversal import build_cutoff, min_admissible_k

    profile = build_cutoff(args.k, args.D, args.c0)
    slope = profile.slope_check()
    # one ulp inside each band: at t_flat and t_one themselves jets returns the constants
    endpoint_flat = float(profile.value(np.nextafter(profile.t_flat, np.inf)))
    endpoint_one = float(profile.value(np.nextafter(profile.t_one, 0.0)))
    hard = (
        slope["ok"]
        and abs(endpoint_flat - profile.top) <= 1e-12 * profile.top
        and abs(endpoint_one - 1.0) <= 1e-12
    )
    report = {
        "k": args.k,
        "D": args.D,
        "c0": args.c0,
        "eps": profile.eps,
        "a": profile.a,
        "min_admissible_k": min_admissible_k(args.D, args.c0),
        "endpoints": {
            "l_at_D": endpoint_flat,
            "k_quarter": profile.top,
            "l_at_outer": endpoint_one,
        },
        "slope": slope,
        "derivative_bounds": profile.derivative_bound_report(),
        "blend": profile.blend,
        "ok": hard,
    }
    return report, hard


def cmd_verify_deform(args):
    from .transversal import DeformedMorse, MorseModel, build_cutoff, deform_fd_check, deform_grid, verify_deform_bounds
    from .transversal.localtrans import BLOCK_ENTRIES

    profile = build_cutoff(args.k, args.D, args.c0)
    if args.n < 1:
        raise ValueError("--n must be a positive dimension")
    if args.n**4 > BLOCK_ENTRIES:  # a desk-scale cap: n <= 16, as 16^4 = BLOCK_ENTRIES
        raise ValueError("--n %d is beyond desk scale: n^4 must be at most %d" % (args.n, BLOCK_ENTRIES))
    model = MorseModel.quadratic(args.n, value=0.5)
    h = DeformedMorse(model, profile)
    report = verify_deform_bounds(h, deform_grid(model, profile))
    fd = deform_fd_check(h)
    hard = report["etaObserved"] > 0.0 and fd["max_rel_err"] < 1e-5
    report.update(k=args.k, D=args.D, c0=args.c0, n=args.n, fd_check=fd, ok=hard)
    return report, hard


def cmd_verify_localtrans(args):
    import numpy as np
    from .transversal.localtrans import (
        SUP_RESOLUTION, VerificationError, ball_grid, find_good_w0, random_instance, reverify, sigma_of,
        solve_w_residual,
    )

    if args.trials < 1:
        raise ValueError("--trials must be positive")
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    successes = 0
    area_ok = 0
    worst_residual = 0.0
    certs = []
    grid = ball_grid(1.1, SUP_RESOLUTION)
    for index in range(args.trials):
        inst = random_instance(rng, kappa=args.kappa, delta=args.delta, pexp=args.pexp)
        residual = solve_w_residual(inst.p, inst.q, grid)
        worst_residual = max(worst_residual, residual)
        try:
            cert = find_good_w0(inst)
            if not reverify(inst, cert):
                raise VerificationError("finer-grid re-verification failed")
        except VerificationError as e:
            certs.append({"instance": index, "ok": False, "reason": str(e)})
            continue
        except ValueError as e:  # q has sup 1 - kappa on the sampled grid only
            raise ValueError(
                "instance %d: %s, where q was scaled to a sampled sup of 1 - kappa = %r (kappa = %r) on %d points"
                % (index, e, 1.0 - args.kappa, args.kappa, grid.size)
            ) from None
        successes += 1
        area_ok += int(cert.area_claim_ok)
        certs.append(
            {
                "instance": index,
                "ok": True,
                "w0": [cert.w0.real, cert.w0.imag],
                "margin": cert.margin,
                "clearance_area": cert.clearance_area,
                "area_claim_ok": cert.area_claim_ok,
            }
        )
    rate = successes / args.trials
    hard = worst_residual < 1e-10 and rate >= 0.95
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "kappa": args.kappa,
        "delta": args.delta,
        "pexp": args.pexp,
        "sigma": sigma_of(args.delta, args.pexp),
        "successes": successes,
        "success_rate": rate,
        "max_graph_residual": worst_residual,
        "area_claim_successes": area_ok,
        "area_claim_note": "warning-level: clearance area vs 0.9 pi delta^2",
        "certificates": certs,
        "ok": hard,
    }
    return report, hard


def cmd_verify_radial(args):
    import numpy as np
    from .transversal import power_profile, radial_map_check

    if args.samples < 1:
        raise ValueError("--samples must be positive")
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    worst = {"jacobian_rel_err": 0.0, "det_rel_err": 0.0, "eig_rel_err": 0.0}
    bounds_ok = True
    for _ in range(args.samples):
        alpha = rng.uniform(0.05, 0.7)
        c = rng.uniform(0.5, 2.0)
        n = int(rng.integers(1, 4))
        x = rng.normal(size=n)
        x *= rng.uniform(0.5, 5.0) / np.linalg.norm(x)
        l, dl = power_profile(c, alpha)
        rep = radial_map_check(l, dl, x)
        for key in worst:
            worst[key] = max(worst[key], rep[key])
        bounds_ok = bounds_ok and rep["det_lower_bound_ok"] and rep["min_eig_bound_ok"] and rep["operator_norm_ok"]
    hard = bounds_ok and all(v < 1e-6 for v in worst.values())
    report = {
        "seed": args.seed,
        "samples": args.samples,
        "worst_errors": worst,
        "bounds_ok": bounds_ok,
        "ok": hard,
    }
    return report, hard


@functools.lru_cache(maxsize=None)
def build_parser():
    """The one parser of the process, shared by every call, so no caller may
    change it: building it costs some twenty times what a parse does."""
    parser = argparse.ArgumentParser(
        prog="lefpen",
        description="Pencil monodromy calculus and numerical verification suites",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    pencil = sub.add_parser("pencil", help="factorization operations on pencil files")
    psub = pencil.add_subparsers(dest="command", required=True)

    v = psub.add_parser("validate", help="check a pencil file's invariants")
    v.add_argument("file")
    v.add_argument("--closed", action="store_true", help="also require total monodromy = identity")
    v.set_defaults(func=cmd_pencil_validate)

    hw = psub.add_parser("hurwitz", help="apply a Hurwitz move")
    hw.add_argument("file")
    hw.add_argument("--braid", required=True, help='braid word, e.g. "s1 S2"')
    hw.set_defaults(func=cmd_pencil_hurwitz)

    mt = psub.add_parser("matching", help="enumerate and classify arcs")
    mt.add_argument("file")
    mt.add_argument("--max-len", type=int, required=True)
    mt.add_argument("--trust-algebraic", action="store_true")
    mt.set_defaults(func=cmd_pencil_matching)

    gc = psub.add_parser("gamma-check", help="test membership in the stabilizer")
    gc.add_argument("file")
    gc.add_argument("--auto", required=True, help="automorphism file")
    gc.set_defaults(func=cmd_pencil_gamma_check)

    verify = sub.add_parser("verify", help="numerical verification suites")
    vsub = verify.add_subparsers(dest="command", required=True)

    co = vsub.add_parser("cutoff", help="cutoff profile invariants")
    co.set_defaults(func=cmd_verify_cutoff)
    de = vsub.add_parser("deform", help="deformed Morse function bounds")
    de.set_defaults(func=cmd_verify_deform)
    for profile in (co, de):
        profile.add_argument("--k", type=float, required=True)
        profile.add_argument("--D", type=float, required=True)
        profile.add_argument("--c0", type=float, default=1.0)
    de.add_argument("--n", type=int, default=2)

    lt = vsub.add_parser("localtrans", help="symmetric local perturbation trials")
    lt.add_argument("--seed", type=int, required=True)
    lt.add_argument("--trials", type=int, required=True)
    lt.add_argument("--kappa", type=float, default=0.2)
    lt.add_argument("--delta", type=float, default=0.1)
    lt.add_argument("--pexp", type=int, default=2)
    lt.set_defaults(func=cmd_verify_localtrans)

    ra = vsub.add_parser("radial", help="radial map linearization checks")
    ra.add_argument("--samples", type=int, required=True)
    ra.add_argument("--seed", type=int, default=0)
    ra.set_defaults(func=cmd_verify_radial)

    for command in (*psub.choices.values(), *vsub.choices.values()):
        command.add_argument("--out")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:  # the handler by name at call time, so a rebound cmd_* is the one that runs
        report, ok = globals()[args.func.__name__](args)
    except (OSError, ValueError) as e:  # bad input: a file, a document, a constructor or a flag
        return _fail(str(e))
    # outside the try, so a report that JSON cannot encode stays a program fault
    return _emit(report, args.out, OK if ok else CHECK_FAILED)


if __name__ == "__main__":
    sys.exit(main())
