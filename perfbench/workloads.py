"""The four benchmark workloads: seeded inputs, the job that runs them, and
the check of each job's output.

Inputs come from ``random.Random`` only, so they do not depend on the
program under test.  A workload hands out its jobs in rounds; every round
has the same mix of job kinds (shuffled), so a run made of whole rounds
always weighs the kinds the same way.  Each job is what a user would run:
``lefpen.cli.main(argv)`` on generated files, or, where the CLI has no
subcommand, the public library call on a generated pencil file.

A check raises ``CheckFailed``.  Exact-layer outputs are compared by
sha256 with the digests recorded for the default seeds
(``digests.json``); on every seed they must also satisfy invariants
that hold for any input.  Numerical reports are checked by their own
verdicts, never by digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from math import gcd

import lefpen.cli
import lefpen.pencil
from lefpen.pencil import arc_key, pencil_to_json
from lefpen.words import Arc, Braid, braid_from_str, braid_to_str

ARC_CLASSES = ("Matching", "DisjointPair", "OnceIntersecting", "Other")

# Distinct supporting pairs among arcs with carrier length <= L on r
# strands.  The dedup key depends on the arc alone, not on the pencil, so
# a matching report always has this many rows.
MATCHING_ROWS = {(3, 2): 19, (4, 2): 38, (4, 3): 110, (4, 4): 320, (5, 3): 188, (6, 3): 266}

ABAB = {"fiber": {"model": "torus"}, "cycles": [[1, 0], [0, 1], [1, 0], [0, 1]]}


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    """lefpen.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = lefpen.cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, buf.getvalue()


def cli_report(code, text):
    require(code == 0, "exit code %r" % (code,))
    return json.loads(text)


# --- input generators ------------------------------------------------------

def primitive(rng, dim, bound):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(dim)]
        if any(v) and gcd(*(abs(x) for x in v)) == 1:
            return v


def pairing(u, v):
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(0, len(u), 2))


def generic_sp_cycles(rng, genus, r, bound):
    """Cycles that pairwise meet algebraically, so Hurwitz orbits are large
    and their size varies little from pencil to pencil."""
    while True:
        cycles = [primitive(rng, 2 * genus, bound) for _ in range(r)]
        if all(pairing(u, v) for i, u in enumerate(cycles) for v in cycles[i + 1:]):
            return cycles


def round_curves(rng, punctures, r):
    """Disc cycles as round range curves "x_i .. x_j", which stay twistable."""
    out = []
    for _ in range(r):
        i = rng.randint(1, punctures)
        j = rng.randint(i, punctures)
        out.append(" ".join("x%d" % t for t in range(i, j + 1)))
    return out


def braid_word(rng, strands, length):
    """A freely reduced random braid word of the given length."""
    letters = []
    while len(letters) < length:
        s = rng.choice((1, -1)) * rng.randint(1, strands - 1)
        if not letters or letters[-1] != -s:
            letters.append(s)
    return " ".join(("s%d" % s) if s > 0 else ("S%d" % -s) for s in letters)


class Workload:
    """Base: subclasses define kinds(), make(kind, rng), run(job) and
    check(job, out, first); ``first`` is false on repeat passes, whose
    output must equal the first pass's anyway."""

    work_unit = ""
    # Timed passes over the same jobs.  Each subclass also sets
    # NOMINAL_ROUND_S, the time one round took on the reference machine
    # (README.md); with --seconds the two fix how many rounds a run has.
    PASSES = 3
    # the kind of speed probe (speed.py) whose work the jobs resemble
    PROBE = "python"

    def __init__(self, workdir):
        self.workdir = workdir
        self._files = 0

    def write(self, doc):
        self._files += 1
        path = os.path.join(self.workdir, "input-%d.json" % self._files)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def round(self, rng):
        kinds = list(self.kinds())
        rng.shuffle(kinds)
        return [self.make(kind, rng) for kind in kinds]


class Matching(Workload):
    """``lefpen pencil matching`` on seeded pencils."""

    work_unit = "arc rows reported"
    PASSES = 5
    NOMINAL_ROUND_S = 4.0
    # torus at the size of acceptance criterion 3, sp genus 2-3 with
    # --trust-algebraic, and a small share of disc pencils.  Five jobs are
    # cheaper than a torus job and three dearer, so the median job is
    # among the torus jobs whatever the seed.
    TORUS = [("torus", 4, 4)] * 6
    SP = [("sp", g, r, 3) for g in (2, 3) for r in (4, 5, 6)]
    DISC = [("disc", 3, 3, 2), ("disc", 4, 4, 2)]

    def kinds(self):
        return self.TORUS + self.SP + self.DISC

    def warmup_kinds(self):
        return [("torus", 4, 2), ("sp", 2, 4, 2), ("disc", 3, 3, 1)]

    def make(self, kind, rng):
        if kind[0] == "torus":
            _, r, length = kind
            doc = dict(fiber={"model": "torus"}, cycles=[primitive(rng, 2, 2) for _ in range(r)])
            extra = []
        elif kind[0] == "sp":
            _, genus, r, length = kind
            doc = dict(fiber={"model": "sp", "genus": genus}, cycles=[primitive(rng, 2 * genus, 1) for _ in range(r)])
            extra = ["--trust-algebraic"]
        else:
            _, punctures, r, length = kind
            doc = dict(fiber={"model": "disc", "punctures": punctures}, cycles=round_curves(rng, punctures, r))
            extra = []
        argv = ["pencil", "matching", self.write(doc), "--max-len", str(length)] + extra
        return {"kind": kind, "r": len(doc["cycles"]), "max_len": length, "argv": argv}

    def run(self, job):
        return run_cli(job["argv"])

    def check(self, job, out, first):
        code, text = out
        doc = cli_report(code, text)
        require(doc["r"] == job["r"] and doc["max_len"] == job["max_len"], "report echoes wrong r / max_len")
        rows = doc["arcs"]
        keys = [(row["base"], row["carrier"]) for row in rows]
        require(keys == sorted(keys), "rows are not sorted by (base, carrier)")
        require(len(set(keys)) == len(keys), "duplicate rows")
        expected = MATCHING_ROWS.get((job["r"], job["max_len"]))
        require(expected is None or len(rows) == expected, "%d rows, expected %s" % (len(rows), expected))
        for row in rows:
            require(row["class"].split("(")[0] in ARC_CLASSES, "unknown class %r" % row["class"])
            require(len(row["supporting_pair"]) == 2 and len(row["labels"]) == 2, "malformed row")
        return len(rows), sha256(text)


class Orbits(Workload):
    """Library jobs: Hurwitz orbits of fresh pencils, and stabilizer orbits
    of seeded arcs on the ABAB torus pencil."""

    work_unit = "orbit elements returned"
    PASSES = 4
    NOMINAL_ROUND_S = 2.9
    SP_GENUS, SP_R, DEPTH = 3, 6, 3
    KERNEL_DEPTH = 6

    def kinds(self):
        # disc and stabilizer jobs take a few ms and sp jobs ~0.35 s; with
        # twice as many sp jobs, the median job is inside the sp block
        return [("sp",)] * 8 + [("disc", 3), ("disc", 4)] + [("stabilizer",)] * 2

    def warmup_kinds(self):
        return [("sp",), ("disc", 3), ("stabilizer",)]

    def make(self, kind, rng):
        if kind[0] == "sp":
            cycles = generic_sp_cycles(rng, self.SP_GENUS, self.SP_R, 2)
            doc = dict(fiber={"model": "sp", "genus": self.SP_GENUS}, cycles=cycles)
            return {"kind": kind, "file": self.write(doc), "depth": self.DEPTH}
        if kind[0] == "disc":
            doc = dict(fiber={"model": "disc", "punctures": kind[1]}, cycles=round_curves(rng, kind[1], 4))
            return {"kind": kind, "file": self.write(doc), "depth": self.DEPTH}
        # every arc with carrier length <= 4 on ABAB is Matching or
        # OnceIntersecting, so automorphism_from_arc always applies
        return {
            "kind": kind,
            "file": self.write(ABAB),
            "base": rng.randint(1, 3),
            "carrier": braid_word(rng, 4, 4),
            "depth": self.KERNEL_DEPTH,
        }

    def run(self, job):
        # calls go through the module, so the traced run sees them
        pencil = lefpen.pencil
        with open(job["file"]) as fh:
            P = pencil.pencil_from_json(json.load(fh))
        if job["kind"][0] != "stabilizer":
            return P, pencil.hurwitz_orbit(P, job["depth"])
        a = Arc(job["base"], braid_from_str(P.r, job["carrier"]))
        A = pencil.automorphism_from_arc(a, P)
        cube = pencil.automorphism_from_arc(Arc(1, Braid(P.r)), P)
        return P, (a, A, pencil.kernel_orbit(a, P, [cube], job["depth"]))

    def check(self, job, out, first):
        P, result = out
        if job["kind"][0] != "stabilizer":
            orbit = result
            if first:
                require(P in orbit, "orbit misses its starting pencil")
                total = total_monodromy(P)
                for Q in orbit:
                    require(Q.fiber == P.fiber and Q.r == P.r, "orbit element changed fiber or size")
                    require(total_monodromy(Q) == total, "total monodromy changed along the orbit")
            lines = sorted(json.dumps(pencil_to_json(Q), sort_keys=True) for Q in orbit)
            return len(orbit), sha256("\n".join(lines))
        a, A, orbit = result
        require(a in orbit, "kernel orbit misses its starting arc")
        require(all(x.base == a.base for x in orbit), "pushforward changed the arc base")
        require(A.g == A.g.identity(P.fiber), "arc automorphism has a nontrivial fiber part")
        lines = sorted(repr(arc_key(x)) for x in orbit)
        return len(orbit), sha256(braid_to_str(A.b) + "\n" + "\n".join(lines))


def total_monodromy(P):
    """A comparable form of the total monodromy T_c1 ... T_cr.

    Homology fibers: the images of the basis vectors, computed here from
    the transvections v -> v + <v, c> c, independently of lefpen.
    Disc fibers: lefpen's own braid, compared through the faithful action.
    """
    if P.fiber.kind == "disc":
        return P.total_monodromy()
    cycles = [c.vector for c in P.cycles]
    images = []
    for j in range(len(cycles[0])):
        v = [int(i == j) for i in range(len(cycles[0]))]
        for c in reversed(cycles):
            k = pairing(v, c)
            v = [x + k * y for x, y in zip(v, c)]
        images.append(tuple(v))
    return images


class LocalTrans(Workload):
    """``lefpen verify localtrans`` at the instance distribution of
    acceptance criterion 8, a few trials per job.

    Instance costs are heavy-tailed (0.1 s to 2 s each), so runs of freshly
    drawn instances differ by 25% from seed to seed.  The per-job seeds
    therefore come from a fixed pool drawn once from POOL_KEY, and one run
    works through the whole pool; the workload seed sets the order.
    """

    work_unit = "instances certified and re-verified"
    PASSES = 6
    NOMINAL_ROUND_S = 1.7
    JOBS, TRIALS, POOL = 4, 2, 8
    POOL_KEY = "localtrans-pool"
    PARAMS = ["--kappa", "0.2", "--delta", "0.1", "--pexp", "2"]

    def __init__(self, workdir):
        super().__init__(workdir)
        pool_rng = random.Random(self.POOL_KEY)
        self.pool = [pool_rng.randrange(2**31) for _ in range(self.POOL)]
        self._queue = []

    def kinds(self):
        return [("trials", self.TRIALS)] * self.JOBS

    def warmup_kinds(self):
        return [("warmup", 1)]

    def make(self, kind, rng):
        if kind[0] == "warmup":
            seed = rng.randrange(2**31)
        else:
            if not self._queue:
                self._queue = list(self.pool)
                rng.shuffle(self._queue)
            seed = self._queue.pop()
        argv = ["verify", "localtrans", "--seed", str(seed), "--trials", str(kind[1])]
        return {"kind": kind, "trials": kind[1], "argv": argv + self.PARAMS}

    def run(self, job):
        return run_cli(job["argv"])

    def check(self, job, out, first):
        doc = cli_report(*out)
        require(doc["trials"] == job["trials"], "report echoes wrong trial count")
        require(doc["ok"] is True, "report verdict is not ok")
        require(doc["success_rate"] >= 0.95, "success rate %r" % doc["success_rate"])
        return doc["successes"], None


class Deform(Workload):
    """``verify cutoff`` then ``verify deform`` for each admissible (k, D)
    pair of acceptance criterion 6; the seed scales k up by at most 25%,
    which keeps the pair admissible and the grid size unchanged."""

    work_unit = "grid points checked"
    PASSES = 3
    # verify deform evaluates jets point by point on tiny arrays
    PROBE = "numpy"
    NOMINAL_ROUND_S = 7.4
    PAIRS = [(1e3, 1.0), (1e4, 1.0), (1e5, 1.0), (1e4, 2.0), (1e5, 2.0)]

    def kinds(self):
        return [("pair", k, D, 2) for k, D in self.PAIRS]

    def warmup_kinds(self):
        return [("pair", 1e3, 1.0, 1)]

    def make(self, kind, rng):
        _, k, D, n = kind
        k = repr(k * (1.0 + 0.25 * rng.random()))
        args = ["--k", k, "--D", repr(D)]
        return {
            "kind": kind,
            "cutoff": ["verify", "cutoff"] + args,
            "deform": ["verify", "deform"] + args + ["--n", str(n)],
        }

    def run(self, job):
        return run_cli(job["cutoff"]), run_cli(job["deform"])

    def check(self, job, out, first):
        cutoff, deform = (cli_report(*o) for o in out)
        require(cutoff["ok"] is True and cutoff["slope"]["ok"] is True, "cutoff verdict is not ok")
        require(deform["ok"] is True, "deform verdict is not ok")
        require(deform["etaObserved"] > 0.0, "etaObserved %r" % deform["etaObserved"])
        require(deform["fd_check"]["max_rel_err"] < 1e-5, "fd_check %r" % deform["fd_check"])
        return deform["points"], None


WORKLOADS = {
    "matching": Matching,
    "orbits": Orbits,
    "localtrans": LocalTrans,
    "deform": Deform,
}


def job_stream(workload, seed):
    """Rounds of jobs for a seed; the same seed gives the same rounds."""
    rng = random.Random("%s-%d" % (type(workload).__name__, seed))
    while True:
        yield workload.round(rng)


def warmup_jobs(workload, seed):
    rng = random.Random("warmup-%d" % seed)
    return [workload.make(kind, rng) for kind in workload.warmup_kinds()]
