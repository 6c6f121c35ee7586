"""lefpen benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload matching --seed 1 --seconds 25 --trace 0

Prints one line per metric, then, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("matching", "orbits", "localtrans", "deform")

# fresh processes that each time `import lefpen.cli` between two speed
# probes (speed.py), half before and half after the workload process;
# setup_s is the median of their scaled times
SETUP_SAMPLES = 6
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; b = speed.probe(); "
    "t = time.perf_counter(); import lefpen.cli; t = time.perf_counter() - t; "
    "print(speed.scaled(t, b, speed.probe()), t)"
)
WORKER_TIMEOUT = 160.0

# one client thread: pin BLAS/OpenMP pools, fix hashing
ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    VECLIB_MAXIMUM_THREADS="1",
    NUMEXPR_NUM_THREADS="1",
    PYTHONHASHSEED="0",
)


def fail(message):
    sys.stderr.write("error: %s\n" % message)
    sys.exit(2)


def setup_samples(n):
    """(scaled, wall) import times of n fresh processes."""
    samples = []
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
            env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            fail("importing lefpen.cli failed:\n" + done.stderr)
        samples.append(tuple(map(float, done.stdout.split()[-2:])))
    return samples


def run_worker(args):
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=work_root)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    if args.record_digests:
        cmd.append("--record-digests")
    try:
        done = subprocess.run(cmd, env=ENV, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("workload process exceeded %.0f s" % WORKER_TIMEOUT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run is still using it
            pass
    if done.returncode != 0:
        fail("workload process exited with code %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def rate(summary):
    """Work per second of (scaled) job time."""
    return summary["work"] / sum(summary["times"]) if summary["times"] else 0.0


def record_digests(workload, seed, digests):
    path = os.path.join(HERE, "digests.json")
    with open(path) as fh:
        book = json.load(fh)
    book.setdefault(workload, {})[str(seed)] = digests
    with open(path, "w") as fh:
        json.dump(book, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description="lefpen benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store the exact-layer output digests of this seed in digests.json",
    )
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "lefpen", "cli.py")):
        fail("no lefpen sources under %s" % SRC)

    half = 0 if args.trace else SETUP_SAMPLES // 2
    setup = setup_samples(half)
    res = run_worker(args)
    setup += setup_samples(half)
    base = res["untraced"]
    lines = ["workload %s, seed %d; work unit: %s" % (args.workload, args.seed, res["work_unit"])]

    if args.trace:
        traced = res["traced"]
        metrics = dict(res["per_layer"])
        metrics["trace.overhead_ratio"] = {"value": rate(traced) / rate(base), "unit": "ratio"}
        attempted = base["attempted"] + traced["attempted"]
        failed = base["failed"] + traced["failed"]
        correct = failed == 0 and res["identity_err"] < 1e-6
        lines.append(
            "traced %d jobs; largest gap between a job's time and its spans' self times: %.3g s"
            % (traced["attempted"], res["identity_err"])
        )
        compared = base["compared"] + traced["compared"]
    else:
        if args.record_digests:
            record_digests(args.workload, args.seed, res["digests"])
        if not base["times"]:
            fail("no job completed")
        times = base["times"]
        metrics = {
            "setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s"},
            "job_s_p50": {"value": statistics.median(times), "unit": "s"},
            "work_per_s": {"value": rate(base), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(base["peaks_mb"]), "unit": "MB"},
        }
        attempted, failed, compared = base["attempted"], base["failed"], base["compared"]
        correct = failed == 0
        lines.append(
            "%d jobs run %d times in all, each timed by the median of its runs: %.2f s of job time, "
            "%d work units; setup_s from %d fresh imports"
            % (len(times), attempted, sum(times), base["work"], SETUP_SAMPLES)
        )
        lines.append(
            "times are scaled to the reference speed; unscaled wall times: job_s_p50 %.4g s, "
            "setup_s %.4g s, work_per_s %.4g 1/s"
            % (statistics.median(base["wall_times"]), statistics.median(w for _, w in setup),
               base["work"] / sum(base["wall_times"]))
        )
    lines.append(
        "fail_ratio %.4g (%d of %d jobs failed); %d outputs compared with recorded digests"
        % (failed / attempted if attempted else 0.0, failed, attempted, compared)
    )
    for name, m in metrics.items():
        lines.append("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
