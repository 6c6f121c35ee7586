"""The workload process started by run.py: imports lefpen, runs one
workload's job stream from a single client, checks every output, and
prints its raw results as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--record-digests]

Untraced: after a warm-up, the first pass runs as many whole rounds of
jobs as fill 1/PASSES of ``--seconds`` at the workload's nominal round
time; further passes run the same jobs again in the same order until
``--seconds`` is used up, so a job runs at least once.  Every
job execution sits between two speed probes (speed.py) and its wall time
is scaled to the reference speed: other tenants of a shared machine slow
it down in bursts of seconds and phases of minutes, which the probes see
too.  A job's time is the median of its scaled times over the passes.
Traced: the first round runs once untraced and once with spans recorded,
so the overhead ratio compares the same jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def load_digests(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), [])


def reset_peak_rss():
    """Restart the kernel's resident-set high-water mark of this process."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Record:
    """Everything kept about one job across its passes."""

    __slots__ = ("job", "index", "runs", "scaled", "wall", "work", "digest", "peak_mb", "failed")

    def __init__(self, job, index):
        self.job = job
        self.index = index
        self.runs = 0
        self.scaled = []  # per pass, scaled to the reference speed
        self.wall = []    # per pass, as measured
        self.work = 0
        self.digest = None
        self.peak_mb = 0.0
        self.failed = False


class Client:
    """Runs jobs one after another, checks each output, keeps the outcome."""

    def __init__(self, workload, expected_digests):
        self.workload = workload
        self.expected = expected_digests
        self.records = []
        self.attempted = 0
        self.failed = 0
        self.compared = 0
        self.last_probe = None

    def time_job(self, job):
        """(output, seconds, peak MB) of one call, or (None, None, None) if it raised."""
        reset_peak_rss()
        start = time.perf_counter()
        try:
            out = self.workload.run(job)
        except Exception:
            traceback.print_exc()
            return None, None, None
        return out, time.perf_counter() - start, peak_rss_mb()

    def probed(self, fn, *args):
        """``fn(*args)``, which returns (output, seconds, peak MB), between
        two speed probes; the probe after one job is the probe before the
        next.  Returns (output, scaled seconds, peak MB, wall seconds)."""
        kind = self.workload.PROBE
        before = self.last_probe if self.last_probe is not None else speed.probe(kind)
        out, elapsed, peak = fn(*args)
        self.last_probe = speed.probe(kind)
        if out is None:
            return None, None, None, None
        return out, speed.scaled(elapsed, before, self.last_probe, kind), peak, elapsed

    def settle(self, rec, result):
        """Check one execution of a job and fold it into the job's record."""
        out, elapsed, peak, wall = result
        first = rec.runs == 0
        rec.runs += 1
        self.attempted += 1
        try:
            if out is None:
                raise RuntimeError("the job raised")
            work, digest = self.workload.check(rec.job, out, first)
            if digest is not None and not first and digest != rec.digest:
                raise AssertionError("output differs from the job's earlier pass")
            if digest is not None and first and rec.index < len(self.expected):
                self.compared += 1
                if digest != self.expected[rec.index]:
                    raise AssertionError("output digest differs from the recorded one")
        except Exception as e:
            sys.stderr.write("job %r failed: %s\n" % (rec.job["kind"], e))
            self.failed += 1
            rec.failed = True
            return
        rec.digest = digest
        rec.work = work
        rec.scaled.append(elapsed)
        rec.wall.append(wall)
        rec.peak_mb = max(rec.peak_mb, peak)

    def run(self, rec):
        self.settle(rec, self.probed(self.time_job, rec.job))

    def add(self, jobs):
        recs = [Record(job, len(self.records) + i) for i, job in enumerate(jobs)]
        self.records.extend(recs)
        return recs

    def add_round(self, jobs):
        for rec in self.add(jobs):
            self.run(rec)

    def summary(self):
        ok = [r for r in self.records if not r.failed]
        return {
            "times": [statistics.median(r.scaled) for r in ok],
            "wall_times": [statistics.median(r.wall) for r in ok],
            "work": sum(r.work for r in ok),
            "peaks_mb": [r.peak_mb for r in ok],
            "attempted": self.attempted,
            "failed": self.failed,
            "compared": self.compared,
        }


def timed_passes(client, stream, seconds, workload):
    """Run the rounds that fill 1/PASSES of ``seconds`` at the nominal
    round time, then time the same jobs again, in the same order, while
    the clock allows: a job runs again only if, at the pace of its last
    run, it ends within ``seconds``.

    The job set depends on the seed and ``seconds`` only, never on how
    fast this run happens to go, so every run of a seed times the same
    jobs; a slow run times them fewer times instead of running long.
    """
    end = time.perf_counter() + seconds
    rounds = max(1, round(seconds / (workload.PASSES * workload.NOMINAL_ROUND_S)))
    for _ in range(rounds):
        client.add_round(next(stream))
    while True:
        ran = False
        for rec in client.records:
            if rec.failed:  # counted already; its output is not timed again
                continue
            if time.perf_counter() + rec.wall[-1] > end:
                return
            client.run(rec)
            ran = True
        if not ran:
            return


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.workdir)
    expected = [] if args.record_digests else load_digests(args.workload, args.seed)

    # untimed and uncounted; a broken program shows in the timed jobs
    Client(workload, []).add_round(workloads.warmup_jobs(workload, args.seed))

    stream = workloads.job_stream(workload, args.seed)
    client = Client(workload, expected)
    result = {"work_unit": workload.work_unit}
    if not args.trace:
        timed_passes(client, stream, args.seconds, workload)
        result["untraced"] = client.summary()
        result["digests"] = [r.digest for r in client.records]
    else:
        import layers
        from tracing import Tracer

        client.add_round(next(stream))
        tracer = Tracer()
        traced = Client(workload, expected)
        recs = traced.add([r.job for r in client.records])
        tracer.install(layers.SPANS)
        try:
            outs = [traced.probed(tracer.run_job, i, traced.time_job, rec.job) for i, rec in enumerate(recs)]
        finally:
            tracer.uninstall()
        for rec, out in zip(recs, outs):
            traced.settle(rec, out)
        metrics, identity_err = layers.per_layer(tracer)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, "spans-%s.npz" % args.workload))
        result.update(
            untraced=client.summary(),
            traced=traced.summary(),
            per_layer=metrics,
            identity_err=identity_err,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
