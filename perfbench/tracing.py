"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``Tracer.install`` rebinds a
named function in every ``lefpen.*`` namespace that holds it (or replaces a
method on its class), so calls into that layer open and close a span.
Each span keeps its name, start, end, parent span and job id in flat
arrays; nothing is aggregated until the run ends, when ``self_times``
turns the span tree into per-span self time (duration minus the time
covered by its direct children).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

ROOT = "job"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []             # span name table; index = name id
        self._ids = {}
        self.name = array("H")      # per span: name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")    # index of the enclosing span, -1 for a root
        self.job = array("l")
        self.counters = {}
        self._stack = [-1]
        self._job = [-1]
        self._undo = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, count=None):
        """A stand-in for fn that records one span per call.

        ``count(counters, args, result)`` runs after a call that returned,
        so counters are taken at the same boundary as the span.
        """
        nid = self.name_id(name)
        names, starts, ends, parents, jobs = self.name, self.start, self.end, self.parent, self.job
        stack, job, clock, counters = self._stack, self._job, self.clock, self.counters

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(job[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job_id, fn, *args):
        """Call fn inside a root span of the given job id."""
        self._job[0] = job_id
        try:
            return self.wrap(fn, ROOT)(*args)
        finally:
            self._job[0] = -1

    def install(self, specs):
        """Trace each (span name, module, qualified name, counter) target.

        A plain function is rebound in every loaded ``lefpen`` module whose
        namespace holds it; a ``Class.method`` is replaced on the class.
        """
        for span, module, qualname, count in specs:
            owner = importlib.import_module(module)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._rebind(cls, attr, orig, self.wrap(orig, span, count))
                continue
            orig = getattr(owner, qualname)
            traced = self.wrap(orig, span, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "lefpen" or mod_name.startswith("lefpen.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, attr, orig, traced)

    def _rebind(self, holder, attr, orig, new):
        setattr(holder, attr, new)
        self._undo.append((holder, attr, orig))

    def uninstall(self):
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)

    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent):
    """Self time of every span: its duration minus its direct children's.

    Spans nest (a child lies inside its parent), so the children of one
    span cover disjoint parts of it and their durations add up.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered
