"""Which lefpen functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Layers are named after the modules.  Every metric is reported on every
workload; a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import inspect

import numpy as np
from lefpen.transversal.localtrans import find_good_w0

from tracing import ROOT, self_times

WORDS, FIBER, PENCIL = "lefpen.words", "lefpen.fiber", "lefpen.pencil"
CUTOFF, MORSE, LOCALTRANS = (
    "lefpen.transversal.cutoff",
    "lefpen.transversal.morse",
    "lefpen.transversal.localtrans",
)


def _add(counters, key, n):
    counters[key] = counters.get(key, 0) + n


def _distinct(counters, args, result):
    _add(counters, "pencil.enumerate_arcs.distinct", len(result))


def _letters(counters, args, result):
    _add(counters, "pencil.monodromy_of.letters", len(args[1].letters))


def _points(counters, args, result):
    _add(counters, "cutoff.eval.points", int(np.size(args[1])))


def _grid_points(counters, args, result):
    _add(counters, "morse.grid_points", len(args[1]))


# a certificate found on another grid than the first attempt's was refined
FIRST_GRID = inspect.signature(find_good_w0).parameters["graph_resolution"].default


def _certificate(counters, args, result):
    _add(counters, "localtrans.certificates", 1)
    _add(counters, "localtrans.refined", int(result.grid["graph_resolution"] != FIRST_GRID))


SPANS = [
    ("words.artin_apply", WORDS, "artin_apply", None),
    ("words.supporting_pair", WORDS, "supporting_pair", None),
    ("fiber.dehn_twist", FIBER, "dehn_twist", None),
    ("fiber.act", FIBER, "act", None),
    ("fiber.element_mul", FIBER, "FiberElement.__mul__", None),
    ("pencil.enumerate_arcs", PENCIL, "enumerate_arcs", _distinct),
    ("pencil.arc_key", PENCIL, "arc_key", None),
    ("pencil.classify_arc", PENCIL, "classify_arc", None),
    ("pencil.vanishing_label", PENCIL, "vanishing_label", None),
    ("pencil.monodromy_of", PENCIL, "monodromy_of", _letters),
    ("pencil.hurwitz_apply", PENCIL, "hurwitz_apply", None),
    ("pencil.in_gamma_detail", PENCIL, "in_gamma_detail", None),
    ("pencil.hurwitz_orbit", PENCIL, "hurwitz_orbit", None),
    ("pencil.kernel_orbit", PENCIL, "kernel_orbit", None),
    ("cutoff.eval", CUTOFF, "CutoffProfile.value", _points),
    ("cutoff.eval", CUTOFF, "CutoffProfile.d1", _points),
    ("cutoff.eval", CUTOFF, "CutoffProfile.d2", _points),
    ("cutoff.eval", CUTOFF, "CutoffProfile.d3", _points),
    ("cutoff.build_cutoff", CUTOFF, "build_cutoff", None),
    ("cutoff.slope_check", CUTOFF, "CutoffProfile.slope_check", None),
    ("morse.jets", MORSE, "DeformedMorse.jets", None),
    ("morse.verify_deform_bounds", MORSE, "verify_deform_bounds", _grid_points),
    ("morse.deform_grid", MORSE, "deform_grid", None),
    ("localtrans.random_instance", LOCALTRANS, "random_instance", None),
    ("localtrans.solve_w_residual", LOCALTRANS, "solve_w_residual", None),
    ("localtrans.find_good_w0", LOCALTRANS, "find_good_w0", _certificate),
    ("localtrans.eta_transverse_check", LOCALTRANS, "eta_transverse_check", None),
    ("localtrans.reverify", LOCALTRANS, "reverify", None),
]

# (span, fields): "calls" and "self_s" come from the spans themselves
REPORTED = [
    ("words.artin_apply", ("calls", "self_s")),
    ("words.supporting_pair", ("calls", "self_s")),
    ("fiber.dehn_twist", ("calls", "self_s")),
    ("fiber.act", ("calls", "self_s")),
    ("fiber.element_mul", ("calls", "self_s")),
    ("pencil.enumerate_arcs", ("self_s",)),
    ("pencil.arc_key", ("self_s",)),
    ("pencil.classify_arc", ("calls", "self_s")),
    ("pencil.vanishing_label", ("calls", "self_s")),
    ("pencil.monodromy_of", ("calls", "self_s")),
    ("pencil.hurwitz_apply", ("calls", "self_s")),
    ("pencil.in_gamma_detail", ("calls", "self_s")),
    ("pencil.hurwitz_orbit", ("self_s",)),
    ("pencil.kernel_orbit", ("self_s",)),
    ("cutoff.eval", ("calls", "self_s")),
    ("cutoff.build_cutoff", ("self_s",)),
    ("cutoff.slope_check", ("self_s",)),
    ("morse.jets", ("calls", "self_s")),
    ("morse.verify_deform_bounds", ("self_s",)),
    ("morse.deform_grid", ("self_s",)),
    ("localtrans.random_instance", ("self_s",)),
    ("localtrans.solve_w_residual", ("self_s",)),
    ("localtrans.find_good_w0", ("calls", "self_s")),
    ("localtrans.eta_transverse_check", ("calls", "self_s")),
    ("localtrans.reverify", ("self_s",)),
]

COUNTS = [
    "pencil.enumerate_arcs.distinct",
    "pencil.monodromy_of.letters",
    "cutoff.eval.points",
    "morse.grid_points",
]


def per_layer(tracer):
    """Per-layer metrics of one traced pass, plus the per-job check that
    the self times of a job's spans add up to the job's duration."""
    spans = tracer.arrays()
    names = spans["name"]
    self_s = self_times(spans["start"], spans["end"], spans["parent"])
    n_names = len(tracer.names)
    calls = np.bincount(names, minlength=n_names)
    self_total = np.bincount(names, weights=self_s, minlength=n_names)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def get(array, name):
        return array[ids[name]] if name in ids else 0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for span, fields in REPORTED:
        if "calls" in fields:
            put(span + ".calls", int(get(calls, span)), "count")
        put(span + ".self_s", float(get(self_total, span)), "s")
    counters = tracer.counters
    for name in COUNTS:
        put(name, int(counters.get(name, 0)), "count")

    # arc_key calls made by enumerate_arcs itself
    tried = 0
    if "pencil.arc_key" in ids and "pencil.enumerate_arcs" in ids:
        parents = spans["parent"]
        is_key = (names == ids["pencil.arc_key"]) & (parents >= 0)
        tried = int(np.sum(names[parents[is_key]] == ids["pencil.enumerate_arcs"]))
    distinct = counters.get("pencil.enumerate_arcs.distinct", 0)
    put("pencil.enumerate_arcs.tried", tried, "count")
    put("pencil.enumerate_arcs.useful_ratio", distinct / tried if tried else 0.0, "ratio")

    attempted = int(get(calls, "localtrans.find_good_w0"))
    certified = counters.get("localtrans.certificates", 0)
    put("localtrans.cert_ratio", certified / attempted if attempted else 0.0, "ratio")
    put("localtrans.refine_ratio", counters.get("localtrans.refined", 0) / certified if certified else 0.0, "ratio")

    put("cli.self_s", float(get(self_total, ROOT)), "s")

    roots = spans["parent"] < 0
    root_dur = spans["end"][roots] - spans["start"][roots]
    per_job = np.bincount(spans["job"], weights=self_s)[spans["job"][roots]]
    identity_err = float(np.max(np.abs(per_job - root_dur))) if root_dur.size else 0.0
    return out, identity_err
