"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps lefpen
functions and methods by name, and its counters read fields of their
results.  Every name it wraps must still resolve, and every field it
reads must still exist, or the traced run crashes."""

import importlib
import os
import sys

import numpy as np

from lefpen.transversal.localtrans import CPoly, LocalTransInstance, ball_grid, find_good_w0

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402


def test_every_span_target_resolves():
    # resolved as Tracer.install does: a module attribute, or an entry in
    # the class __dict__ for a Class.method target
    missing = []
    for _, module, qualname, _ in layers.SPANS:
        owner = importlib.import_module(module)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = callable(getattr(owner, qualname, None))
        if not found:
            missing.append("%s.%s" % (module, qualname))
    assert not missing, missing


def test_certificate_counters_read_a_real_certificate():
    # the reference instance of test_localtrans; a renamed grid key or
    # graph_resolution default fails here, not in the traced run
    p = CPoly([-0.25, 0, 1.0])
    p = p.scaled(1.0 / float(np.max(np.abs(p(ball_grid(1.1, 101))))))
    cert = find_good_w0(LocalTransInstance(p, CPoly([0.5]), 0.5, 0.1, 2))
    counters = {}
    layers._certificate(counters, (), cert)
    assert counters == {"localtrans.certificates": 1, "localtrans.refined": 0}
