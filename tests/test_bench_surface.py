"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps lefpen
functions and methods by name.  Every name it wraps must still resolve,
or the traced run crashes."""

import importlib
import os
import sys

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
