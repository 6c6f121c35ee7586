"""Unit checks of the span arithmetic behind the traced run.

    python3 -m pytest perfbench/test_tracing.py
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer, self_times  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    #  0 job  [0, 10]
    #  1   a  [1, 4]     parent 0
    #  2     b  [2, 3]   parent 1
    #  3   c  [5, 9]     parent 0
    #  4     b  [6, 8.5] parent 3
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.5]
    parent = [-1, 0, 1, 0, 3]
    got = self_times(start, end, parent)
    assert np.allclose(got, [3.0, 2.0, 1.0, 1.5, 2.5])
    assert np.isclose(got.sum(), 10.0)


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap(leaf, "leaf", count=lambda c, args, r: c.__setitem__("n", c.get("n", 0) + args[0]))

    def inner(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_inner = tracer.wrap(inner, "inner")
    assert tracer.run_job(7, wrapped_inner, 2) == 6
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == ["job", "inner", "leaf", "leaf"]
    assert list(spans["parent"]) == [-1, 0, 1, 1]
    assert list(spans["job"]) == [7, 7, 7, 7]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    assert np.isclose(own.sum(), spans["end"][0] - spans["start"][0])
    assert tracer.counters == {"n": 4}


def test_per_layer_names_match_benchmark_json():
    import layers

    metrics, err = layers.per_layer(Tracer())
    names = set(metrics) | {"trace.overhead_ratio"}
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names == listed
    assert err == 0.0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
