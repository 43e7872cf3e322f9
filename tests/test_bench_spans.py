"""The benchmark's span tracer (bench/spans.py) still finds what it wraps.

``bench/run.py --trace 1`` replaces each ``(owner, attribute)`` of
``spans.TARGETS`` with a recording wrapper, reading the original from
``owner.__dict__``.  A rename or move in pixtopo would break the traced run
without failing any other test, so these tests load the tracer by path, as
it is, and check its targets.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from pixtopo import grid, incremental, invariants, verify

_SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name", sorted(spans.TARGETS))
def test_every_traced_target_exists_on_its_owner(name):
    pairs = spans.TARGETS[name]
    for owner, attr in pairs:
        assert attr in vars(owner), f"{name}: {owner!r} defines no {attr!r}"
    # every pair of a span reaches the one function the span times
    assert len({id(vars(owner)[attr]) for owner, attr in pairs}) == 1


def test_tracer_records_spans_and_restores_the_originals():
    originals = [
        (owner, attr, vars(owner)[attr])
        for pairs in spans.TARGETS.values()
        for owner, attr in pairs
    ] + [(invariants, "ndi", invariants.ndi)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        obj = grid.DigitalObject([(0, 0), (1, 1)])
        invariants.analyze(obj)
        incremental.Tracker([(0, 0), (1, 1)]).as_object()
        verify.replay([(0, 0), (1, 1)], Counter())
    finally:
        tracer.uninstall()
    calls = {name: count for name, (_, count) in tracer.summary(1).items()}
    assert calls["grid.object_build"] == 1
    assert calls["invariants.analyze"] == 1
    assert calls["incremental.add_pixel"] == 4
    assert calls["incremental.classify_case"] == 2
    assert calls["incremental.as_object"] == 1
    assert calls[spans.LABEL] == 3
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
