"""The benchmark tracer rebinds layer functions where callers look them up
(``bench/tracing.py``'s ``LAYERS``).  A refactor that drops one of those
names from ``fibertop.harness`` or ``fibertop.cli`` would only show up in a
traced benchmark run; this test makes it fail here instead.  The tracer
source is executed in a fresh namespace, so nothing under ``bench/`` is
imported as a package or written to."""

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_every_layer_place_resolves(tracing):
    places = [place for group in tracing.LAYERS.values() for place in group]
    assert places
    for place in places:
        owner, attr = tracing._resolve(place)
        assert callable(owner.__dict__.get(attr)), place


def test_every_decider_has_a_place(tracing):
    for name in tracing.DECIDERS:
        assert tracing.LAYERS[f"normality.{name}"], name
