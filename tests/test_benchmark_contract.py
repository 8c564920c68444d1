"""The benchmark's tracer wraps blockade functions by module attribute name;
a rename that it does not follow would only show when a traced benchmark
run fails.  This reads perfbench/ and changes nothing there."""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    worker = importlib.import_module("worker")
    tracer = importlib.import_module("tracer").Tracer()
    try:
        worker._install(tracer)
    except AttributeError as exc:
        pytest.fail("perfbench wraps a name blockade lacks: %s" % exc)
    finally:
        patches = list(tracer._patches)
        tracer.unwrap_all()
    assert patches
    for module, attr, fn in patches:
        assert getattr(module, attr) is fn, "%s.%s" % (module.__name__, attr)
