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


def test_cutoff_scan_seed0_passes_its_checks(monkeypatch, tmp_path):
    # the allow_large=True solves at cutoffs 3 to 6 and the 1e-4 gate on
    # the g2 change from cutoff 5 to 6, as one benchmark pass runs them
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    inputs = workloads.make_inputs("cutoff_scan", 0)
    outputs = [workloads.collect("cutoff_scan", x,
                                 workloads.run_call("cutoff_scan", x,
                                                    str(tmp_path), None),
                                 str(tmp_path))
               for x in inputs]
    failed, records = workloads.check("cutoff_scan", 0, inputs, outputs)
    assert not failed, records
    assert [name for name, ok, _ in records] == \
        ["weak.cutoff_5_vs_6", "strong.cutoff_5_vs_6"]
