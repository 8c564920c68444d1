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


def _seed0_pass(monkeypatch, tmp_path, workload, oracle_calls=None):
    """(failed operations, check records) of one benchmark pass at seed 0."""
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    inputs = workloads.make_inputs(workload, 0)
    outputs = [workloads.collect(workload, x,
                                 workloads.run_call(workload, x,
                                                    str(tmp_path),
                                                    oracle_calls),
                                 str(tmp_path))
               for x in inputs]
    return workloads.check(workload, 0, inputs, outputs)


def test_cutoff_scan_seed0_passes_its_checks(monkeypatch, tmp_path):
    # the allow_large=True solves at cutoffs 3 to 6 and the 1e-4 gate on
    # the g2 change from cutoff 5 to 6, as one benchmark pass runs them
    failed, records = _seed0_pass(monkeypatch, tmp_path, "cutoff_scan")
    assert not failed, records
    assert [name for name, ok, _ in records] == \
        ["weak.cutoff_5_vs_6", "strong.cutoff_5_vs_6"]


def test_figures_seed0_passes_its_checks(monkeypatch, tmp_path):
    # the 15 sweep commands as one benchmark pass runs them, with figure
    # 4a's amplitude/master-equation agreement (acceptance criterion 1) and
    # figure 5b's conventional-blockade dips (criterion 3) gated
    failed, records = _seed0_pass(monkeypatch, tmp_path, "figures")
    assert not failed, records
    names = [name for name, ok, _ in records]
    assert len(names) == 15 + 3 + 1
    assert {"fig4a.curve0.methods_agree", "fig4a.curve1.methods_agree",
            "fig5b.curve2.cpb_dips"} <= set(names)


def test_optimize_seed0_passes_its_checks(monkeypatch, tmp_path):
    # both searches as one benchmark pass runs them, with the oracle calls
    # counted as the worker counts them: the weak.seed0_roots gate wants
    # 2 roots found and 1 certified
    import blockade.optimize
    calls = [0]
    oracle = blockade.optimize.steady_g2

    def counted(*args, **kwargs):
        calls[0] += 1
        return oracle(*args, **kwargs)

    monkeypatch.setattr(blockade.optimize, "steady_g2", counted)
    failed, records = _seed0_pass(monkeypatch, tmp_path, "optimize",
                                  lambda: calls[0])
    assert not failed, records
    assert [name for name, ok, _ in records] == [
        "%s.%s" % (preset, check) for preset in ("weak", "strong")
        for check in ("closed_form_roots", "certified", "seed0_roots")]
