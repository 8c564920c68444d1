import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from blockade.amplitude import UndefinedCorrelationError, \
    WeakDrivingWarning, g2_cavity, steady_amplitudes
import blockade.cli
import blockade.optimize
from blockade.cli import build_parser, cli_main
from blockade.fock import FockBasis, two_mode_ops
from blockade.lindblad import EmptyModeError, g2_mode, steady_g2, steady_rho
from blockade.sweep import (FIGURE_IDS, MAX_POINTS, ROW_FIELDS, SweepSpec,
                            figure_dataset, run_sweep, write_csv)
from blockade.model import strong_params, weak_params


def _g2_1_amp(rows):
    return np.array([(r["axis_value"], r["g2_1_amp"]) for r in rows])


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(axis="bogus", range=(0, 1), points=5, base=weak_params())
    with pytest.raises(ValueError):
        SweepSpec(axis="delta", range=(1, 0), points=5, base=weak_params())
    with pytest.raises(ValueError):
        SweepSpec(axis="delta", range=(0, 1), points=1, base=weak_params())
    with pytest.raises(ValueError):
        SweepSpec(axis="delta", range=(0, 1), points=5, base=weak_params(),
                  method="bogus")
    for axis in ("lambda", "J", "g"):       # the flip negates delta only
        with pytest.raises(ValueError, match="delta axis only"):
            SweepSpec(axis=axis, range=(0, 1e-3), points=5,
                      base=weak_params(), axis_flip=True)


def test_weak_dip_location_flipped_axis():
    spec = SweepSpec(axis="delta", range=(-0.001, 0.001), points=201,
                     base=weak_params(lambda_gain=0.93e-6),
                     method="amplitude", cavity="1", axis_flip=True)
    data = _g2_1_amp(run_sweep(spec).rows)
    dip = data[np.argmin(data[:, 1]), 0]
    # one grid step = 1e-5; published dip at -0.73e-4 on the emitted axis
    assert abs(dip - (-0.73e-4)) <= 1e-5


def test_axis_flip_negates_axis_only():
    base = weak_params(lambda_gain=0.93e-6)
    kw = dict(axis="delta", range=(-0.001, 0.001), points=41, base=base,
              method="amplitude", cavity="1")
    plain = run_sweep(SweepSpec(**kw)).rows
    flipped = run_sweep(SweepSpec(axis_flip=True, **kw)).rows
    for r_plain, r_flip in zip(plain, flipped):
        assert r_flip["axis_value"] == -r_plain["axis_value"]
        assert r_flip["g2_1_amp"] == r_plain["g2_1_amp"]


def test_sweep_deterministic():
    spec = SweepSpec(axis="delta", range=(-0.005, 0.005), points=21,
                     base=weak_params(lambda_gain=0.93e-6), method="both",
                     cavity="both", cutoff=3)
    a = run_sweep(spec).rows
    b = run_sweep(spec).rows
    assert a == b


def test_stacked_rows_equal_point_solves():
    base = weak_params(lambda_gain=0.93e-6, theta=0.3, phi=-1.1)
    for axis, field, rng in (("delta", "delta", (-0.01, 0.01)),
                             ("g", "g_om", (0.0, 0.1)),
                             ("J", "hop_J", (1e-4, 0.004)),
                             ("lambda", "lambda_gain", (-5e-6, 5e-6))):
        spec = SweepSpec(axis=axis, range=rng, points=41, base=base,
                         method="amplitude", cavity="both")
        for row, v in zip(run_sweep(spec).rows, np.linspace(*rng, 41)):
            s = steady_amplitudes(base.replace(**{field: float(v)}))
            assert row["g2_1_amp"] == g2_cavity(s, 1)
            assert row["g2_2_amp"] == g2_cavity(s, 2)


def test_spec_rejects_axis_values_outside_the_parameter_domain():
    with pytest.raises(ValueError, match="g_om"):
        SweepSpec(axis="g", range=(-0.1, 0.1), points=5, base=weak_params())
    with pytest.raises(ValueError):
        SweepSpec(axis="delta", range=(0.0, np.inf), points=5,
                  base=weak_params())
    with pytest.raises(ValueError):
        SweepSpec(axis="delta", range=(np.nan, 1.0), points=5,
                  base=weak_params())


def test_sentinel_rows_for_per_point_failures():
    # J = 0 leaves cavity 2 empty: the amplitude g2 is undefined and the
    # master-equation occupation underflows, but cavity 1 stays numeric
    spec = SweepSpec(axis="delta", range=(-0.001, 0.001), points=5,
                     base=weak_params(hop_J=0.0), method="both", cavity="both")
    for row in run_sweep(spec).rows:
        assert row["g2_2_amp"] == "err:UndefinedCorrelationError"
        assert row["g2_2_me"] == "err:EmptyModeError"
        assert isinstance(row["g2_1_amp"], float)
        assert isinstance(row["g2_1_me"], float)
        assert np.isfinite(row["g2_1_amp"]) and np.isfinite(row["g2_1_me"])


def _value_or_error(fun, *args):
    try:
        return fun(*args)
    except (UndefinedCorrelationError, EmptyModeError) as exc:
        return "err:" + type(exc).__name__


def _scalar_g2_amp(s, cav):
    # the per-point arithmetic in Python scalars: abs(complex) and float **
    two, one = (s.c20, s.c10) if cav == 1 else (s.c02, s.c01)
    if one == 0:
        return "err:UndefinedCorrelationError"
    return 2.0 * abs(complex(two)) ** 2 / abs(complex(one)) ** 4


def _scalar_g2_me(rho, a):
    # <adag a> and <adag adag a a> weigh diag(rho) by occ and occ (occ - 1),
    # occ = diag(adag a), in one product for the point; then Python floats
    occ = np.array([float((a[:, k].conj() @ a[:, k]).real)
                    for k in range(len(a))])
    weights = np.stack([occ, occ * (occ - 1)])
    n, two = (weights @ rho.diagonal().real[:, None])[:, 0].tolist()
    if n <= 1e-30:
        return "err:EmptyModeError"
    return two / n ** 2, n


@pytest.mark.parametrize("base", [
    # J = 0 leaves cavity 2 without one-photon amplitude, and without gain
    # without photons: sentinels in the amplitude and master-equation columns
    weak_params(delta=1e-3, lambda_gain=0.0),
    weak_params(delta=-2e-3, lambda_gain=0.93e-6, theta=0.3),
])
def test_sweep_columns_equal_the_one_point_functions(base):
    # bit for bit, against the one-point functions and the same arithmetic
    # in Python scalars: hypot and pow() round as abs(complex) and float **
    spec = SweepSpec(axis="J", range=(0.0, 0.004), points=41, base=base,
                     method="both", cavity="both")
    ops = two_mode_ops(FockBasis(3, 3))
    rows = run_sweep(spec).rows
    assert "err:" in rows[0]["g2_2_amp"]
    for row, v in zip(rows, np.linspace(0.0, 0.004, 41).tolist()):
        p = base.replace(hop_J=v)
        amps, rho = steady_amplitudes(p), steady_rho(p, FockBasis(3, 3))
        for cav in (1, 2):
            want = _scalar_g2_amp(amps, cav)
            assert row["g2_%d_amp" % cav] == want
            assert _value_or_error(g2_cavity, amps, cav) == want
            want = _scalar_g2_me(rho, ops[cav - 1])
            assert _value_or_error(g2_mode, rho, ops[cav - 1]) == want
            if isinstance(want, str):
                want = (want, want)
            assert (row["g2_%d_me" % cav], row["n%d" % cav]) == want


def test_metadata_fields():
    spec = SweepSpec(axis="lambda", range=(-2e-6, 2e-6), points=5,
                     base=strong_params(delta=-0.024), method="amplitude",
                     cavity="1")
    meta = run_sweep(spec).metadata
    for key in ("params", "axis", "range", "points", "method", "cavity",
                "axis_flip", "cutoff", "code_version", "wall_time_s"):
        assert key in meta
    assert meta["axis"] == "lambda"
    assert meta["params"]["delta"] == -0.024


def test_csv_round_trip(tmp_path):
    spec = SweepSpec(axis="delta", range=(-0.001, 0.001), points=7,
                     base=weak_params(lambda_gain=0.93e-6),
                     method="amplitude", cavity="1", axis_flip=True)
    result = run_sweep(spec)
    out = tmp_path / "sweep.csv"
    write_csv(result, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(ROW_FIELDS)
    assert len(rows) == 8
    # repr round-trip: parsing the text recovers the float exactly
    for text_row, row in zip(rows[1:], result.rows):
        assert float(text_row[0]) == row["axis_value"]
        assert float(text_row[1]) == row["g2_1_amp"]
    meta = json.loads((tmp_path / "sweep.json").read_text())
    assert meta["axis_flip"] is True


def test_figure_dataset(tmp_path):
    paths = figure_dataset("2a", tmp_path, points=11, cutoff=2)
    assert len(paths) == 4              # three curves + metadata
    meta = json.loads(open(paths[-1]).read())
    assert meta["figure"] == "2a"
    assert meta["axis_flip"] is True
    assert meta["curve_values_are_repo_choice"] is False
    lam_values = [c["value"] for c in meta["curves"]]
    assert lam_values == pytest.approx([0.0, 0.93e-6, 1.86e-6])
    for path in paths[:-1]:
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 12
        axis = [float(r[0]) for r in rows[1:]]
        # emitted axis covers the published panel range
        assert min(axis) == pytest.approx(-0.01)
        assert max(axis) == pytest.approx(0.01)


def test_figure_ids_complete():
    assert set(FIGURE_IDS) == {"2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b"}
    with pytest.raises(ValueError):
        figure_dataset("9z", ".")


def test_cli_params(capsys):
    assert cli_main(["params", "--preset", "strong"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mu"] == pytest.approx(0.04)
    assert out["hop_J"] == pytest.approx(0.016)


@pytest.mark.parametrize("argv", [
    ["--preset", "weak"],
    ["--preset", "strong", "--g", "0.123", "--delta", "-0.024"],
])
def test_cli_params_output_reads_back(argv, tmp_path, capsys):
    # what params prints, mu included, is a --params-file of the same rates
    assert cli_main(["params"] + argv) == 0
    printed = capsys.readouterr().out
    (tmp_path / "p.json").write_text(printed)
    assert cli_main(["params", "--params-file", str(tmp_path / "p.json")]) == 0
    assert capsys.readouterr().out == printed


def test_master_equation_g2_needs_cutoff_2(tmp_path, capsys):
    # at cutoff 1 no mode holds two photons, so g2 would read 0: rejected
    # before any work wherever a master-equation g2 is asked for
    with pytest.raises(ValueError, match="cutoff >= 2"):
        steady_g2(weak_params(), cutoff=1)
    assert cli_main(["figure", "2a", "--cutoff", "1", "--points", "3",
                     "--out", str(tmp_path / "fig")]) == 1
    assert "cutoff >= 2" in capsys.readouterr().err
    assert not (tmp_path / "fig").exists()
    # the basis itself, the amplitude method and amplitude figures take it
    assert steady_rho(weak_params(), FockBasis(1, 1))[0, 0].real > 0.99
    assert cli_main(["g2", "--preset", "weak", "--cutoff", "1",
                     "--method", "amp"]) == 0
    assert cli_main(["figure", "3a", "--cutoff", "1", "--points", "3",
                     "--out", str(tmp_path / "fig")]) == 0
    capsys.readouterr()


def test_cli_g2_at_weak_optimum(capsys):
    code = cli_main(["g2", "--preset", "weak", "--delta", "-0.73e-4",
                     "--lambda", "0.93e-6", "--cavity", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["g2_1_amp"] < 1e-4
    assert out["g2_1_me"] < 1e-2
    assert "g2_2_amp" not in out


def test_cli_negative_scientific_notation_values():
    args = build_parser().parse_args(
        ["g2", "--preset", "weak", "--delta", "-0.73e-4"])
    assert args.delta == -0.73e-4


def test_cli_usage_errors(capsys):
    assert cli_main(["g2", "--preset", "bogus"]) == 1
    assert cli_main(["g2"]) == 1        # no preset and no params file
    assert cli_main(["sweep", "--preset", "weak", "--out", "x.csv"]) == 1
    capsys.readouterr()


USAGE = "usage: blockade [-h] {g2,sweep,optimize,figure,params} ..."


def test_console_entry_point(monkeypatch, capsys):
    assert cli_main(["params", "--preset", "weak"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["blockade", "params", "--preset", "weak"])
    with pytest.raises(SystemExit) as exit_:
        blockade.cli.main()
    assert exit_.value.code == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr(sys, "argv", ["blockade"])
    with pytest.raises(SystemExit) as exit_:
        blockade.cli.main()
    assert exit_.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == USAGE


def _run(argv, capsys):
    """(exit code, stdout, stderr) of ``cli_main(argv)``; --help exits."""
    try:
        code = cli_main(argv)
    except SystemExit as exit_:
        code = exit_.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    *(([name, "--help"], 0) for name in blockade.cli._COMMANDS),
    (["sweep", "--preset", "weak", "--out", "x.csv"], 1),    # no --range
    (["g2", "--preset", "bogus"], 1),                        # bad choice
    (["figure", "9z", "--out", "."], 1),
    (["params", "--preset", "weak", "--points", "9"], 1),    # not its option
    (["sweep"], 1),
    (["bogus", "--preset", "weak"], 1),                      # unknown command
    ([], 1),                                                 # no command
])
def test_per_command_parser_prints_what_the_full_parser_prints(
        argv, code, monkeypatch, capsys):
    got = _run(argv, capsys)
    assert got[0] == code
    assert (got[1] if code == 0 else got[2].splitlines()[-1]).startswith(
        "usage: blockade")
    full = build_parser
    monkeypatch.setattr(blockade.cli, "build_parser",
                        lambda command=None: full())
    assert _run(argv, capsys) == got


@pytest.mark.parametrize("argv, cutoff", [
    (["g2", "--preset", "weak", "--delta", "-0.73e-4", "--method", "amp"], 3),
    (["sweep", "--preset", "strong", "--axis", "lambda", "--range", "-5e-6",
      "5e-6", "--points", "9", "--flip-axis", "--out", "a.csv"], 3),
    (["optimize", "--preset", "weak", "--starts", "4", "4"], 4),
    (["optimize", "--preset", "strong", "--cutoff", "5", "--cavity", "2"], 5),
    (["figure", "3a", "--out", "d", "--points", "9"], 3),
    (["params", "--params-file", "p.json", "--J", "0.01"], 3),
])
def test_per_command_parser_parses_as_the_full_parser(argv, cutoff):
    args = build_parser(argv[0]).parse_args(argv)
    assert vars(args) == vars(build_parser().parse_args(argv))
    assert args.cutoff == cutoff


def test_per_command_parser_builds_no_other_options():
    with pytest.raises(blockade.cli.UsageError, match="--preset"):
        build_parser("figure").parse_args(["g2", "--preset", "weak"])


@pytest.fixture
def no_search(monkeypatch):
    """Fail the test if a sweep or the optimal-pair search starts."""
    def fail(*args, **kwargs):
        raise AssertionError("the computation ran")
    monkeypatch.setattr(blockade.optimize, "_newton_paths", fail)
    monkeypatch.setattr(blockade.cli, "run_sweep", fail)


@pytest.mark.parametrize("argv", [
    ["sweep", "--preset", "weak", "--range", "-0.01", "0.01"],
    ["optimize", "--preset", "weak", "--starts", "4", "4"],
])
def test_no_search_fires_on_valid_runs(argv, tmp_path, no_search):
    # else the rejection tests below would pass on a search that starts
    with pytest.raises(AssertionError, match="the computation ran"):
        cli_main(argv + ["--out", str(tmp_path / "out")])


@pytest.mark.parametrize("argv", [
    ["g2", "--preset", "weak", "--delta", "nan"],
    ["g2", "--preset", "weak", "--cutoff", "0"],
    ["sweep", "--preset", "weak", "--range", "-0.01", "0.01",
     "--points", "1"],
    ["sweep", "--preset", "weak", "--range", "0.01", "-0.01"],
    ["sweep", "--preset", "weak", "--axis", "g", "--range", "-0.1", "0.1"],
    ["optimize", "--preset", "weak", "--starts", "2", "2"],
    ["optimize", "--preset", "weak", "--starts", "4", "4", "--cutoff", "0"],
    ["optimize", "--preset", "weak", "--delta-range", "0", "inf"],
    ["optimize", "--preset", "weak", "--lambda-range", "nan", "1e-6"],
    ["g2", "--params-file", "no-such-dir/params.json"],
    ["params", "--params-file", {"delta": None}],
    ["params", "--params-file", {"kappa": [0.002]}],
    ["g2", "--params-file", {"hop_J": {"value": 0.0019}}],
    ["optimize", "--preset", "weak", "--starts", "4", "25001"],   # > 1e5
    ["g2", "--preset", "weak", "--cutoff", "1", "--method", "me"],
    ["sweep", "--preset", "weak", "--range", "-0.01", "0.01",
     "--cutoff", "1"],
    ["optimize", "--preset", "weak", "--starts", "4", "4", "--cutoff", "1"],
    ["sweep", "--preset", "weak", "--axis", "g", "--range", "0", "0.1",
     "--flip-axis"],
])
def test_cli_configuration_errors_exit_1(argv, tmp_path, capsys, no_search):
    # a dict stands for a parameter file with that content
    params_file = tmp_path / "params.json"
    for value in argv:
        if isinstance(value, dict):
            params_file.write_text(json.dumps(value))
    argv = [str(params_file) if isinstance(v, dict) else v for v in argv]
    out = tmp_path / "out.csv"
    if argv[0] in ("sweep", "optimize"):
        argv = argv + ["--out", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_cli_oversized_cutoff_fails_before_writing(tmp_path, capsys,
                                                   no_search):
    # cutoff 32: basis dimension 33**2 = 1089 > 1024, a usage error
    assert cli_main(["g2", "--preset", "weak", "--cutoff", "32"]) == 1
    captured = capsys.readouterr()
    assert "dimension <= 1024" in captured.err and not captured.out
    out = tmp_path / "big.csv"
    assert cli_main(["sweep", "--preset", "weak", "--range", "-0.01", "0.01",
                     "--cutoff", "32", "--method", "both",
                     "--out", str(out)]) == 1
    assert "dimension <= 1024" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "big.json").exists()
    # also where the search would find no root and print []
    for extra in ([], ["--delta-range", "0.5", "0.6"]):
        out = tmp_path / "big_opt.json"
        assert cli_main(["optimize", "--preset", "weak", "--starts", "4", "4",
                         "--cutoff", "32", "--out", str(out)] + extra) == 1
        captured = capsys.readouterr()
        assert "dimension <= 1024" in captured.err and not captured.out
        assert not out.exists()
    assert cli_main(["figure", "2a", "--cutoff", "32",
                     "--out", str(tmp_path / "fig")]) == 1
    assert not (tmp_path / "fig").exists()


def test_cli_runs_past_the_dense_superoperator_limit(tmp_path, capsys):
    # cutoff 10: the dense superoperator would be 121**2 > 1e4 square
    assert cli_main(["g2", "--preset", "strong", "--cutoff", "10",
                     "--method", "me"]) == 0
    out = json.loads(capsys.readouterr().out)
    g2_1, g2_2, n1, n2 = steady_g2(strong_params(), 10)
    assert out == {"g2_1_me": g2_1, "g2_2_me": g2_2, "n1": n1, "n2": n2}
    csv_path = tmp_path / "c10.csv"
    assert cli_main(["sweep", "--preset", "weak", "--range", "-0.01", "0.01",
                     "--points", "5", "--method", "both", "--cutoff", "10",
                     "--out", str(csv_path)]) == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6
    assert not any(cell.startswith("err:") for row in rows for cell in row)
    assert cli_main(["optimize", "--preset", "weak", "--starts", "4", "4",
                     "--cutoff", "10", "--out",
                     str(tmp_path / "c10.json")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["sweep", "--preset", "weak", "--range", "-0.01", "0.01",
     "--points", "3", "--method", "amp"],
    ["optimize", "--preset", "strong", "--delta-range", "0.05", "0.062",
     "--starts", "4", "4"],
])
def test_cli_unwritable_out_exits_1(argv, tmp_path, capsys, no_search):
    # before the sweep or the search starts
    for out in (tmp_path / "no-such-dir" / "out", tmp_path):
        assert cli_main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert str(out) in err
    assert os.listdir(tmp_path) == []


_SWEEP = ["sweep", "--range", "-0.01", "0.01"]


@pytest.mark.parametrize("argv, out, params_file", [
    # the metadata would replace the CSV, or the input file
    pytest.param(_SWEEP, "data.json", None, id="data.json-None"),
    pytest.param(_SWEEP, "run.csv", os.path.join(".", "run.json"),
                 id="run.csv-" + os.path.join(".", "run.json")),
    # --out itself would replace the input file
    pytest.param(_SWEEP, "run.csv", os.path.join(".", "run.csv"),
                 id="sweep-out-is-params"),
    pytest.param(["optimize", "--starts", "4", "4"], "q.json",
                 os.path.join(".", "q.json"), id="optimize-out-is-params"),
])
def test_cli_metadata_over_a_named_file_exits_1(argv, out, params_file,
                                                tmp_path, capsys, no_search):
    argv = argv + ["--out", str(tmp_path / out)]
    if params_file:
        (tmp_path / params_file).write_text(json.dumps({"kappa": 0.002}))
        # another spelling of the path that an output would take
        argv += ["--params-file", str(tmp_path) + os.sep + params_file]
    else:
        (tmp_path / out).write_text("a,b\n")
        argv += ["--preset", "weak"]
    before = {f: (tmp_path / f).read_bytes() for f in os.listdir(tmp_path)}
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "would overwrite" in err
    assert {f: (tmp_path / f).read_bytes()
            for f in os.listdir(tmp_path)} == before


def test_cli_solver_error_exit_code(tmp_path, capsys):
    for params, sweep_code in (
            # decoupled, gain-free cavity 2 has no photons: g2 fails, the
            # sweep marks that column err: in every row
            ({"kappa": 0.002, "drive_E": 4e-5, "hop_J": 0.0}, 0),
            # kappa/2 rounds to 0: the one-photon block at delta = 0 is
            # singular, and the stacked solve fails the whole sweep
            ({"kappa": 5e-324, "drive_E": 5e-324, "hop_J": 0.0}, 2)):
        pfile, out = tmp_path / "p.json", tmp_path / "s.csv"
        pfile.write_text(json.dumps(params))
        with warnings.catch_warnings():     # E > 0.1 kappa at kappa = 5e-324
            warnings.simplefilter("ignore", WeakDrivingWarning)
            g2_code = cli_main(["g2", "--params-file", str(pfile),
                                "--method", "amp", "--cavity", "both"])
            g2_err = capsys.readouterr().err
            code = cli_main(["sweep", "--params-file", str(pfile),
                             "--range", "-1e-3", "1e-3", "--points", "3",
                             "--method", "amp", "--out", str(out)])
        assert g2_code == 2 and "solver error" in g2_err
        err = capsys.readouterr().err
        assert code == sweep_code
        assert out.exists() == (sweep_code == 0)
        if sweep_code:
            assert "solver error: LinAlgError" in err
        else:
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert all(r["g2_2_amp"] == "err:UndefinedCorrelationError"
                       for r in rows)
            out.unlink()


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = cli_main(["sweep", "--preset", "weak", "--lambda", "0.93e-6",
                     "--axis", "delta", "--range", "-0.001", "0.001",
                     "--points", "11", "--method", "amp", "--cavity", "1",
                     "--flip-axis", "--out", str(out)])
    assert code == 0
    assert out.exists() and (tmp_path / "s.json").exists()
    capsys.readouterr()


def test_cli_optimize_finds_cpb_pair(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    code = cli_main(["optimize", "--preset", "strong", "--cavity", "1",
                     "--delta-range", "0.05", "0.062",
                     "--lambda-range", "-2e-6", "2e-6",
                     "--starts", "5", "4", "--out", str(out)])
    assert code == 0
    pairs = json.loads(out.read_text())
    assert any(abs(q["delta_opt"] - 0.056) < 0.004
               and q["mechanism"] == "CPB" for q in pairs)
    capsys.readouterr()


def test_cli_figure(tmp_path, capsys):
    code = cli_main(["figure", "3a", "--out", str(tmp_path), "--points", "9"])
    assert code == 0
    assert len(os.listdir(tmp_path)) == 4
    capsys.readouterr()


@pytest.mark.parametrize("argv, cause", [
    (["params", "--preset", "weak", "--g", "1e200"], "g_om"),
    (["sweep", "--preset", "strong", "--axis", "g", "--range", "0", "1e200",
      "--points", "5", "--method", "amp", "--cavity", "1", "--out", "f.csv"],
     "g_om"),
    (["g2", "--preset", "weak", "--delta", "1e308", "--method", "me"],
     "entries overflow"),
    (["g2", "--preset", "weak", "--delta", "1e308", "--method", "amp"],
     "entries overflow"),
    (["optimize", "--preset", "weak", "--delta-range", "0", "1e308",
      "--out", "o.json"], "entries overflow"),
])
def test_cli_overflowing_rates_exit_1(argv, cause, tmp_path, capsys):
    # g_om**2 overflows, or an entry of H does: a usage error that says so,
    # with no traceback, no numpy warning and no output file
    argv = [str(tmp_path / a) if a in ("f.csv", "o.json") else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert not out and err.startswith("usage error:") and cause in err
    assert "overflow" in err and err.count("\n") == 1
    assert not caught
    assert os.listdir(tmp_path) == []


def test_cli_non_finite_g2_is_a_solver_error(capsys):
    # lambda = 1e308 leaves every entry of H finite, not the amplitudes
    argv = ["g2", "--preset", "weak", "--lambda", "1e308", "--method", "amp"]
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "solver error: FloatingPointError: g2 not finite: " \
        "{'g2_1_amp': inf, 'g2_2_amp': nan}\n"


def _cli_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
        env.get("PYTHONPATH")]))
    return env


def _cli_process(argv, cwd):
    """``python -m blockade.cli argv`` in cwd: (exit code, stdout, stderr)."""
    done = subprocess.run([sys.executable, "-m", "blockade.cli", *argv],
                          cwd=cwd, capture_output=True, text=True,
                          env=_cli_env(), timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_cli_closed_stdout_exits_1_quietly():
    # the reader of the pipe is gone before anything is written
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "blockade.cli", "params",
                               "--preset", "weak"], stdout=write,
                              stderr=subprocess.PIPE, env=_cli_env(),
                              timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("argv, name", [
    (["sweep", "--preset", "weak", "--range", "-1e308", "1e308",
      "--points", "5", "--method", "amp", "--out", "f.csv"], "range"),
    (["optimize", "--preset", "weak", "--delta-range", "-1e308", "1e308",
      "--out", "o.json"], "delta_range"),
    (["optimize", "--preset", "weak", "--lambda-range", "-1e308", "1e308",
      "--out", "o.json"], "lambda_range"),
])
def test_cli_range_whose_width_overflows_exits_1(argv, name, tmp_path):
    # each end is finite, hi - lo is not: a usage error before np.linspace
    code, out, err = _cli_process(argv, tmp_path)
    assert (code, out) == (1, "")
    assert err == "usage error: %s (-1e+308, 1e+308): its width hi - lo " \
        "overflows\n" % name
    assert os.listdir(tmp_path) == []


def test_cli_overflowing_amplitude_g2_is_a_solver_error_or_cell(tmp_path):
    # lambda = 1e300: |c20|**2 overflows; no numpy warning reaches stderr
    code, out, err = _cli_process(["g2", "--preset", "weak", "--lambda",
                                   "1e300", "--method", "amp"], tmp_path)
    assert (code, out) == (2, "")
    assert err.startswith("solver error: FloatingPointError: g2 not finite")
    assert "RuntimeWarning" not in err
    code, out, err = _cli_process(
        ["sweep", "--preset", "weak", "--axis", "lambda", "--range", "0",
         "1e300", "--points", "3", "--method", "amp", "--out", "g.csv"],
        tmp_path)
    assert (code, err) == (0, "")
    with open(tmp_path / "g.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["g2_1_amp"]) > 0
    assert [(r["g2_1_amp"], r["g2_2_amp"]) for r in rows[1:]] == \
        [("err:FloatingPointError",) * 2] * 2


@pytest.mark.parametrize("hop_J", ["1e200", "1e308"])
def test_cli_underflowing_one_photon_amplitude_names_the_cause(hop_J, capsys):
    # c10 ~ E*kappa/J**2 underflows to 0 while every entry of H is finite
    argv = ["g2", "--preset", "weak", "--J", hop_J, "--method", "amp"]
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "solver error: UndefinedCorrelationError: cavity 1: " \
        "one-photon amplitude is 0 at these rates (it vanishes, or " \
        "underflows below the smallest float)\n"


def test_sweep_points_are_bounded(tmp_path, capsys):
    # only the spec is built: a rejected point count allocates no sweep
    kw = dict(axis="delta", range=(-0.01, 0.01), base=weak_params(),
              method="amplitude")
    SweepSpec(points=MAX_POINTS, **kw)
    with pytest.raises(ValueError, match="<= %d" % MAX_POINTS):
        SweepSpec(points=MAX_POINTS + 1, **kw)
    out = tmp_path / "s.csv"
    assert cli_main(["sweep", "--preset", "weak", "--range", "-0.01", "0.01",
                     "--points", str(MAX_POINTS + 1), "--method", "amp",
                     "--out", str(out)]) == 1
    assert "usage error: points must be" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
