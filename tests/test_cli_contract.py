"""The contract of the ``blockade`` command, as a shell sees it.

Each row of CASES runs as a process, through ``python -m blockade.cli`` and
through the installed ``blockade`` console script when one is on PATH, with
PYTHONWARNINGS=error: a warning that escapes becomes a traceback, which
changes the exit code or the stderr that a row pins.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import blockade.cli

# (argv, exit code, regex that stdout matches on exit 0, else stderr); a
# dict stands for a parameter file with that content
CASES = [
    (["--help"], 0,
     r"\Ausage: blockade \[-h\] \{g2,sweep,optimize,figure,params\} "),
    (["params", "--preset", "weak"], 0, r'\n  "hop_J": 0\.0019,\n'),
    # the _hz rates divided by omega_m_hz
    (["params", "--params-file", {"delta_hz": 3.0, "omega_m_hz": 4.0}], 0,
     r'\n  "delta": 0\.75,\n'),
    # a number in a string is refused, whatever the command line overrides
    (["params", "--params-file", {"delta": "0.1"}, "--J", "0.0019"], 1,
     r"\Ausage error: delta must be a finite number[^\n]*\n\Z"),
    (["g2", "--preset", "weak", "--method", "both"], 0,
     r'\A\{\n  "g2_1_amp": 0\.5541\d*,\n  "g2_2_amp": 0\.2856\d*,\n'
     r'  "g2_1_me": 0\.5539\d*,\n  "g2_2_me": 0\.2856\d*,\n  "n1": .*,\n'
     r'  "n2": .*\n\}\n\Z'),
    (["g2", "--preset", "strong", "--method", "me", "--cavity", "1"], 0,
     r'\A\{\n  "g2_1_me": 0\.2256\d*,\n  "n1": .*\n\}\n\Z'),
    # the jump map converges at |J| = 500 kappa
    (["g2", "--preset", "strong", "--J", "-1", "--delta", "0.039975",
      "--lambda", "-7.99e-7", "--method", "me", "--cavity", "1", "--cutoff",
      "3"], 0, r'\A\{\n  "g2_1_me": 19\.14\d*,\n  "n1": .*\n\}\n\Z'),
    # H's entries overflow: a usage error whatever the amplitude solve gives
    (["g2", "--preset", "weak", "--J", "1e308"], 1,
     r"\Ausage error: Hamiltonian entries overflow: a rate is too large\n\Z"),
    # H_nh's eigenvalues near 1e308 end in one line, with no numpy warning
    (["g2", "--preset", "weak", "--lambda", "1e308", "--g", "0.042",
      "--cutoff", "2"], 2, r"\Asolver error: [^\n]*\n\Z"),
    # |c20|**2 overflows
    (["g2", "--preset", "weak", "--lambda", "1e300", "--method", "amp"], 2,
     r"\Asolver error: FloatingPointError: g2 not finite: g2_1_amp, "
     r"g2_2_amp\n\Z"),
    (["sweep", "--preset", "weak", "--range", "-0.01", "0.01", "--points",
      "3", "--method", "amp", "--out", "s.csv"], 0, r"\Awrote s\.csv\n\Z"),
    # each end is finite, hi - lo is not: refused before np.linspace
    (["sweep", "--preset", "weak", "--range", "-1e308", "1e308", "--points",
      "5", "--method", "amp", "--out", "f.csv"], 1,
     r"\Ausage error: range \(-1e\+308, 1e\+308\): its width hi - lo "
     r"overflows\n\Z"),
    (["optimize", "--preset", "weak", "--delta-range", "-1e308", "1e308",
      "--out", "o.json"], 1,
     r"\Ausage error: delta_range \(-1e\+308, 1e\+308\): its width hi - lo "
     r"overflows\n\Z"),
    (["optimize", "--preset", "weak", "--lambda-range", "-1e308", "1e308",
      "--out", "o.json"], 1,
     r"\Ausage error: lambda_range \(-1e\+308, 1e\+308\): its width hi - lo "
     r"overflows\n\Z"),
    (["optimize", "--preset", "weak", "--starts", "4", "4"], 0,
     r'\n    "delta_opt": -7\.279\d*e-05,\n    "lambda_opt": 9\.274\d*e-07,'),
    # optimize certifies at a fixed cutoff: one usage error, then its usage
    (["optimize", "--preset", "weak", "--cutoff", "4"], 1,
     r"\Ausage error: [^\n]*--cutoff[^\n]*\nusage: blockade optimize "
     r"[^\n]*\n\Z"),
    # a box 1e200 wide keeps its one real root, not the ends where the
    # amplitudes underflow: one pair, (-7.28e-5, 9.27e-7) within 1e-3
    (["optimize", "--preset", "weak", "--starts", "5", "4", "--delta-range",
      "-1e200", "1e200", "--keep-uncertified"], 0,
     r'\A\[\n  \{\n    "delta_opt": -7\.2(7[3-9]|8[0-7])\d*e-05,\n'
     r'    "lambda_opt": 9\.2(6[1-9]|7\d)\d*e-07,\n[^{}]*\}\n\]\n\Z'),
    (["figure", "3a", "--out", "fig", "--points", "9"], 0,
     r"\A(wrote fig/fig3a_\S+\n){4}\Z"),
]

# the command of each leg; the console script is None where none is on PATH
LEGS = {"module": [sys.executable, "-m", "blockade.cli"],
        "console": [shutil.which("blockade")]}


@pytest.fixture(params=list(LEGS))
def command(request):
    if LEGS[request.param][0] is None:
        pytest.skip("no blockade console script on PATH")
    return LEGS[request.param]


def _env():
    """This environment with warnings as errors and this checkout's src
    first on PYTHONPATH."""
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
        env.get("PYTHONPATH")]))
    return env


def _args(argv):
    """argv with a dict replaced by the name of its parameter file."""
    return ["params.json" if isinstance(a, dict) else a for a in argv]


@pytest.mark.parametrize("argv, code, regex", CASES,
                         ids=[" ".join(_args(argv)) for argv, _, _ in CASES])
def test_cli_contract(argv, code, regex, command, tmp_path):
    for value in argv:
        if isinstance(value, dict):
            (tmp_path / "params.json").write_text(json.dumps(value))
    before = sorted(os.listdir(tmp_path))
    done = subprocess.run(command + _args(argv), cwd=tmp_path,
                          capture_output=True, text=True, env=_env(),
                          timeout=60)
    stream, other = ((done.stdout, done.stderr) if code == 0 else
                     (done.stderr, done.stdout))
    assert (done.returncode, other) == (code, ""), done.stderr
    assert re.search(regex, stream), stream
    if code:
        assert sorted(os.listdir(tmp_path)) == before


def test_every_command_has_an_exit_0_row():
    # a new subcommand needs a row that runs it as a process
    assert set(blockade.cli._COMMANDS) <= {
        argv[0] for argv, code, _ in CASES if code == 0}


def test_cli_closed_stdout_exits_1_quietly(command):
    # the reader of the pipe is gone before anything is written
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(command + ["params", "--preset", "weak"],
                              stdout=write, stderr=subprocess.PIPE,
                              env=_env(), timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")
