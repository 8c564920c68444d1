"""Seeded fuzz test of the command-line boundary.

Argvs come from a grammar of the five subcommands: good and bad numbers
(nan, inf, 1e308, text), swapped and degenerate ranges, bad choices,
cutoffs 0 and 1, and missing flags.  Each runs in-process through
``cli_main``.
"""

import os

import numpy as np
import pytest

from blockade.cli import cli_main

SEED = 20261019
N_ARGV = 300

# per flag: (good values, bad values)
VALUES = {
    "--preset": (("weak", "strong"), ("medium",)),
    "--delta": (("0", "7.3e-5", "-0.024"), ("nan", "inf", "-1e308", "x")),
    "--lambda": (("0", "0.93e-6", "-5e-6"), ("1e308", "nan")),
    "--J": (("0", "0.0019", "-1"), ("1e308", "inf")),
    "--g": (("0", "0.042", "0.2"), ("-0.1", "1e200")),
    "--cutoff": (("2", "3"), ("0", "1", "-1", "40", "2.5")),
    "--method": (("amp", "me", "both"), ("exact",)),
    "--cavity": (("1", "2", "both"), ("3",)),
    "--axis": (("delta", "lambda", "J", "g"), ("kappa",)),
    "--points": (("2", "5", "9"), ("1", "0", "-3", "1e3", "x")),
    "--starts": (("4 4", "5 4"), ("2 2", "4 x")),
    "--range": (("-0.01 0.01", "-5e-6 5e-6", "0 0.05"),
                ("0.01 -0.01", "0 0", "nan 1", "-inf 0", "-1e308 1e308",
                 "0 1e308", "1 x")),
    "figure_id": (("2a", "3a", "4b", "5a"), ("9z",)),
}
VALUES["--delta-range"] = VALUES["--lambda-range"] = VALUES["--range"]
# per subcommand: the flags and positionals that an argv may give
COMMANDS = {
    "g2": ("--preset", "--delta", "--lambda", "--J", "--g", "--cutoff",
           "--method", "--cavity"),
    "sweep": ("--preset", "--delta", "--lambda", "--J", "--g", "--cutoff",
              "--axis", "--range", "--points", "--method", "--cavity",
              "--flip-axis", "--out"),
    "optimize": ("--preset", "--delta", "--lambda", "--J", "--g", "--cutoff",
                 "--delta-range", "--lambda-range", "--starts",
                 "--keep-uncertified", "--out"),
    "figure": ("figure_id", "--out", "--points", "--cutoff"),
    "params": ("--preset", "--delta", "--lambda", "--J", "--g", "--cutoff"),
}
# the chance that an argv gives a flag, 1/2 unless named here; the default
# of --points (401 figure points, 0.5 s a figure) would cost the most
CHANCE = {"--points": 1.0, **dict.fromkeys(
    ("--preset", "figure_id", "--range", "--out", "--starts"), 0.9)}
OUT = {"sweep": "s.csv", "optimize": "o.json", "figure": "fig"}


def _argv(rng, outdir):
    """One argv for a random subcommand; each value is a good one with
    chance 3/4, else a bad one."""
    command = tuple(COMMANDS)[rng.integers(len(COMMANDS))]
    argv = [command]
    for flag in COMMANDS[command]:
        if rng.random() >= CHANCE.get(flag, 0.5):
            continue
        if flag in ("--flip-axis", "--keep-uncertified"):
            argv.append(flag)
        elif flag == "--out":
            argv += [flag, os.path.join(outdir, OUT[command])]
        else:
            values = VALUES[flag][0 if rng.random() < 0.75 else 1]
            value = values[rng.integers(len(values))].split()
            argv += value if flag == "figure_id" else [flag, *value]
    return argv


def test_cli_fuzz(tmp_path, capsys):
    # exit 0, 1 or 2; no traceback on stderr; no file after a failure
    rng = np.random.default_rng(SEED)
    codes = []
    for i in range(N_ARGV):
        outdir = tmp_path / str(i)
        outdir.mkdir()
        argv = _argv(rng, str(outdir))
        try:
            code = cli_main(argv)
        except Exception as exc:            # name the argv that raised
            pytest.fail("%r raised %r" % (argv, exc))
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code:
            left = [f for _, _, files in os.walk(outdir) for f in files]
            assert not left, (argv, left)
        codes.append(code)
    # the grammar reaches every outcome
    assert set(codes) == {0, 1, 2}
