"""Write the pinned outputs that tests/test_reference_outputs.py checks.

    PYTHONPATH=src python tests/make_reference_outputs.py \
        > tests/reference_outputs.json

Runs ``blockade figure 2a ... 5b`` at 401 points and ``blockade optimize
--preset weak|strong --cavity 1|2``, and records every EVERY-th row of the
24 figure curves, the least value of each g2 column of each curve with its
axis value, and the four optimal-pair lists, with the commit and this
command.
"""

import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

from blockade.cli import cli_main
from blockade.sweep import FIGURE_IDS

EVERY = 20
COMMAND = ("PYTHONPATH=src python tests/make_reference_outputs.py "
           "> tests/reference_outputs.json")


def _cell(text):
    """A CSV cell as a float, or as the string it is (err:..., empty)."""
    try:
        return float(text)
    except ValueError:
        return text


def collect(outdir) -> dict:
    """The pinned outputs, from CLI runs that write into outdir."""
    figures = {}
    with open(os.devnull, "w") as null, redirect_stdout(null):
        for fid in FIGURE_IDS:
            assert cli_main(["figure", fid, "--out", outdir]) == 0
        for preset in ("weak", "strong"):
            for cavity in ("1", "2"):
                assert cli_main(["optimize", "--preset", preset, "--cavity",
                                 cavity, "--out", os.path.join(
                                     outdir, "%s_%s.json" % (preset, cavity))
                                 ]) == 0
    for name in sorted(os.listdir(outdir)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(outdir, name), newline="") as fh:
            header, *rows = csv.reader(fh)
        rows = [[_cell(c) for c in row] for row in rows]
        least = {}
        for k, column in enumerate(header):
            values = [(row[k], row[0]) for row in rows
                      if column.startswith("g2_") and type(row[k]) is float]
            if values:
                least[column] = list(min(values))[::-1]     # [axis, g2]
        figures[name] = {"rows": rows[::EVERY], "least_g2": least}
    optimize = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".json") and "_metadata" not in name:
            with open(os.path.join(outdir, name)) as fh:
                optimize[name[:-5]] = json.load(fh)
    return {"columns": header, "every": EVERY, "figures": figures,
            "optimize": optimize}


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                         capture_output=True).stdout.strip()
    with tempfile.TemporaryDirectory() as outdir:
        data = {"sha": sha, "command": COMMAND, **collect(outdir)}
    # one line per innermost list: a row of cells, an [axis, g2] pair
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(data, indent=1))
    sys.stdout.write(text + "\n")


if __name__ == "__main__":
    main()
