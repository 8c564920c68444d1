"""The figure datasets and optimal pairs stay as pinned in
reference_outputs.json (see make_reference_outputs.py for how it was made):
amplitude-hierarchy cells to 1e-12 relative, master-equation cells to 1e-9.
"""

import json
import math
import os

from make_reference_outputs import collect

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference_outputs.json")
# cells of the master-equation solve; the rest come from the hierarchy
ME_FIELDS = {"g2_1_me", "g2_2_me", "n1", "n2", "g2_check"}


def _same(got, want, field):
    if isinstance(want, str):
        return got == want
    tol = 1e-9 if field in ME_FIELDS else 1e-12
    return type(got) is float and math.isclose(got, want, rel_tol=tol,
                                               abs_tol=0.0)


def test_outputs_match_the_pinned_reference(tmp_path):
    with open(REFERENCE) as fh:
        want = json.load(fh)
    got = collect(str(tmp_path))
    columns = want["columns"]
    assert got["columns"] == columns and got["every"] == want["every"]
    assert sorted(got["figures"]) == sorted(want["figures"])
    assert len(want["figures"]) == 24
    bad = []
    for name, curve in want["figures"].items():
        rows = got["figures"][name]["rows"]
        assert len(rows) == len(curve["rows"]) == 21, name
        for k, (row, ref) in enumerate(zip(rows, curve["rows"])):
            bad += [(name, k * want["every"], f, g, w) for f, g, w in
                    zip(columns, row, ref) if not _same(g, w, f)]
        least = got["figures"][name]["least_g2"]
        assert sorted(least) == sorted(curve["least_g2"]), name
        for field, (axis, g2) in curve["least_g2"].items():
            if not (_same(least[field][0], axis, "axis_value")
                    and _same(least[field][1], g2, field)):
                bad.append((name, "least", field, least[field], [axis, g2]))
    assert sorted(got["optimize"]) == sorted(want["optimize"])
    for search, pairs in want["optimize"].items():
        assert len(got["optimize"][search]) == len(pairs), search
        for pair, ref in zip(got["optimize"][search], pairs):
            bad += [(search, f, pair[f], w) for f, w in ref.items()
                    if not (_same(pair[f], w, f) if isinstance(w, float)
                            else pair[f] == w)]
    assert not bad, bad[:10]
