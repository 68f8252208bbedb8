"""Every subcommand's default output in every format, against golden files.

``tests/golden/<subcommand>.<csv|md|json>`` hold the stdout of
``kmiter <subcommand> --format <csv|markdown|json>`` as printed while grid
ingestion still used dense sine matrices.  CSV and markdown must match
byte for byte.  JSON prints full precision, and the FFT-based transforms
sum in another order, so numbers there may differ by
``|a - b| <= 1e-11 |a| + 1e-15``; everything else must be equal.
"""

import json
import math
from pathlib import Path

import pytest

from kmiter.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SUBCOMMANDS = (
    "elliptic",
    "hyperbolic",
    "parabolic",
    "table2",
    "table1",
    "regularize",
    "demo-illposed",
)
EXTENSIONS = {"csv": "csv", "markdown": "md", "json": "json"}
REL_TOL = 1e-11
ABS_TOL = 1e-15


def run(capsys, command, fmt):
    code = main([command, "--format", fmt])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return out


def json_mismatches(want, got, path="$"):
    """Paths where ``got`` leaves the tolerance around ``want``."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want for m in json_mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [
            m for i, (a, b) in enumerate(zip(want, got)) for m in json_mismatches(a, b, f"{path}[{i}]")
        ]
    if isinstance(want, float) and isinstance(got, float):
        if want == got or (math.isnan(want) and math.isnan(got)):
            return []
        if math.isfinite(want) and abs(want - got) <= REL_TOL * abs(want) + ABS_TOL:
            return []
        return [f"{path}: {want!r} != {got!r}"]
    if type(want) is not type(got) or want != got:
        return [f"{path}: {want!r} != {got!r}"]
    return []


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_text_formats_byte_identical(capsys, command, fmt):
    want = (GOLDEN / f"{command}.{EXTENSIONS[fmt]}").read_text()
    assert run(capsys, command, fmt) == want


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_json_within_tolerance(capsys, command):
    want = json.loads((GOLDEN / f"{command}.json").read_text())
    got = json.loads(run(capsys, command, "json"))
    assert json_mismatches(want, got) == []


def test_json_tolerance_is_tight():
    assert json_mismatches({"a": [1.0, 2.0]}, {"a": [1.0, 2.0 * (1 + 5e-12)]}) == []
    assert json_mismatches({"a": [1.0, 2.0]}, {"a": [1.0, 2.0 * (1 + 2e-11)]}) != []
    assert json_mismatches({"a": 1e-16}, {"a": -1e-16}) == []
    assert json_mismatches({"a": 1}, {"a": 1.0}) != []
    assert json_mismatches({"a": "x"}, {"b": "x"}) != []
    assert json_mismatches([float("nan")], [float("nan")]) == []
    assert json_mismatches([float("inf")], [1.0]) != []
