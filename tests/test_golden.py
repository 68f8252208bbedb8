"""Every subcommand's default output in every format, against golden files.

``tests/golden/<name>.<csv|md|json>`` hold the stdout of
``kmiter <argv> --format <csv|markdown|json>`` for each case in ``CASES``:
every subcommand of the parser at its defaults, plus the parabolic
``demo-illposed``, whose rows overflow, the hyperbolic one, which takes
the sup-type trajectory norm, and a noisy ``regularize`` with a seed.  The
subcommands come from :func:`kmiter.cli.build_parser` and the formats from
``kmiter.bench.FORMATS``, so a new subcommand or format fails here until
its golden file exists.
CSV, markdown and any other text format must match byte for byte.  JSON
prints full precision, and the files were captured while grid ingestion
used dense sine matrices and the parabolic reference was rebuilt from the
terminal state, so numbers there may differ by
``|a - b| <= 1e-11 |a| + 1e-15``; everything else must be equal.  The
layout and the digits of each JSON output are pinned instead by comparing
it with ``json.dumps(payload, indent=2)`` of the payload it was rendered
from.
"""

import argparse
import json
import math
from pathlib import Path

import pytest

from kmiter import bench
from kmiter.bench import FORMATS
from kmiter.cli import EXIT_OK, build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXTENSIONS = {"csv": "csv", "markdown": "md", "json": "json"}


def subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return tuple(sub.choices)


CASES = {name: (name,) for name in subcommands()}
CASES["demo-illposed-parabolic"] = ("demo-illposed", "--kind", "parabolic")
CASES["demo-illposed-hyperbolic"] = ("demo-illposed", "--kind", "hyperbolic")
CASES["regularize-noisy"] = ("regularize", "--modes", "64", "--eps", "1e-3", "--seed", "3")
TEXT_FORMATS = [fmt for fmt in FORMATS if fmt != "json"]
REL_TOL = 1e-11
ABS_TOL = 1e-15


def golden(name, fmt):
    return GOLDEN / f"{name}.{EXTENSIONS.get(fmt, fmt)}"


def run(capsys, name, fmt):
    code = main([*CASES[name], "--format", fmt])
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


@pytest.mark.parametrize("fmt", TEXT_FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_text_formats_byte_identical(capsys, name, fmt):
    assert run(capsys, name, fmt) == golden(name, fmt).read_text()


@pytest.mark.parametrize("name", CASES)
def test_json_within_tolerance(capsys, name):
    want = json.loads(golden(name, "json").read_text())
    got = json.loads(run(capsys, name, "json"))
    assert json_mismatches(want, got) == []


@pytest.mark.parametrize("name", CASES)
def test_json_layout_is_json_dumps(capsys, monkeypatch, name):
    payloads = []
    render_rows = bench.render_rows

    def recording(fmt, columns, rows, payload, **kwargs):
        def recorded():
            payloads.append(payload())
            return payloads[-1]

        return render_rows(fmt, columns, rows, recorded, **kwargs)

    monkeypatch.setattr(bench, "render_rows", recording)
    out = run(capsys, name, "json")
    assert len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2) + "\n"


def test_every_golden_file_is_checked():
    checked = {golden(name, fmt).name for name in CASES for fmt in FORMATS}
    assert {p.name for p in GOLDEN.iterdir()} == checked


def test_json_tolerance_is_tight():
    assert json_mismatches({"a": [1.0, 2.0]}, {"a": [1.0, 2.0 * (1 + 5e-12)]}) == []
    assert json_mismatches({"a": [1.0, 2.0]}, {"a": [1.0, 2.0 * (1 + 2e-11)]}) != []
    assert json_mismatches({"a": 1e-16}, {"a": -1e-16}) == []
    assert json_mismatches({"a": 1}, {"a": 1.0}) != []
    assert json_mismatches({"a": "x"}, {"b": "x"}) != []
    assert json_mismatches([float("nan")], [float("nan")]) == []
    assert json_mismatches([float("inf")], [1.0]) != []
