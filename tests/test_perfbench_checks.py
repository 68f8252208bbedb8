"""The benchmark's own correctness checks, run as tests.

``perfbench/workloads.py`` checks every op against a recomputation that does
not go through the kmiter function under test (for ``schedule``: stepwise vs
closed form vs an expm1/log1p closed form up to k = 1e9).  Running two ops of
each in-process workload here, at the benchmark's own sizes and under the
suite's ``error::RuntimeWarning`` filter, makes those checks part of the test
suite.  ``cli`` is left out: it starts a ``python -m kmiter`` process per op,
and ``tests/test_golden.py`` covers its outputs.
"""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in the checkout
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@pytest.mark.parametrize("name", ["cutoff", "schedule", "io"])
def test_two_ops_pass_their_checks(workloads, name, tmp_path):
    cls = workloads.WORKLOADS[name]
    workload = cls(seed=3, n=cls.N, scratch=str(tmp_path), call=call)
    for i in range(2):
        x = workload.draw(i)
        figures = workload.check(x, workload.op(x, call))  # raises CheckFailed on a mismatch
        assert isinstance(figures, dict)
        if name == "cutoff":
            assert figures["err_ratio"] >= 1.0
