"""verify's case counts against the contract the benchmark checks them by."""

import importlib.util
from pathlib import Path

import pytest

from hyperfib.verify import verify_all

ORACLE = Path(__file__).resolve().parent.parent / "benchmark" / "oracle.py"


def _load_oracle():
    # by path, under its own name, so nothing here depends on sys.path
    spec = importlib.util.spec_from_file_location("benchmark_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


@pytest.mark.parametrize("r_max", [1, 2, 5])
@pytest.mark.parametrize("n_min, n_max", [(0, 0), (-7, -3), (-4, 6), (30, 41)])
def test_cases_match_the_benchmark_oracle(r_max, n_min, n_max):
    reports = verify_all(r_max, n_min, n_max)
    assert [rep.suite for rep in reports] == list(oracle.SUITES)
    assert {rep.suite: rep.cases for rep in reports} == oracle.verify_cases(r_max, n_min, n_max)
    assert all(rep.passed for rep in reports)
