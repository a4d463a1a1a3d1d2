"""The first inputs of the exit-contract fuzz corpus (see fuzz.py); CI runs
the whole corpus with `python tests/fuzz.py`."""

import pytest

import fuzz

SLICE = fuzz.corpus()[:30]


@pytest.mark.parametrize("case", SLICE, ids=[case.name for case in SLICE])
def test_exit_contract(case):
    assert fuzz.run_case(case) == []
