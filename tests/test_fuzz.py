"""The first inputs of the exit-contract fuzz corpus (see fuzz.py), and its
unwritable-output cases; CI runs the whole corpus with `python tests/fuzz.py`."""

import pytest

import fuzz

CORPUS = fuzz.corpus()
SLICE = CORPUS[:30]
UNWRITABLE = [case for case in CORPUS if case.name.startswith("unwritable-")]


@pytest.mark.parametrize("case", SLICE, ids=[case.name for case in SLICE])
def test_exit_contract(case):
    assert fuzz.run_case(case) == []


@pytest.mark.parametrize("case", UNWRITABLE, ids=[case.name for case in UNWRITABLE])
def test_unwritable_output(case):
    assert fuzz.run_case(case) == []
