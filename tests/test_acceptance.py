"""The acceptance gate: one test per criterion in the registry, each
printing its PASS line with the summary the criterion reports."""

import pytest

from espider.acceptance import CRITERIA, criterion_name


@pytest.mark.parametrize(
    "number, check",
    [pytest.param(number, check, id=f"{number:02d}_{criterion_name(check)}")
     for number, check in enumerate(CRITERIA, 1)])
def test_acceptance(number, check):
    summary = check()
    print(f"PASS {number:2d} {criterion_name(check)}: {summary}")
