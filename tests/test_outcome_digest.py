"""The outcome digests of `outcome_digest.py` that take seconds, against
their pins.  Criterion 6's set (about 20 s) is run by hand."""

import pytest

from outcome_digest import PINS, SETS

FAST_SETS = ("planted", "planted-default", "criterion-4", "linear", "det-identity")


@pytest.mark.parametrize("name", FAST_SETS)
def test_outcomes_match_their_pin(name):
    assert SETS[name]() == PINS[name]
