import json

import pytest

from output_record import RECORD, compute

# Relative tolerance on the recorded floats.  Another numpy or BLAS build
# may move them in their last digits, and an LM step at the rounding
# floor of the loss may then end one iteration apart; counts, chosen
# dimensions and LM statuses must match exactly.
RTOL = 1e-6


def assert_matches(fresh, committed, where="statistics"):
    if isinstance(committed, dict):
        assert sorted(fresh) == sorted(committed), where
        for key in committed:
            assert_matches(fresh[key], committed[key], f"{where}.{key}")
    elif isinstance(committed, list):
        assert len(fresh) == len(committed), where
        for i, (a, b) in enumerate(zip(fresh, committed)):
            assert_matches(a, b, f"{where}[{i}]")
    elif isinstance(committed, float):
        assert isinstance(fresh, float), where
        assert fresh == pytest.approx(committed, rel=RTOL, abs=0.0), where
    else:
        assert type(fresh) is type(committed) and fresh == committed, where


@pytest.mark.slow
def test_output_record_statistics():
    with open(RECORD, encoding="utf-8") as fh:
        committed = json.load(fh)["statistics"]
    fresh = json.loads(json.dumps(compute()["statistics"]))
    assert_matches(fresh, committed)
