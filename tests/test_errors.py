"""Typed errors keep their class and attributes through pickling."""

import pickle

import pytest

from dysonmap import (
    DivergenceError,
    IllConditionedError,
    ScenarioInvalidError,
    StepSizeError,
)
from dysonmap import CheckOutcome, ValidationReport

REPORT = ValidationReport(
    checks={"iii": CheckOutcome("(iii)", False, 0.25, None, "ratio time-independent")},
    gamma0=-0.2j,
    lambda0=0j,
)


@pytest.mark.parametrize(
    "exc, attrs",
    [
        (StepSizeError("step guard", recommended_steps=1416), {"recommended_steps": 1416}),
        (IllConditionedError("rcond", rcond=1e-14, t=0.5), {"rcond": 1e-14, "t": 0.5}),
        (DivergenceError("non-finite", t=2.5), {"t": 2.5}),
        (
            ScenarioInvalidError("constraints", failed_checks=("iii",), report=REPORT),
            {"failed_checks": ("iii",), "report": REPORT},
        ),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else "",
)
def test_pickle_round_trip(exc, attrs):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    for name, value in attrs.items():
        assert getattr(back, name) == value
