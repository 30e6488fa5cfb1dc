import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def no_full_oracle(monkeypatch):
    """The full flow's RK45 oracle replaced by a function that fails the test:
    the modules that use it mark their tests never to reach it."""
    import cubicnls.quadratic_flow as qf

    def refuse(*args, **kwargs):
        raise AssertionError("integrate_full was called")

    monkeypatch.setattr(qf, "integrate_full", refuse)


@pytest.fixture()
def no_fold(monkeypatch):
    """No closed form has a period, so that reconstruction integrates every
    point over all of [0, tau], as the verbatim references do."""
    from cubicnls.closed_form import ClosedFormSolution

    monkeypatch.setattr(ClosedFormSolution, "_period", property(lambda sol: None))
