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
