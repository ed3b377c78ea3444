import sys

import pytest


@pytest.fixture
def law_solves(monkeypatch):
    """A list that grows by one entry per grid law solve (``solver._law``):
    True for a solve under a policy's drift, False for pure diffusion."""
    from gmfg import solver

    real = solver._law
    solves = []

    def law(problem, drift=None):
        solves.append(drift is not None)
        return real(problem, drift)

    monkeypatch.setattr(solver, "_law", law)
    return solves


def pytest_terminal_summary(terminalreporter):
    for name, module in sys.modules.items():
        if name.endswith("test_acceptance"):
            lines = getattr(module, "CRITERION_LINES", [])
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            break
