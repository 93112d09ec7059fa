import sys
from pathlib import Path

import hypothesis
import pytest

# allow running from a fresh checkout without installing the package
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

hypothesis.settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("suite")


class SolverWork:
    """What ``microsympl.micro`` ran through the filtered solver and
    ``substitute_many``: solve calls, updates, substitution batches and the
    polynomials in them, and each solve as (initial, update, result)."""

    def __init__(self):
        self.calls = self.updates = self.batches = self.polys = 0
        self.solves = []


@pytest.fixture
def solver_work(monkeypatch):
    """Count the filtered solves and substitution batches of ``micro``."""
    from microsympl import micro
    work = SolverWork()
    solve, substitute = micro.solve_triangular_fixed_point, micro.substitute_many

    def counted_solve(initial, update):
        work.calls += 1

        def counted_update(state):
            work.updates += 1
            return update(state)
        result = solve(initial, counted_update)
        work.solves.append((tuple(initial), update, result))
        return result

    def counted_substitute(polys, *args):
        work.batches += 1
        work.polys += len(polys)
        return substitute(polys, *args)

    monkeypatch.setattr(micro, "solve_triangular_fixed_point", counted_solve)
    monkeypatch.setattr(micro, "substitute_many", counted_substitute)
    return work
