import numpy as np
import pytest

from zerorate.polytope import Polytope


@pytest.mark.xfail(strict=True, reason="Dykstra stops when its iterate stalls for one sweep "
                   "while its corrections still change, and returns an infeasible point")
def test_project_returns_feasible_point():
    a = np.array([[1.0, 1.0, 1.0, 1.0], [1.1, -0.1, -0.3, 1.6], [-1.3, -0.6, -0.5, 0.6]])
    b = a @ np.array([0.11, 0.1, 0.37, 0.42])
    cost = np.array([0.1, 0.5, 0.7, 0.2])
    gamma = 0.45
    y = Polytope(a, b, cost, gamma).project(np.array([-3.8, -1.3, 4.5, 0.8]))
    assert np.abs(a @ y - b).max() <= 1e-9
    assert cost @ y <= gamma + 1e-9
