"""Shared fixtures.

Scenario solves are the expensive part of the suite, so they are computed
once per session and handed out by name.
"""
import numpy as np
import pytest

import garzfv
from garzfv import iteration


class HumpModel(garzfv.VelocityModel):
    """Non-Greenshields closure with strictly concave density flux,
    V = u (1 - rho)(1 + a rho) / (1 + a), with analytic derivatives."""

    name = "hump"

    def __init__(self, a=0.3):
        self.a = a

    def velocity(self, rho, u):
        return u * (1.0 - rho) * (1.0 + self.a * rho) / (1.0 + self.a)

    def d_rho(self, rho, u):
        return u * (self.a - 1.0 - 2 * self.a * rho) / (1.0 + self.a)

    def d_u(self, rho, u):
        return (1.0 - rho) * (1.0 + self.a * rho) / (1.0 + self.a)

    def d_u_rho(self, rho, u):
        return (self.a - 1.0 - 2 * self.a * rho) / (1.0 + self.a)

    def d_uu(self, rho, u):
        return np.zeros(np.broadcast(rho, u).shape)


@pytest.fixture
def hump_model():
    """The concave-hump closure with a = 0.3."""
    return HumpModel(0.3)


@pytest.fixture
def no_march(monkeypatch):
    """Fail the test if any Picard march runs: for checks that must reject
    their input before solving anything."""
    def march(*args):
        raise AssertionError("a march ran")

    monkeypatch.setattr(iteration, "_march_slab", march)


@pytest.fixture(scope="session")
def solved():
    """name -> (Scenario, Trajectory), cached across the whole session."""
    cache = {}

    def run(name: str):
        if name not in cache:
            sc = garzfv.scenario(name)
            traj = garzfv.solve_global(sc.data, sc.grid, sc.t_final,
                                       sc.model())
            cache[name] = (sc, traj)
        return cache[name]

    return run


@pytest.fixture(scope="session")
def audited(solved):
    """name -> (Scenario, Trajectory, RunReport), cached."""
    cache = {}

    def run(name: str):
        if name not in cache:
            sc, traj = solved(name)
            cache[name] = (sc, traj, garzfv.audit_trajectory(traj))
        return cache[name]

    return run
