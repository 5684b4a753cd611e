"""Least-action analytical model of the infinite collection game (§II, §IV).

The paper treats the infinite, roundwise-repeated collection game as a
mechanical system: the utility trajectories ``u_a(r)``, ``u_c(r)`` of
adversary and collector are generalized coordinates, the round index ``r``
plays the role of time, and the system evolves along the path that makes
the action ``S = ∫ L(u, u̇, r) dr`` stationary (Axiom 1).  The
Euler–Lagrange equations (Lemma 2) then govern the dynamics.

This module provides:

* a :class:`Lagrangian` protocol plus the concrete Lagrangians used in the
  paper — the free equilibrium Lagrangian ``Σ m u̇²/2`` (Theorems 1–2) and
  interacting Lagrangians with the Tit-for-tat hard-wall and Elastic
  spring interaction terms (§V, Definition 2);
* a discretized action functional and numerical Euler–Lagrange residuals,
  so analytic solutions can be *verified* variationally;
* a least-action boundary-value solver that minimizes the discretized
  action directly, used in tests to confirm e.g. that the free system's
  stationary path has constant generalized velocity (Theorem 1).

Sign convention: we use the standard mechanics form ``L = kinetic - U``
(the paper's Eq. 9 writes ``+U`` but derives oscillator equations that
correspond to the standard convention; see DESIGN.md §4).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .arrays import Array, ArrayLike

__all__ = [
    "FreeLagrangian",
    "ElasticLagrangian",
    "TitForTatLagrangian",
    "action",
    "euler_lagrange_residual",
    "least_action_path",
]


class _TwoBodyLagrangian:
    """Shared machinery for two-coordinate Lagrangians ``L(u, u̇)``.

    Subclasses implement :meth:`potential`; kinetic energy is always
    ``m_a u̇_a²/2 + m_c u̇_c²/2`` with the factor mandated by Theorem 2.
    """

    def __init__(self, mass_adversary: float = 1.0, mass_collector: float = 1.0):
        if mass_adversary <= 0.0 or mass_collector <= 0.0:
            raise ValueError("the intrinsic factors m_a, m_c must be positive")
        self.mass_adversary = float(mass_adversary)
        self.mass_collector = float(mass_collector)

    def kinetic(self, du: Array) -> Array:
        """Kinetic term ``m_a u̇_a²/2 + m_c u̇_c²/2`` (Theorem 2)."""
        du = np.atleast_2d(du)
        return 0.5 * (
            self.mass_adversary * du[..., 0] ** 2
            + self.mass_collector * du[..., 1] ** 2
        )

    def potential(self, u: Array) -> Array:
        """Interaction term ``U(u_a, u_c)``; zero for the free system."""
        raise NotImplementedError

    def __call__(
        self, u: ArrayLike, du: ArrayLike, r: float = 0.0
    ) -> Array:
        """Evaluate ``L = kinetic - U`` at coordinates/velocities.

        ``u`` and ``du`` have shape ``(..., 2)`` with the adversary in
        component 0 and the collector in component 1.  The Lagrangian is
        autonomous (no explicit ``r`` dependence — the translation
        invariance used to prove Theorem 1), but ``r`` is accepted for
        interface uniformity.  Scalar (1-D) inputs yield a scalar.
        """
        u = np.asarray(u, dtype=float)
        du = np.asarray(du, dtype=float)
        value = self.kinetic(du) - self.potential(u)
        if u.ndim == 1:
            return float(value[0])
        return value

    def energy(self, u: ArrayLike, du: ArrayLike) -> Array:
        """Conserved energy ``kinetic + U`` of the autonomous system."""
        u = np.asarray(u, dtype=float)
        du = np.asarray(du, dtype=float)
        value = self.kinetic(du) + self.potential(u)
        if u.ndim == 1:
            return float(value[0])
        return value


class FreeLagrangian(_TwoBodyLagrangian):
    """Equilibrium-state Lagrangian ``L = m_a u̇_a²/2 + m_c u̇_c²/2``.

    Lemma 3 + Theorems 1–2: at a Stackelberg equilibrium the parties evolve
    independently (additive Lagrangian, no interaction), uniformity of the
    game in ``r`` and ``u`` forces ``L = L(u̇²)``, and the stationary paths
    have constant generalized velocities ``u̇ = const``.
    """

    def potential(self, u: Array) -> Array:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return np.zeros(u.shape[:-1])


class ElasticLagrangian(_TwoBodyLagrangian):
    """Elastic-strategy Lagrangian with ``U = k (u_a - u_c)² / 2``.

    Definition 2: the elastic trigger responds to utility deviation with a
    restoring force proportional to the deviation — a spring of stiffness
    ``k`` coupling the two utilities.  Theorem 4: the relative utility then
    oscillates harmonically in ``r`` (see :mod:`repro.core.oscillator`).
    """

    def __init__(
        self,
        stiffness: float,
        mass_adversary: float = 1.0,
        mass_collector: float = 1.0,
    ):
        super().__init__(mass_adversary, mass_collector)
        if stiffness <= 0.0:
            raise ValueError("spring stiffness k must be positive")
        self.stiffness = float(stiffness)

    def potential(self, u: Array) -> Array:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return 0.5 * self.stiffness * (u[..., 0] - u[..., 1]) ** 2

    def forces(self, u: ArrayLike) -> Array:
        """Restoring forces ``(-∂U/∂u_a, -∂U/∂u_c)`` pulling utilities together."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        rel = u[..., 0] - u[..., 1]
        return np.stack([-self.stiffness * rel, self.stiffness * rel], axis=-1)


class TitForTatLagrangian(_TwoBodyLagrangian):
    """Tit-for-tat hard-wall Lagrangian: ``U = 0`` iff utilities agree.

    §V-A: the rigid trigger permanently terminates cooperation on any
    betrayal, modeled as an infinite potential wall outside the
    cooperation corridor ``|u_a - u_c| <= tolerance``.  A finite ``wall``
    height keeps the functional numerically usable; tests verify the wall
    dominates any kinetic saving for paths leaving the corridor.
    """

    def __init__(
        self,
        tolerance: float = 1e-6,
        wall: float = 1e12,
        mass_adversary: float = 1.0,
        mass_collector: float = 1.0,
    ):
        super().__init__(mass_adversary, mass_collector)
        if tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        if wall <= 0.0:
            raise ValueError("wall height must be positive")
        self.tolerance = float(tolerance)
        self.wall = float(wall)

    def potential(self, u: Array) -> Array:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        gap = np.abs(u[..., 0] - u[..., 1])
        return np.where(gap <= self.tolerance, 0.0, self.wall)


# ---------------------------------------------------------------------- #
# discretized variational calculus
# ---------------------------------------------------------------------- #
def action(lagrangian: _TwoBodyLagrangian, path: ArrayLike, dr: float) -> float:
    """Discretized action ``S = ∫ L dr`` along a sampled path.

    ``path`` has shape ``(n, 2)``; velocities are midpoint finite
    differences and the Lagrangian is evaluated at segment midpoints —
    the standard first-order variational integrator, accurate enough for
    the qualitative verifications the tests perform.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[0] < 2 or path.shape[1] != 2:
        raise ValueError("path must have shape (n >= 2, 2)")
    if dr <= 0.0:
        raise ValueError("dr must be positive")
    mid = 0.5 * (path[1:] + path[:-1])
    vel = (path[1:] - path[:-1]) / dr
    values = lagrangian(mid, vel)
    return float(np.sum(values) * dr)


def euler_lagrange_residual(
    lagrangian: _TwoBodyLagrangian,
    path: ArrayLike,
    dr: float,
    eps: float = 1e-6,
) -> Array:
    """Numerical Euler–Lagrange residual ``∂L/∂u - d/dr (∂L/∂u̇)``.

    Evaluated at the interior nodes of a sampled path with central
    differences; an exact stationary path yields residuals that vanish as
    the discretization is refined (Lemma 1 / Lemma 2).  Returns an array
    of shape ``(n - 2, 2)``.
    """
    path = np.asarray(path, dtype=float)
    n = path.shape[0]
    if n < 3:
        raise ValueError("need at least three nodes for interior residuals")

    def dL_du(u: Array, du: Array) -> Array:
        out = np.empty(2)
        for i in range(2):
            up, down = u.copy(), u.copy()
            up[i] += eps
            down[i] -= eps
            out[i] = (lagrangian(up, du) - lagrangian(down, du)) / (2 * eps)
        return out

    def dL_ddu(u: Array, du: Array) -> Array:
        out = np.empty(2)
        for i in range(2):
            up, down = du.copy(), du.copy()
            up[i] += eps
            down[i] -= eps
            out[i] = (lagrangian(u, up) - lagrangian(u, down)) / (2 * eps)
        return out

    residuals = np.empty((n - 2, 2))
    for idx in range(1, n - 1):
        u = path[idx]
        vel_c = (path[idx + 1] - path[idx - 1]) / (2 * dr)
        # momentum p = dL/du̇ at the two half-steps around node idx
        vel_plus = (path[idx + 1] - path[idx]) / dr
        vel_minus = (path[idx] - path[idx - 1]) / dr
        u_plus = 0.5 * (path[idx + 1] + path[idx])
        u_minus = 0.5 * (path[idx] + path[idx - 1])
        p_plus = dL_ddu(u_plus, vel_plus)
        p_minus = dL_ddu(u_minus, vel_minus)
        residuals[idx - 1] = dL_du(u, vel_c) - (p_plus - p_minus) / dr
    return residuals


def least_action_path(
    lagrangian: _TwoBodyLagrangian,
    start: Tuple[float, float],
    end: Tuple[float, float],
    nodes: int = 33,
    dr: float = 1.0,
) -> Array:
    """Numerically minimize the discretized action between fixed endpoints.

    Interior nodes are free optimization variables; the initial guess is
    the straight line between the boundary conditions.  Returns the full
    stationary path of shape ``(nodes, 2)``.

    This is the computational embodiment of the least-action principle
    (Eq. 1 / Eq. 3): for :class:`FreeLagrangian` the result is the straight
    line (``u̇ = const``, Theorem 1); for :class:`ElasticLagrangian` it
    bends toward the oscillator solution of Theorem 4.
    """
    if nodes < 3:
        raise ValueError("need at least three nodes")
    start_arr = np.asarray(start, dtype=float)
    end_arr = np.asarray(end, dtype=float)
    if start_arr.shape != (2,) or end_arr.shape != (2,):
        raise ValueError("boundary conditions must be coordinate pairs")

    line = np.linspace(start_arr, end_arr, nodes)

    def objective(flat_interior: Array) -> float:
        path = np.vstack(
            [start_arr, flat_interior.reshape(nodes - 2, 2), end_arr]
        )
        return action(lagrangian, path, dr)

    from scipy.optimize import minimize  # imported where used, as in core.game

    result = minimize(
        objective,
        line[1:-1].ravel(),
        method="L-BFGS-B",
        options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-12},
    )
    interior = result.x.reshape(nodes - 2, 2)
    return np.vstack([start_arr, interior, end_arr])
