"""First integrals on four phase-plane copies and the superposition rule.

With s_i = sqrt(-p_i), the three conserved quantities are the cyclic sums

    F0 = (x1-x2) s1 s2 + (x2-x3) s2 s3 + (x3-x1) s3 s1     (copies 1..3)
    F1 = same shape over copies (0, 1, 2)
    F2 = same shape over copies (0, 1, 3)

Products sqrt(p_i p_j) are always evaluated as s_i s_j, which fixes the
branch on the half-plane p < 0.  Setting F1 = k1 and F2 = k2 and solving
for copy 0 yields the closed-form reconstruction implemented on arrays by
`superpose_states`; with Gamma(i, j) = s_i x_i - s_j x_j,

    x0 = [k1 G(1,3) + k2 G(2,1) - F0 x1 s1]
         / [k1 (s1 - s3) + k2 (s2 - s1) - s1 F0]
    p0 = -[ (k1/F0)(s3 - s1) + (k2/F0)(s1 - s2) + s1 ]^2

valid on the open set where F0 and the x0 denominator stay away from zero
and the bracketed root is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BranchError, GenericityError, RiccatiLieError
from .integrator import Trajectory, sample_at
from .model import PhasePoint, _momentum_root

__all__ = [
    "PhaseTuple",
    "Constants",
    "cyclic_integral",
    "constants_from_four",
    "superpose_states",
    "superpose_point",
    "superpose_trajectory",
]


# genericity threshold of the reconstruction, relative to a row's magnitude scale
_GENERICITY_REL = 1e-12


class PhaseTuple(NamedTuple):
    """Four phase points; copy 0 is the reconstructed/unknown slot."""

    xi0: PhasePoint
    xi1: PhasePoint
    xi2: PhasePoint
    xi3: PhasePoint


@dataclass(frozen=True)
class Constants:
    """Constant values k1, k2 of F1, F2 plus F0 of the three known copies."""

    k1: float
    k2: float
    F0: float


def cyclic_integral(a, b, c) -> float:
    """(xa - xb) sa sb + (xb - xc) sb sc + (xc - xa) sc sa with s = sqrt(-p).

    The three first integrals are this sum over different copies:
    F0 = cyclic_integral(xi1, xi2, xi3), F1 = cyclic_integral(xi0, xi1, xi2)
    and F2 = cyclic_integral(xi0, xi1, xi3).
    """
    (xa, pa), (xb, pb), (xc, pc) = a, b, c
    sa, sb, sc = _momentum_root(pa), _momentum_root(pb), _momentum_root(pc)
    return (xa - xb) * sa * sb + (xb - xc) * sb * sc + (xc - xa) * sc * sa


def constants_from_four(tup: PhaseTuple) -> Constants:
    """Extract (k1, k2, F0) from a full four-copy configuration."""
    xi0, xi1, xi2, xi3 = tup
    return Constants(
        k1=cyclic_integral(xi0, xi1, xi2),
        k2=cyclic_integral(xi0, xi1, xi3),
        F0=cyclic_integral(xi1, xi2, xi3),
    )


def superpose_states(states, k: Constants, ts=None) -> np.ndarray:
    """Reconstruct copy 0 from rows x1, p1, x2, p2, x3, p3 of three solutions.

    states is one such row (returns one (x0, p0)) or an (N, 6) array of
    them (returns an (N, 2) array).  The genericity threshold eps_gen is
    1e-12 times each row's magnitude scale.  The first
    offending row raises: DomainError for a momentum p >= 0,
    GenericityError when F0 or the x0 denominator is within eps_gen of
    zero, BranchError when the sqrt(-p0) bracket is not positive.  With
    the row times ts given, the message names the time of that row.
    """
    cols = np.asarray(states, dtype=float).T  # a single row unpacks to scalars, which is fast
    x1, p1, x2, p2, x3, p3 = cols
    mag = np.abs(cols)
    mag[1::2] = np.sqrt(mag[1::2])  # sqrt(-p) on every row that passes the momentum check
    s1, s2, s3 = mag[1::2]
    # fmax, unlike maximum, passes over NaN magnitudes
    eps_gen = _GENERICITY_REL * np.fmax.reduce(mag, initial=max(1.0, abs(k.k1), abs(k.k2)))
    num = k.k1 * (s1 * x1 - s3 * x3) + k.k2 * (s2 * x2 - s1 * x1) - k.F0 * x1 * s1
    den = k.k1 * (s1 - s3) + k.k2 * (s2 - s1) - s1 * k.F0
    # F0 == 0 trips the F0 guard on every row, so no bracket is ever used then
    k1_F0, k2_F0 = (k.k1 / k.F0, k.k2 / k.F0) if k.F0 else (np.nan, np.nan)
    bracket = k1_F0 * (s3 - s1) + k2_F0 * (s1 - s2) + s1
    fault = (~(p1 < 0) | ~(p2 < 0) | ~(p3 < 0) | (abs(k.F0) <= eps_gen) | (abs(den) <= eps_gen)
             | ~(bracket > 0.0))
    if np.count_nonzero(fault):
        row = int(np.argmax(fault))

        def at(v):
            return np.broadcast_to(v, np.shape(fault)).flat[row]

        try:
            for p in (p1, p2, p3):
                _momentum_root(at(p))
            eps = at(eps_gen)
            if abs(k.F0) <= eps:
                raise GenericityError(f"degenerate configuration: |F0|={abs(k.F0)} <= {eps}")
            if abs(at(den)) <= eps:
                raise GenericityError(f"degenerate configuration: |x0 denominator|={abs(at(den))} <= {eps}")
            raise BranchError(f"no p<0 reconstruction: sqrt(-p0) bracket = {at(bracket)} <= 0")
        except RiccatiLieError as exc:
            if ts is None:
                raise
            raise type(exc)(f"at t={ts[row]}: {exc}") from exc
    return np.array((num / den, -bracket * bracket)).T


def superpose_point(xi1, xi2, xi3, k: Constants) -> PhasePoint:
    """Reconstruct copy 0 from three phase points and the constants
    (one row of `superpose_states`, with its guards and errors)."""
    x0, p0 = superpose_states((*xi1, *xi2, *xi3), k)
    return PhasePoint(float(x0), float(p0))


def superpose_trajectory(traj1, traj2, traj3, k: Constants, grid) -> Trajectory:
    """Apply the reconstruction at every grid time.

    The three trajectories must cover the grid; errors name the first
    offending time.  The result carries the grid times and the
    reconstructed (x0, p0) states; the x-only view is its first state
    column.
    """
    grid = np.array(grid, dtype=float)
    sols = np.hstack([sample_at(traj, grid) for traj in (traj1, traj2, traj3)])
    states = superpose_states(sols, k, ts=grid)
    return Trajectory(ts=grid, states=states, system="superposed")
