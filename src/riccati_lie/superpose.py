"""First integrals on four phase-plane copies and the superposition rule.

Both are affine algebra in the chart xi = (u, sigma) = (x sqrt(-p), sqrt(-p))
of the half-plane O, where `liealg.act` is affine.  The three conserved
quantities, in (x, p) the paper's cyclic sums (xa-xb) sa sb + (xb-xc) sb sc
+ (xc-xa) sc sa with s = sqrt(-p), are twice signed triangle areas:

    F0 = det(xi2 - xi1, xi3 - xi1)     (copies 1..3)
    F1 = det(xi1 - xi0, xi2 - xi0)     (copies 0, 1, 2)
    F2 = det(xi1 - xi0, xi3 - xi0)     (copies 0, 1, 3)

Setting F1 = k1 and F2 = k2 and solving for copy 0 yields the rule that
`superpose_states` applies to arrays, an affine combination of the known copies

    xi0 = xi1 + (k1/F0)(xi3 - xi1) - (k2/F0)(xi2 - xi1),  (x0, p0) = (u0/sigma0, -sigma0^2),

valid where F0 stays away from zero and sigma0 > 0.  The paper's x0 divides
by k1 (s1 - s3) + k2 (s2 - s1) - s1 F0 = -F0 sigma0, which needs no guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BranchError, DomainError, GenericityError, NumericError
from .integrator import Trajectory, sample_at
from .model import PhasePoint, _from_affine, _momentum_root, _to_affine

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


def _area(xa, xb, xc):
    """det(xb - xa, xc - xa) of three chart points (u, sigma); inf or NaN where it overflows."""
    (ua, sa), (ub, sb), (uc, sc) = xa, xb, xc
    with np.errstate(over="ignore", invalid="ignore"):
        return (ub - ua) * (sc - sa) - (sb - sa) * (uc - ua)


def cyclic_integral(a, b, c) -> float:
    """det(xi_b - xi_a, xi_c - xi_a) over the chart points xi = (u, sigma) of
    the (x, p) points a, b, c; DomainError for a p >= 0.  The first integrals
    are F0 = cyclic_integral(xi1, xi2, xi3), F1 = cyclic_integral(xi0, xi1,
    xi2) and F2 = cyclic_integral(xi0, xi1, xi3)."""
    return _area(_to_affine(*a), _to_affine(*b), _to_affine(*c))


def constants_from_four(tup: PhaseTuple) -> Constants:
    """Extract (k1, k2, F0) from a full four-copy configuration: four (x, p)
    pairs of floats, or of arrays of one shape, which give arrays of constants."""
    xi0, xi1, xi2, xi3 = (_to_affine(*copy) for copy in tup)
    return Constants(k1=_area(xi0, xi1, xi2), k2=_area(xi0, xi1, xi3), F0=_area(xi1, xi2, xi3))


def superpose_states(states, k: Constants, ts=None) -> np.ndarray:
    """Reconstruct copy 0 from rows x1, p1, x2, p2, x3, p3 of three solutions.

    states is one such row (returns one (x0, p0)) or an (N, 6) array of
    them (returns an (N, 2) array); each constant in k is a number or one
    per row.  A momentum p >= 0 raises DomainError, a constant that is not
    finite NumericError; then, with eps_gen 1e-12 times each row's magnitude
    scale, GenericityError when |F0| <= eps_gen, BranchError when sigma0, the
    sqrt(-p0) bracket, is not positive, and NumericError when (x0, p0)
    overflows.  The first offending row raises; with the row times ts given,
    the message names its time.
    """
    cols = np.asarray(states, dtype=float).T  # a single row unpacks to scalars, which is fast
    x, p = cols[0::2], cols[1::2]
    on_plane = p < 0
    # a copy off O gets sigma = 1, not a sqrt of a negative; the momentum check reports it
    (u1, s1), (u2, s2), (u3, s3) = map(_to_affine, x, np.where(on_plane, p, -1.0))
    # fmax, unlike maximum, passes over NaN magnitudes
    eps_gen = _GENERICITY_REL * np.fmax.reduce(np.abs(np.broadcast_arrays(*x, s1, s2, s3, k.k1, k.k2)),
                                               initial=1.0)
    # F0 == 0 trips the F0 guard on its rows, so the NaN weights there are never used
    F0 = np.where(k.F0, k.F0, np.nan)
    k1_F0, k2_F0 = k.k1 / F0, k.k2 / F0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # rows left NaN or inf are faults
        u0 = u1 + k1_F0 * (u3 - u1) - k2_F0 * (u2 - u1)
        sigma0 = s1 + k1_F0 * (s3 - s1) - k2_F0 * (s2 - s1)
        x0, p0 = _from_affine(u0, sigma0)
    finite = np.isfinite(np.broadcast_arrays(k.k1, k.k2, k.F0, x0, p0)).all(axis=0)
    fault = ~(on_plane.all(axis=0) & finite & (abs(k.F0) > eps_gen) & (sigma0 > 0.0))
    if np.count_nonzero(fault):
        row = int(np.argmax(fault))

        def at(v):
            return np.broadcast_to(v, np.shape(fault)).flat[row]

        where = "" if ts is None else f"at t={ts[row]}: "
        try:
            for p_copy in p:
                _momentum_root(at(p_copy))
        except DomainError as exc:
            raise DomainError(where + str(exc)) from exc
        if not np.isfinite([at(k.k1), at(k.k2), at(k.F0)]).all():
            raise NumericError(f"{where}the constants overflow: k1={at(k.k1)}, k2={at(k.k2)}, F0={at(k.F0)}")
        if abs(at(k.F0)) <= at(eps_gen):
            raise GenericityError(f"{where}degenerate configuration: |F0|={abs(at(k.F0))} <= {at(eps_gen)}")
        if not at(sigma0) > 0.0:
            raise BranchError(f"{where}no p<0 reconstruction: sqrt(-p0) bracket = {at(sigma0)} <= 0")
        raise NumericError(f"{where}the reconstruction overflows as (x0, p0)")
    return np.array((x0, p0)).T


def superpose_point(xi1, xi2, xi3, k: Constants) -> PhasePoint:
    """Reconstruct copy 0 from three phase points and the constants
    (one row of `superpose_states`, with its guards and errors)."""
    x0, p0 = superpose_states((*xi1, *xi2, *xi3), k)
    return PhasePoint(float(x0), float(p0))


def superpose_trajectory(traj1, traj2, traj3, k: Constants, grid) -> Trajectory:
    """Apply the reconstruction at every grid time.

    The three trajectories must cover the grid; errors name the first
    offending time.  The result carries the grid times and the
    reconstructed (x0, p0) states, as lists like every `Trajectory`'s; the
    x-only view is the first of each state.
    """
    grid = np.array(grid, dtype=float)
    sols = np.hstack([sample_at(traj, grid) for traj in (traj1, traj2, traj3)])
    x0, p0 = superpose_states(sols, k, ts=grid).T
    return Trajectory(ts=grid.tolist(), states=list(zip(x0.tolist(), p0.tolist())), system="superposed")
