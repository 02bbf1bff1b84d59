"""Adaptive Dormand-Prince 5(4) integration with domain guards.

Explicit embedded Runge-Kutta pair with PI step-size control and the
first-same-as-last property; the derivative stored at every accepted
sample turns the trajectory into a cubic-Hermite dense output.

The step runs on Python floats for two-dimensional states: the state, the
stage states and times, the error norm and the stored samples are floats.
numpy computes only the stage and error sums, as products over the (7, 2)
array of stage derivatives; those products fix the rounding of every step.

A state guard (a predicate on the raw (y0, y1) state tuple) is evaluated at
every trial stage.  When the flow approaches the guarded boundary the step is
bisected until the exit time is localized to about 1e-10, then the domain
exit is reported with the last valid time.  Step-size underflow from
error control (stiffness or finite-time blow-up) is reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GuardViolation, NumericError

__all__ = ["Trajectory", "IntegratorStats", "integrate", "sample_at", "hamiltonian_guard"]

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# 5th-order weights minus the embedded 4th-order ones
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_BETA = 0.04           # PI stabilization exponent
_EXPO = 0.2 - 0.75 * _BETA
_MIN_SHRINK = 0.2
_MAX_GROWTH = 10.0
_GUARD_T_RESOLUTION = 1e-10
_UNDERFLOW_T_SCALE = 4e-15

# p-threshold for the momentum half-plane guard: 1/sqrt(-p) blows up at the
# boundary, so trajectories are stopped strictly inside it.
GUARD_P_MAX = -1e-9


def hamiltonian_guard(state) -> bool:
    return state[1] <= GUARD_P_MAX


@dataclass(frozen=True)
class IntegratorStats:
    n_accepted: int
    n_rejected: int
    n_rhs: int


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration samples with derivatives.

    ts is strictly increasing; derivs[i] is the RHS at (ts[i], states[i])
    for integrator-produced trajectories.  Reconstructed trajectories
    (system == "superposed") carry derivs=None and cannot be resampled.
    """

    ts: np.ndarray
    states: np.ndarray
    derivs: np.ndarray | None
    system: str = "generic"
    stats: IntegratorStats | None = None

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def __len__(self) -> int:
        return len(self.ts)


def integrate(rhs, ic, t1, tol, guard=None, max_step=None, system="generic") -> Trajectory:
    """Integrate dy/dt = rhs(t, y) from ic = (t0, state0) up to t1.

    The state is two-dimensional: rhs and guard receive a float time and a
    tuple (y0, y1) of floats, and any other state shape raises ValueError.
    Error control uses absolute and relative tolerance `tol`.  max_step
    defaults to (t1 - t0)/50 so the stored samples stay dense enough for
    accurate Hermite resampling.
    """
    t0, y0 = ic
    t0, t1 = float(t0), float(t1)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (2,):
        raise ValueError(f"the state must be two-dimensional, got shape {y0.shape}")
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError(f"t0 and t1 must be finite with t1 > t0, got t0={t0}, t1={t1}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_step is not None and not 0.0 < max_step < math.inf:
        raise ValueError(f"max_step must be positive and finite, got {max_step}")
    y = tuple(y0.tolist())
    if guard is not None and not guard(y):
        raise DomainError(f"initial state {y0.tolist()} violates the domain guard")

    span = t1 - t0
    h_max = span / 50.0 if max_step is None else min(float(max_step), span)

    K = np.empty((7, 2))  # stage derivatives
    K[0] = rhs(t0, y)
    n_rhs = 1
    ts = [t0]
    ys = [y]
    fs = [tuple(K[0].tolist())]

    t = t0
    h = min(h_max, span * 1e-3)
    err_prev = 1e-4
    n_accepted = 0
    n_rejected = 0
    rejected_streak = 0

    while t < t1:
        last = t + h >= t1
        if last:
            h = t1 - t
        elif h < _UNDERFLOW_T_SCALE * max(1.0, abs(t)):
            raise NumericError(f"step size underflow at t={t} (stiffness or finite-time blow-up)")

        guard_hit = False
        for i in range(1, 7):
            d0, d1 = (_A[i] @ K[:i]).tolist()
            y_stage = (y[0] + h * d0, y[1] + h * d1)
            if guard is not None and not guard(y_stage):
                guard_hit = True
                break
            K[i] = rhs(t + _C[i] * h, y_stage)
            n_rhs += 1
        if guard_hit:
            # bisect toward the boundary; report the exit once localized
            if h <= _GUARD_T_RESOLUTION * max(1.0, abs(t)):
                raise GuardViolation(
                    f"domain guard violated just past t={t}", last_valid_t=t
                )
            h *= 0.5
            continue

        # stage 6 sits at (t + h, y_new): first-same-as-last
        y_new = y_stage
        e0, e1 = (_E @ K).tolist()
        # y_new first, so a NaN state gives a NaN scale
        e0 = h * e0 / (tol + tol * max(abs(y_new[0]), abs(y[0])))
        e1 = h * e1 / (tol + tol * max(abs(y_new[1]), abs(y[1])))
        err_norm = math.sqrt((e0 * e0 + e1 * e1) / 2)

        if err_norm <= 1.0:
            t, y = (t1 if last else t + h), y_new
            K[0] = K[6]
            ts.append(t)
            ys.append(y)
            fs.append(tuple(K[6].tolist()))
            n_accepted += 1
            factor = _SAFETY * err_norm**-_EXPO * err_prev**_BETA if err_norm > 0 else _MAX_GROWTH
            if rejected_streak and factor > 1.0:
                factor = 1.0  # no growth right after a rejection
            rejected_streak = 0
            err_prev = max(err_norm, 1e-4)
            h = min(h * min(_MAX_GROWTH, max(_MIN_SHRINK, factor)), h_max)
        else:
            n_rejected += 1
            rejected_streak += 1
            factor = _SAFETY * err_norm**-_EXPO if math.isfinite(err_norm) else _MIN_SHRINK
            h *= min(1.0, max(_MIN_SHRINK, factor))

    stats = IntegratorStats(n_accepted=n_accepted, n_rejected=n_rejected, n_rhs=n_rhs)
    return Trajectory(
        ts=np.array(ts),
        states=np.array(ys),
        derivs=np.array(fs),
        system=system,
        stats=stats,
    )


def sample_at(traj: Trajectory, t) -> np.ndarray:
    """Cubic Hermite interpolation of the trajectory at a time or an array of times.

    Returns one state for a scalar t and a row per time for an array.
    Exact at the stored nodes (and on any cubic segment); every t must
    lie in [t0, t_end].
    """
    ts = traj.ts
    t = np.asarray(t, dtype=float)
    outside = ~((ts[0] <= t) & (t <= ts[-1]))
    if outside.any():
        raise DomainError(f"t={t[outside].flat[0]} outside trajectory range [{ts[0]}, {ts[-1]}]")
    if traj.derivs is None:
        raise ValueError("trajectory carries no derivatives; cannot interpolate")
    i = np.minimum(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)
    dt = ts[i + 1] - ts[i]
    u = ((t - ts[i]) / dt)[..., None]
    # h00 = 1 - h01 identically, so constants are preserved exactly
    h01 = u * u * (3.0 - 2.0 * u)
    h10 = u * (1.0 - u) ** 2
    h11 = u * u * (u - 1.0)
    y0, y1 = traj.states[i], traj.states[i + 1]
    out = y0 + h01 * (y1 - y0) + dt[..., None] * (h10 * traj.derivs[i] + h11 * traj.derivs[i + 1])
    # a node time (t_end included) returns the stored state itself
    out = np.where((t == ts[i])[..., None], y0, out)
    return np.where((t == ts[i + 1])[..., None], y1, out)
