"""Adaptive Dormand-Prince 5(4) integration with domain guards.

Explicit embedded Runge-Kutta pair with PI step-size control and the
first-same-as-last property.  The seven stage derivatives of every accepted
step are kept and turned into that step's 4th-order continuous extension
(Shampine, "Some practical Runge-Kutta formulas", Math. Comp. 46, 1986;
Hairer-Norsett-Wanner, Solving ODEs I, section II.6).  Those polynomials
are a trajectory's only dense output, so it can be sampled anywhere as
accurately as at its nodes.  The step size is set by error control alone;
an optional max_step caps it.

The step runs on Python floats for two-dimensional states: the state, the
stage states and times, the error norm and the stored samples are floats.
numpy computes only the stage and error sums, as `ndarray.dot` products
over views of the (7, 2) array of stage derivatives made once per call; the
array is filled in place, two scalar stores per stage.  `.dot` runs the
same BLAS gemv as `@` without the matmul ufunc dispatch, to the same bits
but one: stage 1's one-term 0.2 k is a fused multiply-add there, so where it
rounds to zero it keeps k's sign, where `@` gives +0.0.  Those products fix
the rounding of every step: Python sums round otherwise and shift the step
sequences, so they are not used.

An optional state guard (a predicate on the raw (y0, y1) state tuple) is
evaluated at every trial stage.  When the flow approaches the guarded
boundary the step is bisected until the exit time is localized to about
1e-10, then the domain exit is reported with the last valid time.  No
command uses it: `model.solve_hamiltonian` integrates the Hamiltonian
picture unguarded in a chart where its field is affine-linear and checks
the domain on the dense output afterwards, and the riccati2 picture has no
domain boundary.  `hamiltonian_guard` remains for library callers that
integrate `model.hamiltonian_field` in (x, p).  Step-size underflow from
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
# Continuous extension: over a step of size h from y, the state at t + u h
# is y + h * sum_k (K.T @ _P)[:, k] u**(k + 1), for u in [0, 1]
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_BETA = 0.04           # PI stabilization exponent
_EXPO = 0.2 - 0.75 * _BETA
_MIN_SHRINK = 0.2
_MAX_GROWTH = 10.0
_UNDERFLOW_T_SCALE = 4e-15

# p-threshold for the momentum half-plane guard: 1/sqrt(-p) blows up at the
# boundary, so trajectories are stopped strictly inside it.
GUARD_P_MAX = -1e-9
# width an exit from the half-plane is localized to, relative to max(1, |t|)
GUARD_T_RESOLUTION = 1e-10
_NOT_TWO_NUMBERS = "rhs must return two numbers; at t={} it returned {!r}"


def hamiltonian_guard(state) -> bool:
    return state[1] <= GUARD_P_MAX


# the condition, as integrate quotes it in its guard errors
hamiltonian_guard.__doc__ = f"p <= {GUARD_P_MAX}"


@dataclass(frozen=True)
class IntegratorStats:
    n_accepted: int
    n_rejected: int
    n_rhs: int


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration samples and their dense output.

    ts is strictly increasing.  coeffs[i, k] is the coefficient of
    u**(k + 1) in the state polynomial of segment i, u = (t - ts[i]) /
    (ts[i + 1] - ts[i]): the continuous extension of each step for
    integrator-produced trajectories.  Samples on a grid, reconstructed
    ones (system == "superposed") and `model.solve_hamiltonian`'s, carry no
    coeffs and cannot be resampled.
    """

    ts: np.ndarray
    states: np.ndarray
    system: str = "generic"
    stats: IntegratorStats | None = None
    coeffs: np.ndarray | None = None


def integrate(rhs, ic, t1, tol, guard=None, max_step=None, system="generic") -> Trajectory:
    """Integrate dy/dt = rhs(t, y) from ic = (t0, state0) up to t1.

    The state is two-dimensional: rhs and guard receive a float time and a
    tuple (y0, y1) of floats, and any other state shape raises ValueError.
    Error control uses absolute and relative tolerance `tol` and alone sets
    the step size unless max_step caps it; the continuous extension keeps
    `sample_at` as accurate between the nodes as at them.  A guard's
    docstring, when it has one, states its condition, and the guard errors
    quote it.
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
    if guard is not None:
        condition = f"domain guard {guard.__doc__ or ''}".rstrip()
        if not guard(y):
            raise DomainError(f"initial state {y0.tolist()} violates the {condition}")

    span = t1 - t0
    h_max = span if max_step is None else min(float(max_step), span)

    K = np.empty((7, 2))  # stage derivatives, filled in place under the views
    K_stages = [K[:i] for i in range(7)]
    k = rhs(t0, y)
    try:
        K[0, 0], K[0, 1] = k
    except (TypeError, ValueError):
        raise ValueError(_NOT_TWO_NUMBERS.format(t0, k)) from None
    n_rhs = 1
    ts = [t0]
    ys = [y]
    hs = []  # size of each accepted step
    Ks = []  # stage derivatives of each accepted step

    t = t0
    h = min(h_max, max(span * 1e-3, _UNDERFLOW_T_SCALE * max(1.0, abs(t0))))  # no underflow at the start
    err_prev = 1e-4
    n_accepted = 0
    n_rejected = 0
    rejected_streak = 0

    with np.errstate(invalid="ignore", over="ignore"):  # a stage that is not finite rejects the step
        while t < t1:
            last = t + h >= t1
            if last:
                h = t1 - t
            elif h < _UNDERFLOW_T_SCALE * max(1.0, abs(t)):
                raise NumericError(f"step size underflow at t={t} (stiffness or finite-time blow-up)")

            guard_hit = False
            for i in range(1, 7):
                d0, d1 = _A[i].dot(K_stages[i]).tolist()
                y_stage = (y[0] + h * d0, y[1] + h * d1)
                if guard is not None and not guard(y_stage):
                    guard_hit = True
                    break
                k = rhs(t + _C[i] * h, y_stage)
                try:
                    K[i, 0], K[i, 1] = k
                except (TypeError, ValueError):
                    raise ValueError(_NOT_TWO_NUMBERS.format(t + _C[i] * h, k)) from None
                n_rhs += 1
            if guard_hit:
                # bisect toward the boundary; report the exit once localized
                if h <= GUARD_T_RESOLUTION * max(1.0, abs(t)):
                    raise GuardViolation(f"{condition} violated just past t={t}", last_valid_t=t)
                h *= 0.5
                continue

            # stage 6 sits at (t + h, y_new): first-same-as-last
            y_new = y_stage
            e0, e1 = _E.dot(K).tolist()
            # y_new first, so a NaN state gives a NaN scale
            e0 = h * e0 / (tol + tol * max(abs(y_new[0]), abs(y[0])))
            e1 = h * e1 / (tol + tol * max(abs(y_new[1]), abs(y[1])))
            err_norm = math.sqrt((e0 * e0 + e1 * e1) / 2)

            if err_norm <= 1.0:
                t, y = (t1 if last else t + h), y_new
                ts.append(t)
                ys.append(y)
                hs.append(h)
                Ks.append(K.copy())
                K[0] = K[6]
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
        system=system,
        stats=stats,
        coeffs=np.array(hs)[:, None, None] * (_P.T @ np.array(Ks)),
    )


def sample_at(traj: Trajectory, t) -> np.ndarray:
    """The trajectory's dense output at a time or an array of times.

    Returns one state for a scalar t and a row per time for an array.
    Evaluates the polynomial of the segment holding t; a node time
    returns the stored state itself.  Every t must lie in [ts[0], ts[-1]].
    """
    ts = traj.ts
    t = np.asarray(t, dtype=float)
    outside = ~((ts[0] <= t) & (t <= ts[-1]))
    if outside.any():
        raise DomainError(f"t={t[outside].flat[0]} outside trajectory range [{ts[0]}, {ts[-1]}]")
    if traj.coeffs is None:
        raise ValueError("trajectory carries no dense output; cannot interpolate")
    i = np.minimum(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)
    u = ((t - ts[i]) / (ts[i + 1] - ts[i]))[..., None]
    c = traj.coeffs[i]
    # u = 0 at a node returns its state exactly; only ts[-1] needs the stored state
    out = traj.states[i] + u * (c[..., 0, :] + u * (c[..., 1, :] + u * (c[..., 2, :] + u * c[..., 3, :])))
    return np.where((t == ts[i + 1])[..., None], traj.states[i + 1], out)
