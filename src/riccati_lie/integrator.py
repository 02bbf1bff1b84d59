"""Adaptive Dormand-Prince 5(4) integration with domain guards.

Explicit embedded Runge-Kutta pair with PI step-size control and the
first-same-as-last property.  The seven stage derivatives of every accepted
step are kept and turned into that step's 4th-order continuous extension
(Shampine, "Some practical Runge-Kutta formulas", Math. Comp. 46, 1986;
Hairer-Norsett-Wanner, Solving ODEs I, section II.6).  Those polynomials
are a trajectory's only dense output, so it can be sampled anywhere as
accurately as at its nodes.  The step size is set by error control alone;
an optional max_step caps it.

The step runs on Python floats for two-dimensional states, with no numpy:
the state, the stage derivatives, states and times, the error norm and the
stored samples are floats, and each stage state and the error estimate is
written out as the tableau's left-to-right float sum, without its two zero
weights (Hairer-Norsett-Wanner, section II.5).  Those are plain IEEE
operations, so the steps do not depend on the BLAS kernel numpy picks at run
time; numpy forms the continuous extension's coefficients once per call.

An optional state guard (a predicate on the raw (y0, y1) state tuple) is
evaluated at every trial stage.  When the flow approaches the guarded
boundary the step is bisected until the exit time is localized to about
1e-10, then the domain exit is reported with the last valid time.  No
command uses it: `model.solve_hamiltonian` integrates the Hamiltonian
picture unguarded in a chart where its field is affine-linear and checks
the domain on the dense output afterwards, and the riccati2 picture has no
domain boundary.  `hamiltonian_guard` remains for library callers that
integrate `model.hamiltonian_field` in (x, p).  Step-size underflow from
error control (stiffness or finite-time blow-up) is reported separately, as
a `WorkBoundError`: like a solve past `MAX_STEPS`, one DP5 cannot finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GuardViolation, WorkBoundError

__all__ = ["Trajectory", "IntegratorStats", "integrate", "sample_at", "hamiltonian_guard"]

# Dormand-Prince 5(4): `integrate` writes out the tableau's stage and error sums.
# Continuous extension: over a step of size h from y, with K the (7, 2) stage
# derivatives, the state at t + u h is y + h * sum_k (K.T @ _P)[:, k] u**(k + 1)
# for u in [0, 1]
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
MAX_STEPS = 100_000  # trial steps per solve, accepted or rejected: far above any benchmark solve's

# p-threshold for the momentum half-plane guard: 1/sqrt(-p) blows up at the
# boundary, so trajectories are stopped strictly inside it.
GUARD_P_MAX = -1e-9
# width an exit from the half-plane is localized to, relative to max(1, |t|)
GUARD_T_RESOLUTION = 1e-10
_NOT_TWO_NUMBERS = "rhs must return two numbers; at t={} it returned {!r}"


class _GuardHit(Exception):
    """A trial stage state the guard rejects."""


def _two_numbers(k, t):
    """The pair the field returned at t, or ValueError unless it is two real numbers."""
    try:
        k0, k1 = k
        math.isnan(k0), math.isnan(k1)
    except (TypeError, ValueError):
        raise ValueError(_NOT_TWO_NUMBERS.format(t, k)) from None
    return k0, k1


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
    rhs returns two numbers, which the sums take as they are: numpy float64
    values give the bits of Python floats, float32 ones round in float32.
    Error control uses absolute and relative tolerance `tol` and alone sets
    the step size unless max_step caps it; the continuous extension keeps
    `sample_at` as accurate between the nodes as at them.  A guard's
    docstring, when it has one, states its condition, and the guard errors
    quote it.  A solve DP5 cannot finish raises WorkBoundError, a NumericError
    naming t: one that needs more than MAX_STEPS trial steps, accepted or
    rejected, or whose step size underflows (stiffness or finite-time blow-up).
    """
    t0, state0 = ic
    t0, t1 = float(t0), float(t1)
    state0 = np.asarray(state0, dtype=float)
    if state0.shape != (2,):
        raise ValueError(f"the state must be two-dimensional, got shape {state0.shape}")
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError(f"t0 and t1 must be finite with t1 > t0, got t0={t0}, t1={t1}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_step is not None and not 0.0 < max_step < math.inf:
        raise ValueError(f"max_step must be positive and finite, got {max_step}")
    y0, y1 = y = tuple(state0.tolist())
    field, n_guarded = rhs, 0
    if guard is not None:
        condition = f"domain guard {guard.__doc__ or ''}".rstrip()
        if not guard(y):
            raise DomainError(f"initial state {list(y)} violates the {condition}")

        def rhs(t, y):  # the field behind the guard, which ends the trial step at a stage it rejects
            nonlocal n_guarded
            if not guard(y):
                raise _GuardHit
            n_guarded += 1
            return field(t, y)

    span = t1 - t0
    h_max = span if max_step is None else min(float(max_step), span)
    a0, a1 = k = _two_numbers(field(t0, y), t0)
    ts, ys, hs, Ks = [t0], [y], [], []  # each accepted step's time, state, size and 14 stage derivatives

    t = t0
    h = min(h_max, max(span * 1e-3, _UNDERFLOW_T_SCALE * max(1.0, abs(t0))))  # no underflow at the start
    err_prev = 1e-4
    n_accepted = n_rejected = rejected_streak = 0

    while t < t1:
        if n_accepted + n_rejected >= MAX_STEPS:
            raise WorkBoundError(f"integration work bound reached at t={t}: {MAX_STEPS} trial steps")
        last = t + h >= t1
        if last:
            h = t1 - t
        elif h < _UNDERFLOW_T_SCALE * max(1.0, abs(t)):
            raise WorkBoundError(f"step size underflow at t={t} (stiffness or finite-time blow-up)")

        # stages a..g at y + h (row sums, left to right), each summed before its time; k, s: the last return, its time
        try:
            k = b0, b1 = rhs(s := t + 0.2 * h, (y0 + h * (0.2 * a0), y1 + h * (0.2 * a1)))
            u = y0 + h * (3 / 40 * a0 + 9 / 40 * b0), y1 + h * (3 / 40 * a1 + 9 / 40 * b1)
            k = c0, c1 = rhs(s := t + 0.3 * h, u)
            u = (y0 + h * (44 / 45 * a0 - 56 / 15 * b0 + 32 / 9 * c0),
                 y1 + h * (44 / 45 * a1 - 56 / 15 * b1 + 32 / 9 * c1))
            k = d0, d1 = rhs(s := t + 0.8 * h, u)
            u = (y0 + h * (19372 / 6561 * a0 - 25360 / 2187 * b0 + 64448 / 6561 * c0 - 212 / 729 * d0),
                 y1 + h * (19372 / 6561 * a1 - 25360 / 2187 * b1 + 64448 / 6561 * c1 - 212 / 729 * d1))
            k = e0, e1 = rhs(s := t + 8 / 9 * h, u)
            u = (y0 + h * (9017 / 3168 * a0 - 355 / 33 * b0 + 46732 / 5247 * c0 + 49 / 176 * d0 - 5103 / 18656 * e0),
                 y1 + h * (9017 / 3168 * a1 - 355 / 33 * b1 + 46732 / 5247 * c1 + 49 / 176 * d1 - 5103 / 18656 * e1))
            k = f0, f1 = rhs(s := t + h, u)
            # the 5th-order state z; the last stage sits at (t + h, z): first-same-as-last
            z0 = y0 + h * (35 / 384 * a0 + 500 / 1113 * c0 + 125 / 192 * d0 - 2187 / 6784 * e0 + 11 / 84 * f0)
            z1 = y1 + h * (35 / 384 * a1 + 500 / 1113 * c1 + 125 / 192 * d1 - 2187 / 6784 * e1 + 11 / 84 * f1)
            k = g0, g1 = rhs(s, (z0, z1))
            # the 5th-order weights minus the embedded 4th-order ones, scaled; z first, so a NaN state gives a NaN scale
            q0 = h * (71 / 57600 * a0 - 71 / 16695 * c0 + 71 / 1920 * d0 - 17253 / 339200 * e0 + 22 / 525 * f0
                      - 1 / 40 * g0) / (tol + tol * max(abs(z0), abs(y0)))
            q1 = h * (71 / 57600 * a1 - 71 / 16695 * c1 + 71 / 1920 * d1 - 17253 / 339200 * e1 + 22 / 525 * f1
                      - 1 / 40 * g1) / (tol + tol * max(abs(z1), abs(y1)))
        except _GuardHit:  # bisect toward the boundary; report the exit once localized
            if h <= GUARD_T_RESOLUTION * max(1.0, abs(t)):
                raise GuardViolation(f"{condition} violated just past t={t}", last_valid_t=t) from None
            h *= 0.5
            continue
        except (TypeError, ValueError):  # the field's own error passes through
            _two_numbers(k, s)
            raise

        err_norm = math.sqrt((q0 * q0 + q1 * q1) / 2)

        if err_norm <= 1.0:
            t = t1 if last else t + h
            ts.append(t)
            ys.append((z0, z1))
            hs.append(h)
            Ks.append((a0, a1, b0, b1, c0, c1, d0, d1, e0, e1, f0, f1, g0, g1))
            y0, y1, a0, a1 = z0, z1, g0, g1
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

    n_rhs = 1 + (6 * (n_accepted + n_rejected) if guard is None else n_guarded)
    return Trajectory(ts=np.array(ts), states=np.array(ys), system=system,
                      stats=IntegratorStats(n_accepted=n_accepted, n_rejected=n_rejected, n_rhs=n_rhs),
                      coeffs=np.array(hs)[:, None, None] * (_P.T @ np.array(Ks).reshape(-1, 7, 2)))


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
