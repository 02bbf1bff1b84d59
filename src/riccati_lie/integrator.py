"""Adaptive Dormand-Prince 8(5,3) integration with domain guards.

The explicit embedded Runge-Kutta pair DOP853 (Prince and Dormand, "High
order embedded Runge-Kutta formulae", J. Comput. Appl. Math. 7, 1981;
Hairer-Norsett-Wanner, Solving ODEs I, sections II.5 and II.10): twelve
stages, an 8th-order solution, PI step-size control on the combined 5th-
and 3rd-order error estimate, and the first-same-as-last property.  The
first step size is the standard starting-step guess (section II.4), which
probes the field once at t0 + h0; where the field is not finite there, or
the guard rejects the probe's state, the first step is span * 1e-3.  Each
accepted step runs three more stages and keeps the stage derivatives its
7th-order continuous extension needs (section II.6); those polynomials are
a trajectory's only dense output, so it can be sampled anywhere about as
accurately as at its nodes.  After the first step, error control alone
sets the step size; an optional max_step caps it.

The step runs on Python floats for two-dimensional states, with no numpy:
the state, the stage derivatives, states and times, the error norm and the
stored samples are floats, and each stage state, the solution and the two
error estimates are written out as the tableau's left-to-right float sums,
without their zero weights.  Those are plain IEEE operations, so the steps
do not depend on the BLAS kernel numpy picks at run time; numpy forms the
continuous extension's coefficients once per call.

An optional state guard (a predicate on the raw (y0, y1) state tuple) is
evaluated at every trial stage, the continuous extension's included.  When
the flow approaches the guarded boundary the step is bisected until the exit
time is localized to about 1e-10, then the domain exit is reported with the
last valid time.  No command uses it: `model.solve_hamiltonian` integrates
the Hamiltonian picture unguarded in a chart where its field is affine-linear
and checks the domain on the dense output afterwards, and the riccati2
picture has no domain boundary.  `hamiltonian_guard` remains for library
callers that integrate `model.hamiltonian_field` in (x, p).  Step-size
underflow from error control (stiffness or finite-time blow-up) is reported
separately, as a `WorkBoundError`: like a solve past `MAX_STEPS`, one the
integrator cannot finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GuardViolation, WorkBoundError

__all__ = ["Trajectory", "IntegratorStats", "integrate", "sample_at", "hamiltonian_guard"]

# DOP853's continuous extension (Hairer-Norsett-Wanner, section II.6): over
# a step of size h from y to z, with dy = z - y and k1 and k13 the stage
# derivatives at its two ends, the state at t + u h is
#     y + u (F0 + (1 - u) (F1 + u (F2 + (1 - u) (F3 + u (F4 + (1 - u) (F5 + u F6))))))
# for u in [0, 1], where F0 = dy, F1 = h k1 - dy, F2 = 2 dy - h (k1 + k13),
# and F3..F6 are h times the rows of _D over the stage derivatives k1 and
# k6..k16, which each accepted step stores.
_D = np.array([
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688, -0.08899033645133331, 18.148505520854727,
     -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229, 15.697238121770845, -31.139403219565178,
     -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443, -2.778205752353508, -60.19669523126412,
     84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
     -39.17726167561544, -149.72683625798564],
])
# Its coefficients of u, u**2, ..., u**7 are _POWER @ (dy, h k1, h k13, F3, F4, F5, F6); the first is h k1 itself
_POWER = np.array([
    [0, 1, 0, 0, 0, 0, 0],
    [3, -2, -1, 1, 0, 0, 0],
    [-2, 1, 1, -2, 1, 1, 0],
    [0, 0, 0, 1, -2, -3, 1],
    [0, 0, 0, 0, 1, 3, -3],
    [0, 0, 0, 0, 0, -1, 3],
    [0, 0, 0, 0, 0, 0, -1],
], dtype=float)
_EXTENSION = np.vstack((np.eye(12)[[0, 8]], _D))  # k1, k13 and _D's rows over the stored stage derivatives

_SAFETY = 0.9
_BETA = 0.04           # PI stabilization exponent
_EXPO = 1 / 8 - 0.2 * _BETA
_MIN_SHRINK = 0.2
_MAX_GROWTH = 10.0
_UNDERFLOW_T_SCALE = 4e-15
# trial steps per solve, accepted or rejected.  A step makes at most 15 RHS
# calls, so a solve makes at most 600,000, as 100,000 steps of the 5th-order
# pair this one replaced did; the largest solve of the benchmark's timed ops
# over seeds 21-23 takes 39
MAX_STEPS = 40_000

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


def _first_step(rhs, t0, y0, y1, k0, k1, tol, h_max):
    """The starting-step guess for an 8th-order pair (Hairer-Norsett-Wanner,
    section II.4) from the state (y0, y1) and its derivative (k0, k1) at t0,
    or None where the field is not finite at the probe t0 + h0 or the guard
    rejects the probe's state.  Norms are root-mean-square over the scale
    tol + tol |y|."""
    s0, s1 = tol + tol * abs(y0), tol + tol * abs(y1)
    d0 = math.sqrt(((y0 / s0) * (y0 / s0) + (y1 / s1) * (y1 / s1)) / 2)
    d1 = math.sqrt(((k0 / s0) * (k0 / s0) + (k1 / s1) * (k1 / s1)) / 2)
    h0 = min(0.01 * d0 / d1 if d0 >= 1e-5 and 1e-5 <= d1 < math.inf else 1e-6, h_max)
    try:
        p0, p1 = _two_numbers(rhs(s := t0 + h0, (y0 + h0 * k0, y1 + h0 * k1)), s)
    except _GuardHit:
        return None
    p0, p1 = (p0 - k0) / s0, (p1 - k1) / s1
    d2 = math.sqrt((p0 * p0 + p1 * p1) / 2) / h0
    if not math.isfinite(d2):
        return None
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, h_max)


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
    (ts[i + 1] - ts[i]), whose degree is coeffs.shape[1]: the 7th-order
    continuous extension of each step for integrator-produced trajectories.
    Samples on a grid, reconstructed ones (system == "superposed") and
    `model.solve_hamiltonian`'s, carry no coeffs and cannot be resampled.
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
    quote it.  A solve the integrator cannot finish raises WorkBoundError, a
    NumericError naming t: one that needs more than MAX_STEPS trial steps,
    accepted or rejected, or whose step size underflows (stiffness or
    finite-time blow-up).
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
    k1_0, k1_1 = ret = _two_numbers(field(t0, y), t0)
    h = _first_step(rhs, t0, y0, y1, k1_0, k1_1, tol, h_max)
    # each accepted step's time, state, size and the 24 stage derivatives its continuous extension reads
    ts, ys, hs, Ks = [t0], [y], [], []

    t = t0
    h = min(h_max, max(span * 1e-3 if h is None else h, _UNDERFLOW_T_SCALE * max(1.0, abs(t0))))
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

        # stages 2..12 at y + h (row sums, left to right), each summed before its time;
        # ret and s: the last return and its time
        try:
            u = (y0 + h * (0.05260015195876773 * k1_0),
                 y1 + h * (0.05260015195876773 * k1_1))
            ret = k2_0, k2_1 = rhs(s := t + 0.05260015195876773 * h, u)
            u = (y0 + h * (0.0197250569845379 * k1_0 + 0.0591751709536137 * k2_0),
                 y1 + h * (0.0197250569845379 * k1_1 + 0.0591751709536137 * k2_1))
            ret = k3_0, k3_1 = rhs(s := t + 0.0789002279381516 * h, u)
            u = (y0 + h * (0.02958758547680685 * k1_0 + 0.08876275643042054 * k3_0),
                 y1 + h * (0.02958758547680685 * k1_1 + 0.08876275643042054 * k3_1))
            ret = k4_0, k4_1 = rhs(s := t + 0.1183503419072274 * h, u)
            u = (y0 + h * (0.2413651341592667 * k1_0 - 0.8845494793282861 * k3_0 + 0.924834003261792 * k4_0),
                 y1 + h * (0.2413651341592667 * k1_1 - 0.8845494793282861 * k3_1 + 0.924834003261792 * k4_1))
            ret = k5_0, k5_1 = rhs(s := t + 0.2816496580927726 * h, u)
            u = (y0 + h * (0.037037037037037035 * k1_0 + 0.17082860872947386 * k4_0 + 0.12546768756682242 * k5_0),
                 y1 + h * (0.037037037037037035 * k1_1 + 0.17082860872947386 * k4_1 + 0.12546768756682242 * k5_1))
            ret = k6_0, k6_1 = rhs(s := t + 0.3333333333333333 * h, u)
            u = (y0 + h * (0.037109375 * k1_0 + 0.17025221101954405 * k4_0 + 0.06021653898045596 * k5_0
                           - 0.017578125 * k6_0),
                 y1 + h * (0.037109375 * k1_1 + 0.17025221101954405 * k4_1 + 0.06021653898045596 * k5_1
                           - 0.017578125 * k6_1))
            ret = k7_0, k7_1 = rhs(s := t + 0.25 * h, u)
            u = (y0 + h * (0.03709200011850479 * k1_0 + 0.17038392571223998 * k4_0 + 0.10726203044637328 * k5_0
                           - 0.015319437748624402 * k6_0 + 0.008273789163814023 * k7_0),
                 y1 + h * (0.03709200011850479 * k1_1 + 0.17038392571223998 * k4_1 + 0.10726203044637328 * k5_1
                           - 0.015319437748624402 * k6_1 + 0.008273789163814023 * k7_1))
            ret = k8_0, k8_1 = rhs(s := t + 0.3076923076923077 * h, u)
            u = (y0 + h * (0.6241109587160757 * k1_0 - 3.3608926294469414 * k4_0 - 0.868219346841726 * k5_0
                           + 27.59209969944671 * k6_0 + 20.154067550477894 * k7_0 - 43.48988418106996 * k8_0),
                 y1 + h * (0.6241109587160757 * k1_1 - 3.3608926294469414 * k4_1 - 0.868219346841726 * k5_1
                           + 27.59209969944671 * k6_1 + 20.154067550477894 * k7_1 - 43.48988418106996 * k8_1))
            ret = k9_0, k9_1 = rhs(s := t + 0.6512820512820513 * h, u)
            u = (y0 + h * (0.47766253643826434 * k1_0 - 2.4881146199716677 * k4_0 - 0.590290826836843 * k5_0
                           + 21.230051448181193 * k6_0 + 15.279233632882423 * k7_0 - 33.28821096898486 * k8_0
                           - 0.020331201708508627 * k9_0),
                 y1 + h * (0.47766253643826434 * k1_1 - 2.4881146199716677 * k4_1 - 0.590290826836843 * k5_1
                           + 21.230051448181193 * k6_1 + 15.279233632882423 * k7_1 - 33.28821096898486 * k8_1
                           - 0.020331201708508627 * k9_1))
            ret = k10_0, k10_1 = rhs(s := t + 0.6 * h, u)
            u = (y0 + h * (-0.9371424300859873 * k1_0 + 5.186372428844064 * k4_0 + 1.0914373489967295 * k5_0
                           - 8.149787010746927 * k6_0 - 18.52006565999696 * k7_0 + 22.739487099350505 * k8_0
                           + 2.4936055526796523 * k9_0 - 3.0467644718982196 * k10_0),
                 y1 + h * (-0.9371424300859873 * k1_1 + 5.186372428844064 * k4_1 + 1.0914373489967295 * k5_1
                           - 8.149787010746927 * k6_1 - 18.52006565999696 * k7_1 + 22.739487099350505 * k8_1
                           + 2.4936055526796523 * k9_1 - 3.0467644718982196 * k10_1))
            ret = k11_0, k11_1 = rhs(s := t + 0.8571428571428571 * h, u)
            u = (y0 + h * (2.273310147516538 * k1_0 - 10.53449546673725 * k4_0 - 2.0008720582248625 * k5_0
                           - 17.9589318631188 * k6_0 + 27.94888452941996 * k7_0 - 2.8589982771350235 * k8_0
                           - 8.87285693353063 * k9_0 + 12.360567175794303 * k10_0 + 0.6433927460157636 * k11_0),
                 y1 + h * (2.273310147516538 * k1_1 - 10.53449546673725 * k4_1 - 2.0008720582248625 * k5_1
                           - 17.9589318631188 * k6_1 + 27.94888452941996 * k7_1 - 2.8589982771350235 * k8_1
                           - 8.87285693353063 * k9_1 + 12.360567175794303 * k10_1 + 0.6433927460157636 * k11_1))
            ret = k12_0, k12_1 = rhs(s := t + h, u)
            # the 8th-order state z, and the 5th- and 3rd-order error estimates over the scale, z first, so that a
            # NaN state gives a NaN scale
            z0 = y0 + h * (0.054293734116568765 * k1_0 + 4.450312892752409 * k6_0 + 1.8915178993145003 * k7_0
                           - 5.801203960010585 * k8_0 + 0.3111643669578199 * k9_0 - 0.1521609496625161 * k10_0
                           + 0.20136540080403034 * k11_0 + 0.04471061572777259 * k12_0)
            z1 = y1 + h * (0.054293734116568765 * k1_1 + 4.450312892752409 * k6_1 + 1.8915178993145003 * k7_1
                           - 5.801203960010585 * k8_1 + 0.3111643669578199 * k9_1 - 0.1521609496625161 * k10_1
                           + 0.20136540080403034 * k11_1 + 0.04471061572777259 * k12_1)
            sc = tol + tol * max(abs(z0), abs(y0))
            q0 = (0.01312004499419488 * k1_0 - 1.2251564463762044 * k6_0 - 0.4957589496572502 * k7_0
                  + 1.6643771824549864 * k8_0 - 0.35032884874997366 * k9_0 + 0.3341791187130175 * k10_0
                  + 0.08192320648511571 * k11_0 - 0.022355307863886294 * k12_0) / sc
            r0 = (-0.18980075407240762 * k1_0 + 4.450312892752409 * k6_0 + 1.8915178993145003 * k7_0
                  - 5.801203960010585 * k8_0 - 0.4226823213237919 * k9_0 - 0.1521609496625161 * k10_0
                  + 0.20136540080403034 * k11_0 + 0.02265179219836082 * k12_0) / sc
            sc = tol + tol * max(abs(z1), abs(y1))
            q1 = (0.01312004499419488 * k1_1 - 1.2251564463762044 * k6_1 - 0.4957589496572502 * k7_1
                  + 1.6643771824549864 * k8_1 - 0.35032884874997366 * k9_1 + 0.3341791187130175 * k10_1
                  + 0.08192320648511571 * k11_1 - 0.022355307863886294 * k12_1) / sc
            r1 = (-0.18980075407240762 * k1_1 + 4.450312892752409 * k6_1 + 1.8915178993145003 * k7_1
                  - 5.801203960010585 * k8_1 - 0.4226823213237919 * k9_1 - 0.1521609496625161 * k10_1
                  + 0.20136540080403034 * k11_1 + 0.02265179219836082 * k12_1) / sc
            err5, err3 = q0 * q0 + q1 * q1, r0 * r0 + r1 * r1
            den = err5 + 0.01 * err3
            err_norm = h * err5 / math.sqrt(2.0 * den) if den else 0.0
            if err_norm <= 1.0:
                # stage 13 sits at (t + h, z), the next step's stage 1: first-same-as-last
                ret = k13_0, k13_1 = rhs(s := t + h, (z0, z1))
                # the continuous extension's three stages, at t + h / 10, t + h / 5 and t + 7 h / 9
                u = (y0 + h * (0.056167502283047954 * k1_0 + 0.25350021021662483 * k7_0 - 0.2462390374708025 * k8_0
                               - 0.12419142326381637 * k9_0 + 0.15329179827876568 * k10_0 + 0.00820105229563469 * k11_0
                               + 0.007567897660545699 * k12_0 - 0.008298 * k13_0),
                     y1 + h * (0.056167502283047954 * k1_1 + 0.25350021021662483 * k7_1 - 0.2462390374708025 * k8_1
                               - 0.12419142326381637 * k9_1 + 0.15329179827876568 * k10_1 + 0.00820105229563469 * k11_1
                               + 0.007567897660545699 * k12_1 - 0.008298 * k13_1))
                ret = k14_0, k14_1 = rhs(s := t + 0.1 * h, u)
                u = (y0 + h * (0.03183464816350214 * k1_0 + 0.028300909672366776 * k6_0 + 0.053541988307438566 * k7_0
                               - 0.05492374857139099 * k8_0 - 0.00010834732869724932 * k11_0
                               + 0.0003825710908356584 * k12_0 - 0.00034046500868740456 * k13_0
                               + 0.1413124436746325 * k14_0),
                     y1 + h * (0.03183464816350214 * k1_1 + 0.028300909672366776 * k6_1 + 0.053541988307438566 * k7_1
                               - 0.05492374857139099 * k8_1 - 0.00010834732869724932 * k11_1
                               + 0.0003825710908356584 * k12_1 - 0.00034046500868740456 * k13_1
                               + 0.1413124436746325 * k14_1))
                ret = k15_0, k15_1 = rhs(s := t + 0.2 * h, u)
                u = (y0 + h * (-0.42889630158379194 * k1_0 - 4.697621415361164 * k6_0 + 7.683421196062599 * k7_0
                               + 4.06898981839711 * k8_0 + 0.3567271874552811 * k9_0 - 0.0013990241651590145 * k13_0
                               + 2.9475147891527724 * k14_0 - 9.15095847217987 * k15_0),
                     y1 + h * (-0.42889630158379194 * k1_1 - 4.697621415361164 * k6_1 + 7.683421196062599 * k7_1
                               + 4.06898981839711 * k8_1 + 0.3567271874552811 * k9_1 - 0.0013990241651590145 * k13_1
                               + 2.9475147891527724 * k14_1 - 9.15095847217987 * k15_1))
                ret = k16_0, k16_1 = rhs(s := t + 0.7777777777777778 * h, u)
                _two_numbers(ret, s)  # stage 16 feeds no sum in the step
        except _GuardHit:  # bisect toward the boundary; report the exit once localized
            if h <= GUARD_T_RESOLUTION * max(1.0, abs(t)):
                raise GuardViolation(f"{condition} violated just past t={t}", last_valid_t=t) from None
            h *= 0.5
            continue
        except (TypeError, ValueError):  # the field's own error passes through
            _two_numbers(ret, s)
            raise

        if err_norm <= 1.0:
            t = t1 if last else t + h
            ts.append(t)
            ys.append((z0, z1))
            hs.append(h)
            Ks.append((k1_0, k1_1, k6_0, k6_1, k7_0, k7_1, k8_0, k8_1, k9_0, k9_1, k10_0, k10_1, k11_0, k11_1,
                       k12_0, k12_1, k13_0, k13_1, k14_0, k14_1, k15_0, k15_1, k16_0, k16_1))
            y0, y1, k1_0, k1_1 = z0, z1, k13_0, k13_1
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

    # the initial call and the probe; 11 calls per trial step and 4 more per accepted one
    n_rhs = 1 + (1 + 11 * (n_accepted + n_rejected) + 4 * n_accepted if guard is None else n_guarded)
    states = np.array(ys)
    hk = np.array(hs)[:, None, None] * (_EXTENSION @ np.array(Ks).reshape(-1, 12, 2))  # h k1, h k13, F3..F6
    return Trajectory(ts=np.array(ts), states=states, system=system,
                      stats=IntegratorStats(n_accepted=n_accepted, n_rejected=n_rejected, n_rhs=n_rhs),
                      coeffs=_POWER @ np.concatenate(((states[1:] - states[:-1])[:, None], hk), axis=1))


def sample_at(traj: Trajectory, t) -> np.ndarray:
    """The trajectory's dense output at a time or an array of times.

    Returns one state for a scalar t and a row per time for an array.
    Evaluates the polynomial of the segment holding t, of any degree, by
    Horner's rule; a node time returns the stored state itself.  Every t
    must lie in [ts[0], ts[-1]].
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
    out = c[..., -1, :]
    for k in range(c.shape[-2] - 2, -1, -1):
        out = c[..., k, :] + u * out
    # u = 0 at a node returns its state exactly; only ts[-1] needs the stored state
    out = traj.states[i] + u * out
    return np.where((t == ts[i + 1])[..., None], traj.states[i + 1], out)
