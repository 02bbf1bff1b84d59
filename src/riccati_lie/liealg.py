"""The five phase-plane vector fields, their algebra, and the group action.

On the half-plane O = {(x, p) : p < 0} the library works with

    X1 = (1/sqrt(-p)) d/dx
    X2 = d/dx
    X3 = x d/dx - p d/dp
    X4 = x^2 d/dx - 2 x p d/dp
    X5 = (x/sqrt(-p)) d/dx + 2 sqrt(-p) d/dp

which close on a five-dimensional algebra; the Hamiltonian dynamics of the
package decomposes as X1 - a0(t) X2 - a1(t) X3 - a2(t) X4 at every time.
The span of {X2, X3, X4} is a subalgebra of sl(2)-type and {X1, X5} an
abelian ideal, matching the semidirect group R^2 x| SL(2, R) whose action
on O is implemented by `act`.

Bracket convention: [X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, evaluated from
hand-derived closed-form Jacobians (no automatic differentiation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import PhasePoint, _momentum_root, hamilton_rhs

__all__ = [
    "FIELD_IDS",
    "COMMUTATION_TABLE",
    "FUNDAMENTAL_CORRESPONDENCE",
    "GroupElement",
    "vf_eval",
    "vf_jacobian",
    "lie_bracket",
    "check_commutation_table",
    "levi_structure_check",
    "decompose_rhs_check",
    "act",
    "compose_subgroup",
    "fundamental_vf",
]

FIELD_IDS = (1, 2, 3, 4, 5)

# non-vanishing brackets: (a, b) with a < b -> tuple of (coefficient, field id)
COMMUTATION_TABLE = {
    (1, 3): ((0.5, 1),),
    (1, 4): ((1.0, 5),),
    (2, 3): ((1.0, 2),),
    (2, 4): ((2.0, 3),),
    (2, 5): ((1.0, 1),),
    (3, 4): ((1.0, 4),),
    (3, 5): ((0.5, 5),),
}

# one-parameter subgroup direction -> (coefficient, field id) of the
# derived fundamental vector field
FUNDAMENTAL_CORRESPONDENCE = {
    "lambda1": (-1.0, 1),
    "lambda5": (-1.0, 5),
    "beta": (1.0, 2),
    "gamma": (-1.0, 4),
    "diag": (2.0, 3),
}


def _check_id(i) -> None:
    if i not in FIELD_IDS:
        raise ValueError(f"vector field id must be one of {FIELD_IDS}, got {i}")


def vf_eval(i: int, s) -> tuple:
    """Components (vx, vp) of field i at the phase point s."""
    _check_id(i)
    x, p = s
    r = _momentum_root(p)
    if i == 1:
        return (1.0 / r, 0.0)
    if i == 2:
        return (1.0, 0.0)
    if i == 3:
        return (x, -p)
    if i == 4:
        return (x * x, -2.0 * x * p)
    return (x / r, 2.0 * r)


def vf_jacobian(i: int, s) -> np.ndarray:
    """Closed-form Jacobian d(vx, vp)/d(x, p) of field i at s."""
    _check_id(i)
    x, p = s
    r = _momentum_root(p)
    if i == 1:
        return np.array([[0.0, 0.5 / r**3], [0.0, 0.0]])
    if i == 2:
        return np.zeros((2, 2))
    if i == 3:
        return np.array([[1.0, 0.0], [0.0, -1.0]])
    if i == 4:
        return np.array([[2.0 * x, 0.0], [-2.0 * p, -2.0 * x]])
    return np.array([[1.0 / r, 0.5 * x / r**3], [0.0, -1.0 / r]])


def lie_bracket(a: int, b: int, s) -> tuple:
    """[Xa, Xb] at s, from the closed-form values and Jacobians."""
    va = np.asarray(vf_eval(a, s))
    vb = np.asarray(vf_eval(b, s))
    out = vf_jacobian(b, s) @ va - vf_jacobian(a, s) @ vb
    return (out[0], out[1])


def _table_bracket(a: int, b: int):
    """Expected bracket as (coefficient, field) terms, antisymmetrized."""
    if a == b:
        return ()
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    return tuple((sign * c, i) for c, i in COMMUTATION_TABLE.get((a, b), ()))


def check_commutation_table(points) -> float:
    """Max component-wise deviation of computed brackets from the table,
    over all 10 unordered pairs and all supplied points."""
    worst = 0.0
    for s in points:
        for a in FIELD_IDS:
            for b in FIELD_IDS:
                if a >= b:
                    continue
                got = np.asarray(lie_bracket(a, b, s))
                expected = np.zeros(2)
                for coeff, i in _table_bracket(a, b):
                    expected += coeff * np.asarray(vf_eval(i, s))
                worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


def bracket_coefficients(u, v) -> np.ndarray:
    """Bracket of two algebra elements given as coefficient 5-vectors,
    computed bilinearly from the table; returns a coefficient 5-vector."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.zeros(5)
    for a in FIELD_IDS:
        for b in FIELD_IDS:
            w = u[a - 1] * v[b - 1]
            if w == 0.0:
                continue
            for coeff, i in _table_bracket(a, b):
                out[i - 1] += w * coeff
    return out


def _basis(i: int) -> np.ndarray:
    e = np.zeros(5)
    e[i - 1] = 1.0
    return e


def levi_structure_check() -> dict:
    """Structure assertions on the table constants.

    Checks, purely at the level of coefficients: the span of {X2, X3, X4}
    closes and realizes the sl(2) constants through the basis change
    e = X2, h = -2 X3, f = -X4; the span of {X1, X5} is abelian; and it is
    an ideal of the full algebra.  Returns pass/fail per assertion.
    """
    semisimple = (2, 3, 4)
    radical = (1, 5)

    def supported_on(vec, ids):
        others = [i - 1 for i in FIELD_IDS if i not in ids]
        return bool(np.all(vec[others] == 0.0))

    v2_closes = all(
        supported_on(bracket_coefficients(_basis(a), _basis(b)), semisimple)
        for a in semisimple
        for b in semisimple
    )

    e, h, f = _basis(2), -2.0 * _basis(3), -1.0 * _basis(4)
    v2_sl2 = (
        np.array_equal(bracket_coefficients(h, e), 2.0 * e)
        and np.array_equal(bracket_coefficients(h, f), -2.0 * f)
        and np.array_equal(bracket_coefficients(e, f), h)
    )

    v1_abelian = all(
        np.array_equal(bracket_coefficients(_basis(a), _basis(b)), np.zeros(5))
        for a in radical
        for b in radical
    )

    v1_ideal = all(
        supported_on(bracket_coefficients(_basis(a), _basis(b)), radical)
        for a in FIELD_IDS
        for b in radical
    )

    return {
        "v2_closes": v2_closes,
        "v2_sl2_constants": v2_sl2,
        "v1_abelian": v1_abelian,
        "v1_ideal": v1_ideal,
    }


def decompose_rhs_check(P, t: float, s) -> float:
    """Residual of the decomposition of the Hamiltonian RHS into fields:
    max component of |rhs - (X1 - a0 X2 - a1 X3 - a2 X4)| at (t, s)."""
    x, p = s
    rhs = np.asarray(hamilton_rhs(P, t, PhasePoint(x, p)))
    a0, a1, a2 = P.eval(t)
    combo = (
        np.asarray(vf_eval(1, s))
        - a0 * np.asarray(vf_eval(2, s))
        - a1 * np.asarray(vf_eval(3, s))
        - a2 * np.asarray(vf_eval(4, s))
    )
    return float(np.max(np.abs(rhs - combo)))


_UNIMODULAR_TOL = 1e-12


@dataclass(frozen=True)
class GroupElement:
    """Element ((lambda1, lambda5), A) of R^2 x| SL(2, R); det A = 1."""

    lambda1: float
    lambda5: float
    A: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.shape != (2, 2):
            raise ValueError(f"A must be a 2x2 matrix, got shape {A.shape}")
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if abs(det - 1.0) > _UNIMODULAR_TOL:
            raise ValueError(f"A must be unimodular, det A = {det}")
        object.__setattr__(self, "A", A)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(0.0, 0.0, np.eye(2))

    @classmethod
    def translation(cls, lambda1: float, lambda5: float) -> "GroupElement":
        return cls(float(lambda1), float(lambda5), np.eye(2))

    @classmethod
    def special_linear(cls, A) -> "GroupElement":
        return cls(0.0, 0.0, A)

    def is_translation(self) -> bool:
        return bool(np.all(np.abs(self.A - np.eye(2)) <= _UNIMODULAR_TOL))

    def is_special_linear(self) -> bool:
        return abs(self.lambda1) <= _UNIMODULAR_TOL and abs(self.lambda5) <= _UNIMODULAR_TOL


def act(g: GroupElement, s) -> PhasePoint:
    """Action of g on the half-plane O.

    With xb = (alpha x + beta)/(gamma x + delta) and
    pb = p (gamma x + delta)^2, returns
    ((sqrt(-pb) xb - lambda1)/(sqrt(-pb) + lambda5), -(sqrt(-pb) + lambda5)^2).
    """
    x, p = s
    _momentum_root(p)  # DomainError off the half-plane
    alpha, beta = g.A[0]
    gamma, delta = g.A[1]
    den = gamma * x + delta
    if den == 0.0:
        raise DomainError(f"action singular at x={x}: gamma*x + delta = 0")
    xb = (alpha * x + beta) / den
    pb = p * den * den
    root = math.sqrt(-pb) + g.lambda5
    if not root > 0.0:
        raise DomainError(
            f"action leaves the p<0 orbit: sqrt(-pb) + lambda5 = {root} <= 0"
        )
    return PhasePoint((math.sqrt(-pb) * xb - g.lambda1) / root, -root * root)


def compose_subgroup(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Composition within either distinguished subgroup.

    Translations add; SL(2) elements multiply.  Mixed arguments are
    outside the contract and rejected.
    """
    if g1.is_translation() and g2.is_translation():
        return GroupElement.translation(g1.lambda1 + g2.lambda1, g1.lambda5 + g2.lambda5)
    if g1.is_special_linear() and g2.is_special_linear():
        return GroupElement.special_linear(g1.A @ g2.A)
    raise ValueError(
        "compose_subgroup needs both elements pure translation or both pure SL(2)"
    )


def _one_parameter_family(direction: str, s: float) -> GroupElement:
    if direction == "lambda1":
        return GroupElement.translation(s, 0.0)
    if direction == "lambda5":
        return GroupElement.translation(0.0, s)
    if direction == "beta":
        return GroupElement.special_linear(np.array([[1.0, s], [0.0, 1.0]]))
    if direction == "gamma":
        return GroupElement.special_linear(np.array([[1.0, 0.0], [s, 1.0]]))
    if direction == "diag":
        return GroupElement.special_linear(np.diag([math.exp(s), math.exp(-s)]))
    raise ValueError(
        f"direction must be one of lambda1, lambda5, beta, gamma, diag; got {direction!r}"
    )


def fundamental_vf(direction: str, s, h: float = 1e-5) -> tuple:
    """Central finite difference of the action along a one-parameter
    subgroup; the derived correspondences are in FUNDAMENTAL_CORRESPONDENCE."""
    plus = act(_one_parameter_family(direction, h), s)
    minus = act(_one_parameter_family(direction, -h), s)
    return ((plus.x - minus.x) / (2.0 * h), (plus.p - minus.p) / (2.0 * h))
