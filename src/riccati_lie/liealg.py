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
on O, affine in (x sqrt(-p), sqrt(-p)), is `act` and whose law is `compose`,
each on one element or a stack; `group_law` checks that law over a batch.

`fields` writes the five closed forms and their hand-derived Jacobians
once, as arrays over any number of points; everything else here reads
them from it.  Bracket convention: [X, Y]^i = X^j d_j Y^i - Y^j d_j X^i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import PhasePoint, _from_affine, _to_affine, hamilton_rhs

__all__ = [
    "FIELD_IDS",
    "COMMUTATION_TABLE",
    "FUNDAMENTAL_CORRESPONDENCE",
    "GroupElement",
    "fields",
    "lie_bracket",
    "check_commutation_table",
    "levi_structure_check",
    "decompose_rhs_check",
    "act",
    "compose",
    "group_law",
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

# subgroup direction -> rows (m | tau) of its generator: d(u, sigma)/ds = m (u, sigma) + tau
_GENERATORS = {
    "lambda1": ((0.0, 0.0, -1.0), (0.0, 0.0, 0.0)),  # GroupElement(s, 0)
    "lambda5": ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),  # GroupElement(0, s)
    "beta": ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0)),  # A = [[1, s], [0, 1]]
    "gamma": ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),  # A = [[1, 0], [s, 1]]
    "diag": ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0)),  # A = diag(e^s, e^-s)
}


def fields(points) -> tuple:
    """The five fields at one (x, p) point, or at each row of an (N, 2) array.

    Returns the values V, shape (..., 5, 2), and the closed-form Jacobians
    J = d(vx, vp)/d(x, p), shape (..., 5, 2, 2); field Xi sits at index
    i - 1.  A momentum p >= 0 raises DomainError naming the first one.
    """
    x, p = np.asarray(points, dtype=float).T
    _, r = _to_affine(x, p)
    # libm pow whatever the shape (np.power may take a SIMD path on arrays),
    # so one point and a batch give the same bits
    r3 = np.float_power(r, 3)
    # X1..X5 as in the module docstring, entry by entry; the rest stays zero
    V = np.zeros(np.shape(x) + (5, 2))
    J = np.zeros(np.shape(x) + (5, 2, 2))
    V[..., 0, 0] = 1.0 / r
    J[..., 0, 0, 1] = 0.5 / r3
    V[..., 1, 0] = 1.0
    V[..., 2, 0], V[..., 2, 1] = x, -p
    J[..., 2, 0, 0], J[..., 2, 1, 1] = 1.0, -1.0
    V[..., 3, 0], V[..., 3, 1] = x * x, -2.0 * x * p
    J[..., 3, 0, 0], J[..., 3, 1, 0], J[..., 3, 1, 1] = 2.0 * x, -2.0 * p, -2.0 * x
    V[..., 4, 0], V[..., 4, 1] = x / r, 2.0 * r
    J[..., 4, 0, 0], J[..., 4, 0, 1], J[..., 4, 1, 1] = 1.0 / r, 0.5 * x / r3, -1.0 / r
    return V, J


def _structure_constants() -> np.ndarray:
    """C[a-1, b-1] = coefficients of [Xa, Xb] over X1..X5, antisymmetric in
    (a, b); built from COMMUTATION_TABLE on every call."""
    C = np.zeros((5, 5, 5))
    for (a, b), terms in COMMUTATION_TABLE.items():
        for coeff, i in terms:
            C[a - 1, b - 1, i - 1] += coeff
            C[b - 1, a - 1, i - 1] -= coeff
    return C


def _brackets(V: np.ndarray, J: np.ndarray) -> np.ndarray:
    """All 25 brackets [Xa, Xb] = J_b V_a - J_a V_b, at index [..., a-1, b-1, :],
    from the `fields` table V, J at one point or at many."""
    JbVa = (J[..., None, :, :, :] @ V[..., :, None, :, None])[..., 0]
    return JbVa - np.swapaxes(JbVa, -3, -2)


def lie_bracket(a: int, b: int, s) -> tuple:
    """[Xa, Xb] at s, from the closed-form values and Jacobians."""
    for i in (a, b):
        if i not in FIELD_IDS:
            raise ValueError(f"vector field id must be one of {FIELD_IDS}, got {i}")
    out = _brackets(*fields(s))[a - 1, b - 1]
    return (out[0], out[1])


def check_commutation_table(points) -> float:
    """Max component-wise deviation of computed brackets from the table,
    over all 10 unordered pairs and all supplied points."""
    pairs = np.triu_indices(5, 1)
    V, J = fields(np.reshape(points, (-1, 2)))
    deviation = _brackets(V, J)[:, pairs[0], pairs[1]] - _structure_constants()[pairs] @ V
    return float(np.max(np.abs(deviation), initial=0.0))


def levi_structure_check() -> dict:
    """Structure assertions on the table constants.

    Checks, purely at the level of coefficients: the span of {X2, X3, X4}
    closes and realizes the sl(2) constants through the basis change
    e = X2, h = -2 X3, f = -X4; the span of {X1, X5} is abelian; and it is
    an ideal of the full algebra.  Returns pass/fail per assertion.
    """
    C = _structure_constants()
    semisimple = [1, 2, 3]  # X2, X3, X4 as indices of C
    radical = [0, 4]  # X1, X5

    def bracket(u, v):
        return np.einsum("a,b,abk->k", u, v, C)

    basis = np.eye(5)
    e, h, f = basis[1], -2.0 * basis[2], -1.0 * basis[3]
    return {
        "v2_closes": not C[np.ix_(semisimple, semisimple, radical)].any(),
        "v2_sl2_constants": (
            np.array_equal(bracket(h, e), 2.0 * e)
            and np.array_equal(bracket(h, f), -2.0 * f)
            and np.array_equal(bracket(e, f), h)
        ),
        "v1_abelian": not C[np.ix_(radical, radical)].any(),
        "v1_ideal": not C[np.ix_(range(5), radical, semisimple)].any(),
    }


def decompose_rhs_check(P, ts, points):
    """Residual of the decomposition of the Hamiltonian RHS into fields, max
    component of |rhs - (X1 - a0 X2 - a1 X3 - a2 X4)|, at a time t and (x, p)
    point, or per row of (N,) times and (N, 2) points.  The RHS and the
    decomposition each evaluate the potential, a derived one through its
    compiled read; a coefficient that is not finite gives a NaN or inf
    residual, not a warning."""
    times, rows = np.ravel(ts).tolist(), np.reshape(points, (-1, 2)).tolist()
    # per time, the RHS and then the coefficients it read: (dx, dp, a0, a1, a2)
    table = np.array([hamilton_rhs(P, t, s) + P.eval(t) for t, s in zip(times, rows)])
    rhs, (a0, a1, a2) = table[:, :2], table[:, 2:, None].swapaxes(0, 1)
    V, _ = fields(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        combo = V[:, 0] - a0 * V[:, 1] - a1 * V[:, 2] - a2 * V[:, 3]
        return np.max(np.abs(rhs - combo), axis=-1).reshape(np.shape(ts))[()]


_UNIMODULAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)  # A is an array: `==` and hash go by identity
class GroupElement:
    """Element ((lambda1, lambda5), A) of R^2 x| SL(2, R), det A = 1, or a stack of N: shapes (N,), (N,), (N, 2, 2)."""

    lambda1: float
    lambda5: float
    A: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.shape[-2:] != (2, 2) or A.ndim > 3:
            raise ValueError(f"A must be a 2x2 matrix or an (N, 2, 2) stack, got shape {A.shape}")
        for det in np.ravel(A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]).tolist():
            if abs(det - 1.0) > _UNIMODULAR_TOL:
                raise ValueError(f"A must be unimodular, det A = {det}")
        object.__setattr__(self, "A", A)


def _affine_map(g: GroupElement, u, sigma) -> tuple:
    """(u, sigma) -> A (u, sigma) + (-lambda1, lambda5), slice by slice on a stack."""
    (alpha, beta), (gamma, delta) = np.moveaxis(g.A, (-2, -1), (0, 1))
    return alpha * u + beta * sigma - g.lambda1, gamma * u + delta * sigma + g.lambda5


def act(g: GroupElement, points):
    """Action of g on O at one (x, p) point, returning a PhasePoint, or at each row of an
    (N, 2) numpy array, by row i's element if g is a stack, returning an (N, 2) array:
    `_affine_map` in the chart (x sqrt(-p), sqrt(-p)), where every new sigma is positive."""
    batch = isinstance(points, np.ndarray) and points.ndim == 2
    u, sigma = _affine_map(g, *_to_affine(*(points.T if batch else points)))  # DomainError off O
    if not (np.all(sigma > 0.0) if batch else sigma > 0.0):
        raise DomainError(f"action leaves the p<0 orbit: sigma = {np.min(sigma)} <= 0")
    x, p = _from_affine(u, sigma)
    return np.stack((x, p), axis=-1) if batch else PhasePoint(x, p)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """The group law: act(compose(g1, g2), s) = act(g1, act(g2, s)).

    With tau = (-lambda1, lambda5), returns (A1 A2, A1 tau2 + tau1), per slice on stacks.
    """
    tau = g1.A @ np.stack((-g2.lambda1, g2.lambda5), axis=-1)[..., None]
    return GroupElement(g1.lambda1 - tau[..., 0, 0], g1.lambda5 + tau[..., 1, 0], g1.A @ g2.A)


def group_law(g1: GroupElement, g2: GroupElement, points) -> tuple:
    """act(compose(g1, g2), s) and act(g1, act(g2, s)) at each row s of an (N, 2)
    array, to those calls' bits, for one element or N-stacks, and the mask of the
    rows where none of the three actions would raise DomainError; other rows hold no value."""
    u, sigma = _to_affine(*np.asarray(points, dtype=float).T)
    with np.errstate(all="ignore"):
        once = _affine_map(compose(g1, g2), u, sigma)
        inner = _affine_map(g2, u, sigma)
        x, p = _from_affine(*inner)
        twice = _affine_map(g1, x * np.sqrt(-p), np.sqrt(-p))
        on_O = (once[1] > 0.0) & (inner[1] > 0.0) & (p < 0.0) & (twice[1] > 0.0)
        return np.stack(_from_affine(*once), axis=-1), np.stack(_from_affine(*twice), axis=-1), on_O


def fundamental_vf(direction: str, points) -> np.ndarray:
    """Fundamental field of a one-parameter subgroup at one (x, p) point, shape
    (2,), or at each row of an (N, 2) array, shape (N, 2): the generator in
    _GENERATORS moves (u, sigma) with velocity (du, dsigma), which x = u/sigma
    and p = -sigma^2 push forward to ((du - x dsigma)/sigma, -2 sigma dsigma).
    FUNDAMENTAL_CORRESPONDENCE lists the fields of the five directions."""
    if direction not in _GENERATORS:
        raise ValueError(f"direction must be one of {', '.join(_GENERATORS)}; got {direction!r}")
    x, p = np.asarray(points, dtype=float).T
    u, sigma = _to_affine(x, p)
    du, dsigma = (a * u + b * sigma + c for a, b, c in _GENERATORS[direction])
    return np.stack(((du - x * dsigma) / sigma, -2.0 * sigma * dsigma), axis=-1)
