"""Numpy-only formulas the benchmark checks the program against.

Nothing here imports `riccati_lie`: potentials are term lists in the
config grammar's shape, evaluated directly, so every reference value is
independent of the code under test.
"""

from __future__ import annotations

import math

import numpy as np


def eval_terms(terms, t):
    """Value of a term list at t (a float or an array).

    A term is ["poly", [c0, c1, ...]], ["sin", A, w, phi] or
    ["cos", A, w, phi], as in the config grammar.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for term in terms:
        if term[0] == "poly":
            out = out + np.polynomial.polynomial.polyval(t, term[1])
        else:
            amp, omega, phase = term[1:]
            shift = 0.0 if term[0] == "sin" else math.pi / 2  # cos(u) = sin(u + pi/2)
            out = out + amp * np.sin(omega * t + phase + shift)
    return out


def potential_U(pot, t, x):
    """U(t, x) = a0 + a1 x + a2 x^2 for pot = {"a0": terms, "a1": ..., "a2": ...}."""
    return eval_terms(pot["a0"], t) + x * (eval_terms(pot["a1"], t) + x * eval_terms(pot["a2"], t))


class LeftHalfPlane(ArithmeticError):
    """A reference solution reached p >= 0."""


def scalar_fn(terms):
    """Plain-float evaluator t -> value of a term list; the scipy RHS calls
    it a few thousand times per solution, where numpy's per-call overhead
    would dominate."""
    polys = [tuple(reversed(term[1])) for term in terms if term[0] == "poly"]
    # cos(u) = sin(u + pi/2)
    waves = [(term[1], term[2], term[3] + (0.0 if term[0] == "sin" else math.pi / 2))
             for term in terms if term[0] != "poly"]

    def f(t):
        acc = 0.0
        for coeffs in polys:
            value = 0.0
            for c in coeffs:
                value = value * t + c
            acc += value
        for amp, omega, phase in waves:
            acc += amp * math.sin(omega * t + phase)
        return acc

    return f


def hamilton_rhs(pot):
    """d(x, p)/dt = (1/sqrt(-p) - U, p dU/dx), for scipy's solve_ivp.
    Raises LeftHalfPlane when a stage reaches p >= 0."""
    a0, a1, a2 = (scalar_fn(pot[k]) for k in ("a0", "a1", "a2"))

    def rhs(t, y):
        x, p = y
        if not p < 0.0:
            raise LeftHalfPlane(f"p = {p} at t = {t}")
        b1, b2 = a1(t), a2(t)
        return [1.0 / math.sqrt(-p) - (a0(t) + x * (b1 + x * b2)), p * (b1 + 2.0 * b2 * x)]

    return rhs


def momentum_from_velocity(pot, t, x, v):
    """Legendre map p = -1/(v + U)^2 of a Lagrangian-picture output."""
    w = v + potential_U(pot, t, x)
    return -1.0 / (w * w)


def cyclic_F0(x1, p1, x2, p2, x3, p3):
    """F0 = (x1-x2) s1 s2 + (x2-x3) s2 s3 + (x3-x1) s3 s1 with s = sqrt(-p)."""
    s1, s2, s3 = np.sqrt(-p1), np.sqrt(-p2), np.sqrt(-p3)
    return (x1 - x2) * s1 * s2 + (x2 - x3) * s2 * s3 + (x3 - x1) * s3 * s1


def f0_drift(triple):
    """Drift of F0 along three (x, p) solutions sampled on one grid, relative
    to max(1, |F0(t0)|)."""
    (x1, p1), (x2, p2), (x3, p3) = triple
    f0 = cyclic_F0(x1, p1, x2, p2, x3, p3)
    return float(np.max(np.abs(f0 - f0[0]))) / max(1.0, abs(float(f0[0])))


def canonical_solution(x0, p0, t):
    """Exact solution of the canonical potential (0, 0, 1) from (x0, p0) at t=0.

    With y = 1 + x0 t + C t^2 and C = 1/(2 sqrt(-p0)), x = y'/y solves
    x'' + 3 x x' + x^3 = 0; p = -y^2/(4 C^2) and v = x' = (2 C y - y'^2)/y^2.
    Valid while y > 0.  Returns (x, p, v).
    """
    t = np.asarray(t, dtype=float)
    C = 1.0 / (2.0 * math.sqrt(-p0))
    y = 1.0 + x0 * t + C * t * t
    dy = x0 + 2.0 * C * t
    return dy / y, -(y * y) / (4.0 * C * C), (2.0 * C * y - dy * dy) / (y * y)
