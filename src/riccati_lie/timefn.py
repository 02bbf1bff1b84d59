"""Analytic scalar functions of time with exact derivatives of every order.

The function class is a finite sum of polynomial, sine, cosine and
exponential terms.  It is closed under differentiation, so any derivative
order requested anywhere in the library is evaluated in closed form --
no finite differencing enters any coefficient.

Coefficients *derived* from these sums through products, quotients and
square roots (the maps between the potential and the cubic-equation
parametrizations need all three) are handled by a small truncated
Taylor-jet layer: a `Jet` holds the Taylor coefficients of a function at
one point, and jet arithmetic propagates them exactly.  A `JetFn` is a
coefficient picture: it builds the jets of all its coefficients at once
and reads any derivative order off them.  Derivatives of derived
coefficients therefore stay closed-form as well.

Text grammar for configuration files::

    timefn  := term (";" term)*
    term    := "poly" real+            Σ c_k t^k
             | "sin"  real real real   A sin(ω t + φ)
             | "cos"  real real real   A cos(ω t + φ)
             | "exp"  real real        A e^{k t}

Tokens are whitespace-separated; reals may use decimal or scientific
notation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, TimeFnSyntaxError

__all__ = [
    "Poly",
    "Sin",
    "Cos",
    "Exp",
    "TimeFn",
    "constant",
    "parse_timefn",
    "render_timefn",
    "Jet",
    "JetFn",
    "Coefficient",
]


@dataclass(frozen=True)
class Poly:
    """Polynomial term Σ coeffs[k] t^k."""

    coeffs: tuple

    def eval(self, t, order=0):
        acc = 0.0
        for k in range(order, len(self.coeffs)):
            acc += self.coeffs[k] * math.perm(k, order) * t ** (k - order)
        return acc


@dataclass(frozen=True)
class Sin:
    """A sin(ω t + φ); n-th derivative cycles through cos, -sin, -cos."""

    amp: float
    omega: float
    phase: float

    def eval(self, t, order=0):
        value = (math.cos if order % 2 else math.sin)(self.omega * t + self.phase)
        if order % 4 >= 2:
            value = -value
        return self.amp * self.omega**order * value


@dataclass(frozen=True)
class Cos:
    """A cos(ω t + φ)."""

    amp: float
    omega: float
    phase: float

    def eval(self, t, order=0):
        value = (math.sin if order % 2 else math.cos)(self.omega * t + self.phase)
        if order % 4 in (1, 2):
            value = -value
        return self.amp * self.omega**order * value


@dataclass(frozen=True)
class Exp:
    """A e^{rate t}; differentiation multiplies by rate."""

    amp: float
    rate: float

    def eval(self, t, order=0):
        return self.amp * self.rate**order * math.exp(self.rate * t)


Term = Union[Poly, Sin, Cos, Exp]


@dataclass(frozen=True)
class TimeFn:
    """A finite sum of closed-form terms, immutable after construction."""

    terms: tuple

    def eval(self, t, order=0):
        """Value (order=0) or exact order-th derivative at time t."""
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        return math.fsum(term.eval(t, order) for term in self.terms)

    def __add__(self, other):
        if not isinstance(other, TimeFn):
            return NotImplemented
        return TimeFn(self.terms + other.terms)


def constant(value) -> TimeFn:
    return TimeFn((Poly((float(value),)),))


# --- grammar ------------------------------------------------------------

_KEYWORDS = ("poly", "sin", "cos", "exp")


def parse_timefn(text: str) -> TimeFn:
    """Parse the term grammar above; raises TimeFnSyntaxError with the
    character position of the offending token."""
    terms = []
    offset = 0
    for piece in text.split(";"):
        tokens = [(m.group(), offset + m.start()) for m in re.finditer(r"\S+", piece)]
        if not tokens:
            raise TimeFnSyntaxError("empty term", offset)
        (keyword, kw_pos), arg_tokens = tokens[0], tokens[1:]
        if keyword not in _KEYWORDS:
            raise TimeFnSyntaxError(f"unknown term keyword {keyword!r}", kw_pos)
        values = []
        for tok, tok_pos in arg_tokens:
            try:
                values.append(float(tok))
            except ValueError:
                raise TimeFnSyntaxError(f"expected a number, got {tok!r}", tok_pos) from None
        if keyword == "poly":
            if not values:
                raise TimeFnSyntaxError("poly needs at least one coefficient", kw_pos)
            terms.append(Poly(tuple(values)))
        elif keyword in ("sin", "cos"):
            if len(values) != 3:
                raise TimeFnSyntaxError(f"{keyword} takes exactly 3 numbers, got {len(values)}", kw_pos)
            terms.append((Sin if keyword == "sin" else Cos)(*values))
        else:
            if len(values) != 2:
                raise TimeFnSyntaxError(f"exp takes exactly 2 numbers, got {len(values)}", kw_pos)
            terms.append(Exp(*values))
        offset += len(piece) + 1
    return TimeFn(tuple(terms))


def _fmt(x: float) -> str:
    """17 significant digits: re-reading gives back the same double."""
    return format(float(x), ".17g")


def render_timefn(f: TimeFn) -> str:
    """Canonical text form; parse_timefn(render_timefn(f)) == f."""
    parts = []
    for term in f.terms:
        if isinstance(term, Poly):
            parts.append("poly " + " ".join(_fmt(c) for c in term.coeffs))
        elif isinstance(term, Sin):
            parts.append(f"sin {_fmt(term.amp)} {_fmt(term.omega)} {_fmt(term.phase)}")
        elif isinstance(term, Cos):
            parts.append(f"cos {_fmt(term.amp)} {_fmt(term.omega)} {_fmt(term.phase)}")
        elif isinstance(term, Exp):
            parts.append(f"exp {_fmt(term.amp)} {_fmt(term.rate)}")
        else:
            raise TypeError(f"unknown term type {type(term).__name__}")
    return "; ".join(parts)


# --- Taylor jets ---------------------------------------------------------


class Jet:
    """Truncated Taylor expansion at a point: coeffs[k] = f^(k)(t) / k!.

    Jets add, subtract, multiply and divide with jets, truncating to the
    shorter operand, so a rule that needs the derivative of an argument
    simply requests one extra order from it; a number can only scale a jet.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @classmethod
    def of(cls, f, t, n: int) -> "Jet":
        """Jet of a time function (anything with .eval(t, order)) to order n."""
        return cls([float(f.eval(t, k)) / math.factorial(k) for k in range(n + 1)])

    def deriv(self, order: int) -> float:
        """The order-th derivative encoded by this jet."""
        return self.coeffs[order] * math.factorial(order)

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative(self) -> "Jet":
        """Jet of f', one order shorter."""
        return Jet((k + 1) * c for k, c in enumerate(self.coeffs[1:]))

    def _pair(self, other):
        n = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:n], other.coeffs[:n]

    def __add__(self, other):
        a, b = self._pair(other)
        return Jet(x + y for x, y in zip(a, b))

    def __sub__(self, other):
        a, b = self._pair(other)
        return Jet(x - y for x, y in zip(a, b))

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            return Jet(
                math.fsum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))
            )
        return Jet(c * other for c in self.coeffs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b[0] == 0.0:
            raise ZeroDivisionError("jet division by a function vanishing at the point")
        out = []
        for k in range(len(a)):
            s = a[k] - math.fsum(b[j] * out[k - j] for j in range(1, k + 1))
            out.append(s / b[0])
        return Jet(out)

    def sqrt(self) -> "Jet":
        a = self.coeffs
        if not a[0] > 0.0:
            raise DomainError(f"jet sqrt needs a positive value at the point, got {a[0]}")
        out = [math.sqrt(a[0])]
        for k in range(1, len(a)):
            s = a[k] - math.fsum(out[j] * out[k - j] for j in range(1, k))
            out.append(s / (2.0 * out[0]))
        return Jet(out)


class JetFn:
    """A coefficient picture: every coefficient evaluated from one jet build.

    Subclasses implement `jets(t, n)`, returning one Jet per coefficient,
    in the order of `names`, each carrying at least n+1 Taylor coefficients.
    `eval` reads the order-th derivative of every coefficient off those
    jets, as a tuple.  A name that is not a field reads as a `Coefficient`.
    """

    names = ()

    def eval(self, t, order=0):
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        return tuple([jet.deriv(order) for jet in self.jets(t, order)])

    def __getattr__(self, name):
        if name not in type(self).names:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return Coefficient(self, type(self).names.index(name))


class Coefficient:
    """One coefficient of a picture read as a time function.  Each `eval`
    builds the whole picture, so it suits single reads, not a hot path."""

    def __init__(self, picture: JetFn, index: int):
        self.picture, self.index = picture, index

    def eval(self, t, order=0):
        return self.picture.eval(t, order)[self.index]
