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
derived coefficient picture: it builds the jets of all its coefficients
at once and reads any derivative order off them, so its derivatives stay
closed-form as well.

Text grammar for configuration files::

    timefn  := term (";" term)*
    term    := "poly" real+            Σ c_k t^k
             | "sin"  real real real   A sin(ω t + φ)
             | "cos"  real real real   A cos(ω t + φ)
             | "exp"  real real        A e^{k t}

The grammar is read off the term classes: each has a `keyword`, and a
fixed-arity term takes one number per dataclass field.  Tokens are
whitespace-separated; reals may use decimal or scientific notation, and
must be finite.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
import re
from dataclasses import astuple, dataclass, fields

from .errors import DomainError, NumericError, TimeFnSyntaxError

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

    keyword = "poly"

    def eval(self, t, order=0):
        coeffs = self.coeffs
        # the order-0 loop below spelled out for one or two coefficients: t ** 0 is 1.0, t ** 1 is t
        if len(coeffs) <= 2 and not order:
            return coeffs[0] + 0.0 if len(coeffs) == 1 else coeffs[0] + 0.0 + coeffs[1] * t
        acc = 0.0
        if not order:  # perm(k, 0) is 1, and c * 1 is exact
            for k, c in enumerate(coeffs):
                acc += c * t ** k
            return acc
        for k in range(order, len(coeffs)):
            acc += coeffs[k] * math.perm(k, order) * t ** (k - order)
        return acc

    def slope_bound(self, t0, t1):
        """An upper bound of |d/dt| on [t0, t1], from the Taylor expansion of
        the derivative at the midpoint m: Σ_j |p^(j)(m)| h^(j-1) / (j-1)!
        with h the half-width, so it tightens to |p'(m)| on a narrow interval."""
        m, h = 0.5 * (t0 + t1), 0.5 * abs(t1 - t0)
        return sum(abs(self.eval(m, j)) * h ** (j - 1) / math.factorial(j - 1)
                   for j in range(1, len(self.coeffs)))


@dataclass(frozen=True)
class _Trig:
    """A sin(ω t + φ + quarter_turns π/2); the n-th derivative is
    A ω^n sin(ω t + φ + (quarter_turns + n) π/2), read off the four-cycle
    sin, cos, -sin, -cos.  Sin and Cos spell it out at order 0, where
    ω ** 0 is 1.0."""

    amp: float
    omega: float
    phase: float

    quarter_turns = 0

    def eval(self, t, order=0):
        turns = order + self.quarter_turns
        value = (math.cos if turns % 2 else math.sin)(self.omega * t + self.phase)
        if turns % 4 >= 2:
            value = -value
        return self.amp * self.omega**order * value

    def slope_bound(self, t0, t1):
        """min(|A ω|, |f'(m)| + |A| ω² h), m the midpoint and h the half-width."""
        m, h = 0.5 * (t0 + t1), 0.5 * abs(t1 - t0)
        slope = abs(self.amp * self.omega)
        return min(slope, abs(self.eval(m, 1)) + slope * abs(self.omega) * h)


class Sin(_Trig):
    """A sin(ω t + φ)."""

    keyword = "sin"

    def eval(self, t, order=0):
        if not order:
            return self.amp * math.sin(self.omega * t + self.phase)
        return super().eval(t, order)


class Cos(_Trig):
    """A cos(ω t + φ): a sine a quarter turn ahead."""

    keyword = "cos"
    quarter_turns = 1

    def eval(self, t, order=0):
        if not order:
            return self.amp * math.cos(self.omega * t + self.phase)
        return super().eval(t, order)


@dataclass(frozen=True)
class Exp:
    """A e^{rate t}; differentiation multiplies by rate."""

    amp: float
    rate: float

    keyword = "exp"

    def eval(self, t, order=0):
        return self.amp * self.rate**order * math.exp(self.rate * t)

    def slope_bound(self, t0, t1):
        return abs(self.amp * self.rate) * math.exp(max(self.rate * t0, self.rate * t1))


@dataclass(frozen=True)
class TimeFn:
    """A finite sum of closed-form terms, immutable after construction."""

    terms: tuple

    def eval(self, t, order=0):
        """Value (order=0) or exact order-th derivative at time t: the
        correctly rounded sum of the terms, which math.fsum gives, and for one
        or two terms a + b + 0.0 gives too (IEEE a + b is the correctly rounded
        sum of two finite doubles, and + 0.0 turns -0.0 into fsum's 0.0).
        NumericError where a term or the sum is not finite."""
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        terms = self.terms
        try:
            if len(terms) == 2:
                value = terms[0].eval(t, order) + terms[1].eval(t, order) + 0.0
            elif len(terms) == 1:
                value = terms[0].eval(t, order) + 0.0
            else:
                value = math.fsum([term.eval(t, order) for term in terms])
            if math.isfinite(value):
                return value
        # ValueError: math.sin of an argument, or math.fsum of terms, that overflowed to inf
        except (OverflowError, ValueError):
            pass
        raise NumericError(f"overflow evaluating a time function at t={t}")

    def slope_bound(self, t0, t1):
        """An upper bound of |f'| on [t0, t1], from each term's closed-form derivative."""
        return math.fsum(term.slope_bound(t0, t1) for term in self.terms)


def constant(value) -> TimeFn:
    return TimeFn((Poly((float(value),)),))


# --- grammar ------------------------------------------------------------

_TERMS = {cls.keyword: cls for cls in (Poly, Sin, Cos, Exp)}


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
        cls = _TERMS.get(keyword)
        if cls is None:
            raise TimeFnSyntaxError(f"unknown term keyword {keyword!r}", kw_pos)
        values = []
        for tok, tok_pos in arg_tokens:
            try:
                values.append(float(tok))
            except ValueError:
                raise TimeFnSyntaxError(f"expected a number, got {tok!r}", tok_pos) from None
            if not math.isfinite(values[-1]):
                raise TimeFnSyntaxError(f"expected a finite number, got {tok!r}", tok_pos)
        if cls is Poly:
            if not values:
                raise TimeFnSyntaxError("poly needs at least one coefficient", kw_pos)
            values = [tuple(values)]
        elif len(values) != len(fields(cls)):
            raise TimeFnSyntaxError(f"{keyword} takes exactly {len(fields(cls))} numbers, "
                                    f"got {len(values)}", kw_pos)
        terms.append(cls(*values))
        offset += len(piece) + 1
    return TimeFn(tuple(terms))


# 17 significant digits: re-reading gives back the same double
FLOAT_SPEC = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_SPEC)


def render_timefn(f: TimeFn) -> str:
    """Canonical text form; parse_timefn(render_timefn(f)) == f."""
    parts = []
    for term in f.terms:
        numbers = term.coeffs if isinstance(term, Poly) else astuple(term)
        parts.append(term.keyword + " " + " ".join(_fmt(x) for x in numbers))
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
        """Jet of a time function (anything with .eval(t, order)) to order n, read from n down."""
        return cls([float(f.eval(t, k)) / math.factorial(k) for k in range(n, -1, -1)][::-1])

    def deriv(self, order: int) -> float:
        """The order-th derivative encoded by this jet."""
        return self.coeffs[order] * math.factorial(order)

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative(self) -> "Jet":
        """Jet of f', one order shorter."""
        return Jet([(k + 1) * c for k, c in enumerate(self.coeffs[1:])])

    # map truncates to the shorter operand by itself
    def __add__(self, other):
        return Jet(map(operator.add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return Jet(map(operator.sub, self.coeffs, other.coeffs))

    # Every Cauchy sum goes through math.fsum, one term too: it turns -0.0 into
    # 0.0 and raises OverflowError on an intermediate overflow, where a plain +
    # would do neither.
    def __mul__(self, other):
        a = self.coeffs
        if other.__class__ is not Jet:
            return Jet([c * other for c in a])
        b = other.coeffs
        n = len(a) if len(a) < len(b) else len(b)
        return Jet([math.fsum([a[j] * b[k - j] for j in range(k + 1)]) for k in range(n)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self.coeffs, other.coeffs
        n = len(a) if len(a) < len(b) else len(b)
        if b[0] == 0.0:
            raise ZeroDivisionError("jet division by a function vanishing at the point")
        out = [a[0] / b[0]]  # a[0] - math.fsum([]) is a[0]
        for k in range(1, n):
            s = a[k] - math.fsum([b[j] * out[k - j] for j in range(1, k + 1)])
            out.append(s / b[0])
        return Jet(out)

    def sqrt(self) -> "Jet":
        a = self.coeffs
        if not a[0] > 0.0:
            raise DomainError(f"jet sqrt needs a positive value at the point, got {a[0]}")
        root = math.sqrt(a[0])
        out = [root]
        for k in range(1, len(a)):
            s = a[k] - math.fsum([out[j] * out[k - j] for j in range(1, k)])
            out.append(s / (2.0 * root))
        return Jet(out)


class JetFn:
    """A derived coefficient picture: every coefficient evaluated from one jet build.

    Subclasses implement `jets(t, n)`, one Jet per coefficient of `names` to
    order n or more, which only `eval` calls: it reads the order-th derivative
    of every coefficient off them, as a tuple (NumericError on an overflow in
    the jet arithmetic).  Each name that is not a field is a `Coefficient` view.
    A subclass may also implement `floats(t)`, the same values at order 0 in
    plain floats, with the bits of the jets' order-0 coefficients wherever the
    jets return; `eval` then builds order 0 from it, with no jets.

    `eval` keeps its last build (t, order, jets and values, out of `==`, `hash`
    and `repr`) and serves any read at that t of an order no higher from it, to
    the bit: a jet's k-th coefficient does not depend on the order built.  DP5
    stages 5 and 6 share t + h, and a reader asks for its highest order first.
    An order-0 build through `floats` keeps no jets, so a higher order at its t
    builds again.
    A zero t hits only with the last build's sign: 0.0 == -0.0, but their coefficients may differ.
    """

    names = ()
    floats = None
    _last = (None, -1, (), ())  # (t, order, jets, values) of the last build

    def __init_subclass__(cls):
        annotated = {name for klass in cls.__mro__ for name in inspect.get_annotations(klass)}
        for index, name in enumerate(cls.names):
            if name not in annotated:
                setattr(cls, name, property(functools.partial(Coefficient, index=index)))

    def eval(self, t, order=0):
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        last_t, built, jets, values = self._last
        if t != last_t or order > built or (not t and math.copysign(1.0, t) != math.copysign(1.0, last_t)):
            try:
                if order or self.floats is None:
                    jets = self.jets(t, order)
                    values = tuple([jet.coeffs[0] for jet in jets])
                else:
                    jets, values = (), self.floats(t)
            # math.fsum's intermediate overflow, or its inf - inf, in a jet product, quotient or sqrt
            except (OverflowError, ValueError):
                raise NumericError(f"overflow evaluating the coefficient jets at t={t}") from None
            self.__dict__["_last"] = t, order, jets, values
        return tuple([jet.deriv(order) for jet in jets]) if order else values  # 0! is 1, and c * 1.0 is c


class Coefficient:
    """One coefficient of a picture read as a time function.  An `eval`
    builds the whole picture, but reads at one t, through any of its
    coefficients, share one build as long as none asks for a higher order
    than the first: a reader asks for its highest order first."""

    def __init__(self, picture: JetFn, index: int):
        self.picture, self.index = picture, index

    def eval(self, t, order=0):
        return self.picture.eval(t, order)[self.index]
