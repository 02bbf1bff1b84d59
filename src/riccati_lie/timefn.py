"""Analytic scalar functions of time with exact derivatives of every order.

The function class is a finite sum of polynomial, sine, cosine and
exponential terms.  It is closed under differentiation, so any derivative
order requested anywhere in the library is evaluated in closed form --
no finite differencing enters any coefficient.  A sum is read through a flat
function of t compiled once per shape from its terms' templates (`_read_code`).

A `Picture` is the coefficients of one equation, read as a tuple: the
potential's three time functions, or a picture derived from another.
Every picture reads order 0 through one compiled function of its time
functions, built from its `template`, and its field dy/dt through one
more, which runs the field's lines after that read.

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
import types
from dataclasses import dataclass, fields

from .errors import DomainError, NumericError, RiccatiLieError, TimeFnSyntaxError

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
    "Picture",
    "JetFn",
    "Coefficient",
    "uncompiled_field",
]


class _Term:
    """A term: `params` are its numbers, as its class's `template` names them; `eval` is its compiled read."""

    _reads = functools.cached_property(lambda self: _Reads((self,), raw=True))

    def eval(self, t, order=0):
        return self._reads[order](t)


def _times_power(x, base, n):
    """Source of x * base ** n without its exact factors: base ** 0 is 1.0, base ** 1 is base."""
    return x if not n else f"{x} * {base}" if n == 1 else f"{x} * {base} ** {n}"


@dataclass(frozen=True)
class Poly(_Term):
    """Polynomial term Σ coeffs[k] t^k."""

    coeffs: tuple

    keyword = "poly"
    params = property(operator.attrgetter("coeffs"))

    @staticmethod
    def template(c, n, lines):
        """s = 0.0, then s += c_k perm(k, n) t^(k-n) from k = n up without its exact factors (a perm
        of 1 too), as flat statements: no poly is too long for the compiler's recursion limit.  Each
        t^j past t is computed once, at the top of `lines`, as tj: the same `pow`, so the same bits."""
        products = [f"{c[k]} * {math.perm(k, n)}" if math.perm(k, n) > 1 else c[k] for k in range(n, len(c))]
        for k in range(2, len(products)):
            if (power := f"t{k} = t ** {k}") not in lines:
                lines.insert(0, power)
        terms = [x if not k else f"{x} * t" if k == 1 else f"{x} * t{k}" for k, x in enumerate(products)]
        lines += [f"s{c[0]} = 0.0", *[f"s{c[0]} += {x}" for x in terms]]
        return f"s{c[0]}"

    def slope_bound(self, t0, t1):
        """An upper bound of |d/dt| on [t0, t1], from the Taylor expansion of
        the derivative at the midpoint m: Σ_j |p^(j)(m)| h^(j-1) / (j-1)!
        with h the half-width, so it tightens to |p'(m)| on a narrow interval."""
        m, h = 0.5 * (t0 + t1), 0.5 * abs(t1 - t0)
        return sum(abs(self.eval(m, j)) * h ** (j - 1) / math.factorial(j - 1)
                   for j in range(1, len(self.coeffs)))


@dataclass(frozen=True)
class _Trig(_Term):
    """A sin(ω t + φ + quarter_turns π/2); the n-th derivative is
    A ω^n sin(ω t + φ + (quarter_turns + n) π/2), read off the four-cycle
    sin, cos, -sin, -cos."""

    amp: float
    omega: float
    phase: float

    quarter_turns = 0
    params = property(operator.attrgetter("amp", "omega", "phase"))

    @classmethod
    def template(cls, names, n, lines):
        # the function first: it raises ValueError before ω ** n's OverflowError; x * y is y * x to the bit
        amp, omega, phase = names
        turns = n + cls.quarter_turns
        return f"{'-' * (turns % 4 >= 2)}{('sin', 'cos')[turns % 2]}({omega} * t + {phase}) * " \
               f"({_times_power(amp, omega, n)})"

    def slope_bound(self, t0, t1):
        """min(|A ω|, |f'(m)| + |A| ω² h), m the midpoint and h the half-width."""
        m, h = 0.5 * (t0 + t1), 0.5 * abs(t1 - t0)
        slope = abs(self.amp * self.omega)
        return min(slope, abs(self.eval(m, 1)) + slope * abs(self.omega) * h)


class Sin(_Trig):
    """A sin(ω t + φ)."""

    keyword = "sin"


class Cos(_Trig):
    """A cos(ω t + φ): a sine a quarter turn ahead."""

    keyword = "cos"
    quarter_turns = 1


@dataclass(frozen=True)
class Exp(_Term):
    """A e^{rate t}; differentiation multiplies by rate."""

    amp: float
    rate: float

    keyword = "exp"
    params = property(operator.attrgetter("amp", "rate"))

    @staticmethod
    def template(names, n, lines):
        return f"{_times_power(names[0], names[1], n)} * exp({names[1]} * t)"

    def slope_bound(self, t0, t1):
        return abs(self.amp * self.rate) * math.exp(max(self.rate * t0, self.rate * t1))


@dataclass(frozen=True)
class TimeFn:
    """A finite sum of closed-form terms, immutable after construction."""

    terms: tuple

    _reads = functools.cached_property(lambda self: _Reads(self.terms))

    def eval(self, t, order=0):
        """Value (order=0) or exact order-th derivative at time t: the
        correctly rounded sum of the terms (see `_read_code`).
        NumericError where a term or the sum is not finite."""
        if (value := self._reads[order](t)) is not None:
            return value
        raise NumericError(f"overflow evaluating a time function at t={t}")

    def slope_bound(self, t0, t1):
        """An upper bound of |f'| on [t0, t1], from each term's closed-form derivative."""
        return math.fsum(term.slope_bound(t0, t1) for term in self.terms)


# --- compiled reads ------------------------------------------------------

def _sqrt(x):  # a jet's square root at its point
    if not x > 0.0:
        raise DomainError(f"jet sqrt needs a positive value at the point, got {x}")
    return math.sqrt(x)


_NAMESPACE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "fsum": math.fsum, "sqrt": math.sqrt,
              "jet_sqrt": _sqrt, "isfinite": math.isfinite, "RiccatiLieError": RiccatiLieError}


@functools.lru_cache(maxsize=1024)
def _read_code(shape, reads, lines, names, check, field=None):
    """The code of `read(t, *params, *names)`: each (name, i, order) of `reads` assigns name the order-th derivative
    of leaf i: where the leaf is None, its one param through `.eval`; else a sum's terms ((term class, number of
    params) pairs), with a `check` as a + 0.0 or a + b + 0.0 (fsum's correctly rounded sum of finite terms; + 0.0
    turns -0.0 into its 0.0) or fsum, with none as a one-term sum's term, a term's own read.  Then `lines` run, the
    last the values returned; with a `check`, None where a line or a leaf's `.eval` raises ArithmeticError,
    ValueError or a RiccatiLieError, or the check of the values is false.  No config number is in its source.

    With a `field` (coefficients, field lines) the code is of `read(t, y, *params, *names)`, and `eval` is one of
    `names`: it binds the values to the coefficients, which the check reads, and to `eval(t)`'s where it fails,
    then runs the field lines over them and the state y, and returns the last."""
    params, code = [], []
    for i, terms in enumerate(shape):
        params += [f"leaf{i}"] if terms is None else [f"k{i}_{j}_{m}" for j, (_, n) in enumerate(terms)
                                                       for m in range(n)]
    for name, i, order in reads:
        parts = [f"({cls.template([f'k{i}_{j}_{m}' for m in range(n)], order, code)})"
                 for j, (cls, n) in enumerate(shape[i] or ())]
        code.append(f"{name} = " + (f"float(leaf{i}.eval(t, {order}))" if shape[i] is None else parts[0] if not check
                                    else " + ".join([*parts, "0.0"]) if len(parts) <= 2
                                    else f"fsum([{', '.join(parts)}])"))
    *code, values = code + list(lines)
    target = ", ".join(field[0]) if field else "values"
    code += [f"{target} = {values}"] if values != target else []  # a potential's values are its coefficients
    if check:
        code = ["try:", *[f"    {line}" for line in code], f"    ok = {check}",
                "except (ArithmeticError, ValueError, RiccatiLieError):", "    ok = False"]
    values = "values if ok else None" if check else "values"
    if field:
        *code, values = [*code, *(["if not ok:", f"    {target} = eval(t)"] if check else []), *field[1]]
        params.insert(0, "y")
    exec(compile("\n    ".join([f"def read(t, {', '.join(params + list(names))}):", *code, f"return {values}"]),
                 "<timefn read>", "exec"), _NAMESPACE, namespace := {})
    return namespace["read"].__code__


def _compiled(leaves, reads, lines, check=None, names=(), field=None):  # bound to leaves, their numbers, `names`
    shape, params = [], []
    for leaf in leaves:
        shape.append(None if hasattr(leaf, "eval") else tuple((type(term), len(term.params)) for term in leaf))
        params += [leaf] if shape[-1] is None else [x for term in leaf for x in term.params]
    code = _read_code(tuple(shape), reads, lines, tuple(name for name, _ in names), check, field)
    return types.FunctionType(code, _NAMESPACE, "read", (*params, *(value for _, value in names)))


def uncompiled_field(names, lines):
    """The field of `lines` over the coefficients `names` and the state y, the last the derivative, as
    `read(t, y, eval)`: they run over `eval(t)`, for any picture's `eval`.  A picture's `rhs` is the
    same lines compiled with its order-0 read."""
    return types.FunctionType(_read_code((), (), ("eval(t)",), ("eval",), None, (names, lines)), _NAMESPACE, "read")


class _Reads(dict):
    """order -> the compiled read of a sum of terms, bound on first use: finite, or with `raw` a one-term sum's term."""

    def __init__(self, terms, raw=False):
        self.terms, self.raw = terms, raw

    def __reduce__(self):  # pickled without the compiled reads, which it builds again on use
        return _Reads, (self.terms, self.raw)

    def __missing__(self, order):
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        read = self[order] = _compiled((self.terms,), (("v", 0, order),), ("v",), None if self.raw else "isfinite(v)")
        return read


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
    return "; ".join(term.keyword + " " + " ".join(_fmt(x) for x in term.params) for term in f.terms)


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
        root = _sqrt(a[0])
        out = [root]
        for k in range(1, len(a)):
            s = a[k] - math.fsum([out[j] * out[k - j] for j in range(1, k)])
            out.append(s / (2.0 * root))
        return Jet(out)


class Picture:
    """A coefficient picture: the coefficients `names` of one equation, read as a tuple by `eval(t, k)`.

    A picture may give its order 0 as a `template` (leaves, reads, lines, names): `_read_code` reads of the
    time functions at the attribute paths `leaves`, then `lines` of float arithmetic, the last the values.
    `floats(t)` reads each leaf through its `eval`, which gives the error lines.  `inline(t)` decides leaf by
    leaf: it inlines the terms of a TimeFn of floats and reads any other leaf through its `eval`, as `floats`
    does, and returns the same values, or None where a line or a leaf's `eval` raises or the values' sum,
    written out term by term, is not finite.  `eval` reads order 0 from `inline`, else from `floats`, which
    raises the first failure in the order the leaves are read.

    A picture with a template may give its field dy/dt as `field`: lines of arithmetic over `names` and a
    state y, the last the derivative, which `uncompiled_field` runs over `eval(t)`.  `rhs(t, y)` runs them
    over `inline`'s values, else over `eval(t)`'s, which is that uncompiled field: the same values, or the
    same exception.  `floats`, `inline` and `rhs` are each compiled once per shape, built on first use and
    left out of a pickle.
    """

    names = ()
    template = None
    field = None

    # inline: a TimeFn of floats as its terms, which read to the bits of its eval, as floats
    def _map(self, inline, field=None):
        paths, reads, lines, names = self.template
        leaves = operator.attrgetter(*paths)(self)
        if inline:
            leaves = [leaf.terms if type(leaf) is TimeFn
                      and {type(x) for term in leaf.terms for x in term.params} <= {float} else leaf for leaf in leaves]
        terms = self.names if field else [f"values[{i}]" for i in range(len(self.names))]
        check = f"isfinite({' + '.join(terms)})" if inline else None
        if field:
            names += (("eval", self.eval),)
        return _compiled(leaves, reads, lines, check=check, names=names, field=field and (self.names, field))

    floats = functools.cached_property(lambda self: self.template and self._map(inline=False))
    inline = functools.cached_property(lambda self: self.template and self._map(inline=True))
    rhs = functools.cached_property(lambda self: self.field and self._map(inline=True, field=self.field))

    def __getstate__(self):  # without the compiled reads, which are built again on use
        return {name: value for name, value in vars(self).items() if name not in ("floats", "inline", "rhs")}


class JetFn(Picture):
    """A derived coefficient picture: every coefficient evaluated from one jet build.

    Subclasses implement `jets(t, n)`, one Jet per coefficient of `names` to
    order n or more, which only `eval` calls: it reads the order-th derivative
    of every coefficient off them, as a tuple (NumericError on an overflow in
    the jet arithmetic, or naming the first coefficient whose value it would
    return is not finite).  Each name that is not a field is a `Coefficient` view.
    A `template` is `jets` at n = 0: `floats` returns the bits of the jets'
    order 0 wherever the jets return, and `eval` builds order 0 through the
    template, with no jets.

    `eval` keeps its last build (t, order, jets and values, out of `==`, `hash`
    and `repr`) and serves any read at that t of an order no higher from it, to
    the bit: a jet's k-th coefficient does not depend on the order built.  An
    accepted DOP853 step's stages 12 and 13 share t + h, and a reader asks for
    its highest order first.
    An order-0 build keeps no jets, so a higher order at its t builds again.
    A zero t hits only with the last build's sign: 0.0 == -0.0, but their coefficients may differ.
    """

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
                    jets, values = (), self.inline(t) or self.floats(t)
            # math.fsum's intermediate overflow, or its inf - inf, in a jet product, quotient or sqrt
            except (OverflowError, ValueError):
                raise NumericError(f"overflow evaluating the coefficient jets at t={t}") from None
            self.__dict__["_last"] = t, order, jets, values
        values = tuple([jet.deriv(order) for jet in jets]) if order else values  # 0! is 1, and c * 1.0 is c
        if not math.isfinite(sum(values)):  # a value that is not finite, or a sum that overflows
            for name, value in zip(self.names, values):
                if not math.isfinite(value):
                    raise NumericError(f"coefficient {name} is not finite at t={t}")
        return values


class Coefficient:
    """One coefficient of a picture read as a time function.  An `eval`
    builds the whole picture, but reads at one t, through any of its
    coefficients, share one build as long as none asks for a higher order
    than the first: a reader asks for its highest order first."""

    def __init__(self, picture: JetFn, index: int):
        self.picture, self.index = picture, index

    def eval(self, t, order=0):
        return self.picture.eval(t, order)[self.index]
