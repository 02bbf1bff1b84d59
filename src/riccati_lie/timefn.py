"""Analytic scalar functions of time with exact derivatives of every order.

The function class is a finite sum of polynomial, sine, cosine and
exponential terms.  It is closed under differentiation, so any derivative
order requested anywhere in the library is evaluated in closed form --
no finite differencing enters any coefficient.  A sum is read through a flat
function of t compiled once per shape from its terms' templates (`_read_code`).

A `Picture` is the coefficients of one equation, read as a tuple through
compiled functions of its time functions, and its field dy/dt through one
more.  Coefficients *derived* from the sums through products, quotients and
square roots (the maps between the potential and the cubic-equation
parametrizations need all three) are stated once over truncated Taylor
jets: a `Jet` holds the Taylor coefficients of a function at one point, and
jet arithmetic propagates them exactly.  A `JetFn`'s `jets` build them for
all its coefficients; run once per class and order over placeholder floats
(`_trace`), they write its reads' source, so no jet arithmetic runs when a
derived picture is read.

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
import collections
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

    _reads = functools.cached_property(lambda self: _Reads(functools.partial(_sum_read, (self,), False)))

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
        """An upper bound of |d/dt| on [t0, t1], from the Taylor coefficients a_j of the polynomial at the
        midpoint m, taken in floats by repeated synthetic division: Σ_j j |a_j| h^(j-1) with h the
        half-width, so it tightens to |p'(m)| on a narrow interval."""
        m, h, a = 0.5 * (t0 + t1), 0.5 * abs(t1 - t0), list(self.coeffs)
        for i in range(len(a) - 1):
            for k in range(len(a) - 2, i - 1, -1):
                a[k] += m * a[k + 1]
        return sum(j * abs(a[j]) * h ** (j - 1) for j in range(1, len(a)))


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

    _reads = functools.cached_property(lambda self: _Reads(functools.partial(_sum_read, self.terms, True)))

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

_NAMESPACE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "fsum": math.fsum, "sqrt": math.sqrt,
              "isfinite": math.isfinite, "RiccatiLieError": RiccatiLieError, "DomainError": DomainError}


@functools.lru_cache(maxsize=1024)
def _read_code(shape, lines, names, check, field=()):
    """The code of `read(t, *params)`: `lines` run in turn and `names` are assigned the last.  A line is source, or
    a read (name, i, order, *checked) that assigns name the order-th derivative of leaf i: where its shape is None,
    its one param through `.eval`; else a sum's terms ((term class, number of params) pairs), with a `check` as
    a + 0.0 or a + b + 0.0 (fsum's correctly rounded sum of finite terms; + 0.0 turns -0.0 into its 0.0) or fsum,
    with none as a one-term sum's term, a term's own read.  It returns `names`; with a `check`, None where a line
    or a leaf's `.eval` raises ArithmeticError, ValueError or a RiccatiLieError, or `names` and the `checked` sums
    do not sum to a finite number.  With `field` lines it is `read(t, y, *params, eval)`: where the check fails,
    `names` are `eval(t)`'s, and it runs the field over them and the state y and returns the last.  No config
    number is in its source."""
    params, code, sums = [], [], []
    for i, terms in enumerate(shape):
        params += [f"leaf{i}"] if terms is None else [f"k{i}_{j}_{m}" for j, (_, n) in enumerate(terms)
                                                       for m in range(n)]
    for line in lines:
        if type(line) is not str:
            name, i, order, *checked = line
            parts = [f"({cls.template([f'k{i}_{j}_{m}' for m in range(n)], order, code)})"
                     for j, (cls, n) in enumerate(shape[i] or ())]
            sums += [name] if shape[i] is not None and checked else []
            line = f"{name} = " + (f"float(leaf{i}.eval(t, {order}))" if shape[i] is None else parts[0] if not check
                                   else " + ".join([*parts, "0.0"]) if len(parts) <= 2
                                   else f"fsum([{', '.join(parts)}])")
        code.append(line)
    *code, values = code
    target = ", ".join(names)
    code += [f"{target} = {values}"] if values != target else []  # a potential's values are its coefficients
    if check:
        code = ["try:", *[f"    {line}" for line in code], f"    ok = isfinite({' + '.join([*sums, *names])})",
                "except (ArithmeticError, ValueError, RiccatiLieError):", "    ok = False"]
    values = f"({target}) if ok else None" if check and not field else target
    if field:
        *code, values = [*code, *(["if not ok:", f"    {target} = eval(t)"] if check else []), *field]
        params = ["y", *params, "eval"]
    exec(compile("\n    ".join([f"def read(t, {', '.join(params)}):", *code, f"return {values}"]),
                 "<timefn read>", "exec"), _NAMESPACE, namespace := {})
    return namespace["read"].__code__


def _compiled(leaves, lines, names, check, field=(), evaluate=None):  # bound to leaves, their numbers, `evaluate`
    shape, params = [], []
    for leaf in leaves:
        shape.append(None if hasattr(leaf, "eval") else tuple((type(term), len(term.params)) for term in leaf))
        params += [leaf] if shape[-1] is None else [x for term in leaf for x in term.params]
    code = _read_code(tuple(shape), tuple(lines), tuple(names), check, tuple(field))
    return types.FunctionType(code, _NAMESPACE, "read", (*params, evaluate) if field else tuple(params))


def uncompiled_field(names, lines):
    """The field of `lines` over the coefficients `names` and the state y, the last the derivative, as
    `read(t, y, eval)`: they run over `eval(t)`, for any picture's `eval`.  A picture's `rhs` is the
    same lines compiled with its order-0 read."""
    return types.FunctionType(_read_code((), ("eval(t)",), tuple(names), False, tuple(lines)), _NAMESPACE, "read")


def _sum_read(terms, check, order):  # a sum of terms' compiled read: finite, or unchecked a one-term sum's term
    return _compiled((terms,), (("v", 0, order), "v"), ("v",), check)


class _Reads(dict):
    """order -> the compiled read `build(order)`, built on first use, and left out of a pickle."""

    def __init__(self, build):
        self.build = build

    def __reduce__(self):
        return _Reads, (self.build,)

    def __missing__(self, order):
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        read = self[order] = self.build(order)
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

def _fsum(terms):  # math.fsum; traced, its line, a one-term sum x + 0.0 (the same bits, -0.0 to 0.0 too)
    if terms and type(terms[0]) is _Var:
        return terms[0].trace.line(f"{terms[0]!r} + 0.0" if len(terms) == 1 else f"fsum({terms!r})")
    return math.fsum(terms)


class Jet:
    """Truncated Taylor expansion at a point: coeffs[k] = f^(k)(t) / k!.

    Jets add, subtract, multiply and divide with jets, truncating to the
    shorter operand, so a rule that needs the derivative of an argument
    simply requests one extra order from it; a number can only scale a jet.
    Over a trace's placeholder floats (`_Var`) every operation writes source.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @classmethod
    def of(cls, f, t, n: int) -> "Jet":
        """Jet of a time function (anything with .eval(t, order)) to order n, read from n down; traced, of the leaf
        of index f, whose reads are lines (name, f, order)."""
        if type(t) is _Var:
            names = [f"j{len(t.trace) + n - k}" for k in range(n + 1)]
            t.trace += [(names[k], f, k) for k in range(n, -1, -1)]
            return cls([_Var(t.trace, name) / math.factorial(k) for k, name in enumerate(names)])
        return cls([float(f.eval(t, k)) / math.factorial(k) for k in range(n, -1, -1)][::-1])

    @staticmethod
    def require(condition, error):
        """Raise error() where condition is false; traced, the line that does, once per condition."""
        if type(condition) is not _Var:
            if not condition:
                raise error()
        elif condition.name not in (trace := condition.trace).tested:
            trace.tested.add(condition.name)
            trace.append(f"if not ({condition!r}): raise {type(exc := error()).__name__}(f{str(exc)!r})")

    def deriv(self, order: int) -> float:
        """The order-th derivative encoded by this jet."""
        return self.coeffs[order] * math.factorial(order)

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
        return Jet([_fsum([a[j] * b[k - j] for j in range(k + 1)]) for k in range(n)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self.coeffs, other.coeffs
        n = len(a) if len(a) < len(b) else len(b)
        Jet.require(b[0] != 0.0, lambda: ZeroDivisionError("jet division by a function vanishing at the point"))
        out = [a[0] / b[0]]  # a[0] - math.fsum([]) is a[0]
        for k in range(1, n):
            s = a[k] - _fsum([b[j] * out[k - j] for j in range(1, k + 1)])
            out.append(s / b[0])
        return Jet(out)

    def sqrt(self) -> "Jet":
        a = self.coeffs
        Jet.require(a[0] > 0.0, lambda: DomainError(f"jet sqrt needs a positive value at the point, got {a[0]}"))
        out = [root := a[0].trace.line(f"sqrt({a[0]!r})") if type(a[0]) is _Var else math.sqrt(a[0])]
        for k in range(1, len(a)):
            s = a[k] - _fsum([out[j] * out[k - j] for j in range(1, k)])
            out.append(s / (2.0 * root))
        return Jet(out)


# --- traced reads --------------------------------------------------------

class _Var:
    """A placeholder float of a traced `jets` run, by its name: an operation on it is a line of the trace, a
    comparison the source of a test (`Jet.require`), and in an error message the value read."""

    def __init__(self, trace, name):
        self.trace, self.name = trace, name

    __repr__ = lambda self: self.name
    __format__ = lambda self, spec: f"{{{self.name}}}"


def _operator(symbol, reflected):
    def method(a, b):  # x * 1, 1 * x, x / 1 and x - 0.0 are x, to the bit
        if f"{symbol}{b!r}" in ("*1", "/1", "-0.0") and (symbol == "*" or not reflected):
            return a
        source = f"{b!r} {symbol} {a!r}" if reflected else f"{a!r} {symbol} {b!r}"
        return _Var(a.trace, source) if symbol in "!=>" else a.trace.line(source)
    return method


for _name, _symbol in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/"), ("gt", ">"), ("ne", "!=")):
    setattr(_Var, f"__{_name}__", _operator(_symbol, False))
    setattr(_Var, f"__r{_name}__", _operator(_symbol, True))


class _Trace(list):
    """A traced `jets` run: its lines, of source and of reads (name, leaf index, order), and the conditions `tested`."""

    def __init__(self):
        super().__init__()
        self.tested, self.t = set(), _Var(self, "t")

    def line(self, source):
        self.append(f"{(name := f'j{len(self)}')} = {source}")
        return _Var(self, name)


_NAME, _assigned = r"\bj\d+\b", functools.partial(re.fullmatch, r"(j\d+) = (.*)")  # a placeholder, and its line


@functools.cache
def _trace(cls, order):
    """The lines of a `cls` picture's read of `order`, once per process: its `jets(t, order)` traced with its i-th
    field leaf i, then the values, the order-th derivatives.  A line no later one reads goes, but past order 0 an
    `fsum`, which can raise: so order 0 computes no order that no value needs, and a higher order raises what the
    jets raise.  A line read once that cannot raise goes into its use.  A read is checked (`_read_code`) unless a
    value reaches it other than through a divisor."""
    trace = _Trace()
    values = ", ".join(repr(jet.deriv(order)) for jet in cls(*range(len(fields(cls)))).jets(trace.t, order))
    lines, reached, uses = [*trace, values], set(re.findall(_NAME, values)), collections.Counter()
    for i in reversed(range(len(lines))):
        if type(lines[i]) is tuple:
            lines[i] += () if lines[i][0] in reached else (True,)
            continue
        target, source = m.groups() if (m := _assigned(lines[i])) else (None, lines[i])
        if target in reached:  # so are its operands, but a divisor
            reached.update(re.findall(_NAME, source.partition(" / ")[0]))
        raises = "fsum(" in source  # so it is never moved, nor left out past order 0
        if target and not uses[target] and not (order and raises):
            del lines[i]
            continue
        if target and uses[target] == 1 and not raises:
            del lines[i]
            use = next(j for j in range(i, len(lines)) if re.search(rf"\b{target}\b", str(lines[j])))
            lines[use] = re.sub(rf"\b{target}\b", f"({source})", lines[use])
        uses.update(re.findall(_NAME, source))
    return tuple(lines)


class Picture:
    """A coefficient picture: the coefficients `names` of one equation, read as a tuple by `eval(t, k)`.

    An order is read through functions `_read_code` compiles from a subclass's `_lines(order)`: the leaves (its
    time functions) and lines over their reads, the last the values.  `floats(t)` reads each leaf through its
    `eval`, which gives the error lines; `inline(t)` inlines the terms of a TimeFn of floats: the same values, or
    None where a line or a leaf's `eval` raises or their sum is not finite.  `eval` reads `inline`, else `floats`,
    which raises the first failure in the order the leaves are read.  A `field` is dy/dt, lines over `names` and a
    state y, the last the derivative: `uncompiled_field` runs them over `eval(t)`, `rhs(t, y)` over `inline`'s
    values, else `eval(t)`'s.  Each read is compiled once per shape, built on first use and left out of a pickle.
    """

    names = ()
    field = None

    def _map(self, order, inline, field=()):  # a TimeFn of floats inline as its terms, which read to its bits
        leaves, lines = self._lines(order)
        if inline:
            leaves = [leaf.terms if type(leaf) is TimeFn
                      and {type(x) for term in leaf.terms for x in term.params} <= {float} else leaf for leaf in leaves]
        return _compiled(leaves, lines, self.names, inline, field, self.eval)

    floats = functools.cached_property(lambda self: self._map(0, inline=False))
    inline = functools.cached_property(lambda self: self._map(0, inline=True))
    rhs = functools.cached_property(lambda self: self.field and self._map(0, inline=True, field=self.field))

    def __getstate__(self):  # without the compiled reads, which are built again on use
        return {name: value for name, value in vars(self).items() if type(value) is not types.FunctionType}


class JetFn(Picture):
    """A derived picture, stated once as `jets(t, n)`: a Jet per coefficient of `names` to order n or more, of
    `Jet.of` reads of its dataclass fields, time functions or views of a picture.  An order's lines are `jets` traced
    (`_trace`); `eval` reads `_inlines[order]`, else `_floats[order]`: NumericError on an overflow in their
    arithmetic, or naming the first value that is not finite.  A name that is not a field is a `Coefficient`
    view, read through its picture's `eval`."""

    _inlines = functools.cached_property(lambda self: _Reads(functools.partial(self._map, inline=True)))
    _floats = functools.cached_property(lambda self: _Reads(functools.partial(self._map, inline=False)))

    def __init_subclass__(cls):
        annotated = {name for klass in cls.__mro__ for name in inspect.get_annotations(klass)}
        for index, name in enumerate(cls.names):
            if name not in annotated:
                setattr(cls, name, property(functools.partial(Coefficient, index=index)))

    def _lines(self, order):
        return [getattr(self, field.name) for field in fields(self)], _trace(type(self), order)

    def eval(self, t, order=0):
        if (values := self._inlines[order](t)) is None:
            try:
                values = self._floats[order](t)
            # math.fsum's intermediate overflow, or its inf - inf, in a jet product, quotient or sqrt
            except (OverflowError, ValueError):
                raise NumericError(f"overflow evaluating the coefficient jets at t={t}") from None
            if bad := [name for name, value in zip(self.names, values) if not math.isfinite(value)]:
                raise NumericError(f"coefficient {bad[0]} is not finite at t={t}")
        return values


class Coefficient:
    """One coefficient of a picture read as a time function: its `eval` reads the whole picture."""

    def __init__(self, picture: JetFn, index: int):
        self.picture, self.index = picture, index

    def eval(self, t, order=0):
        return self.picture.eval(t, order)[self.index]
