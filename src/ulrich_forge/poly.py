"""Sparse multivariate polynomials with exact field coefficients.

A polynomial stores ``raw``, a map from exponent tuples to nonzero raw
coefficients (see ``fields``); the zero polynomial has an empty map and
degree ``NEG_INF``.  Every operation computes on raw values through the
field's ``Arith`` record (``field.arith``), and a sum that reaches
``field.arith.zero`` leaves the map.  ``terms``, ``coefficient``,
``sorted_terms``, ``univariate_coefficients`` and ``evaluate`` box
``Scalar``s on the way out.  The canonical term order is graded
lexicographic, largest first, which fixes printing and every report
layout.

Coefficients, scale factors and point coordinates, ints, Fractions or
scalars, enter through ``FieldSpec.coerce``, so a Fraction reads as the
parser reads it and a scalar of another field is a ValueError.

Text grammar (used by the CLI and the tests): terms joined by + or -,
each term a '*'-separated product of numbers, coefficients and variable
powers like ``x0^2`` or ``y``.  Variables are ``x0..xk`` or, for up to
five variables, the aliases x y z t w.  Coefficients with two field
components must be parenthesized, e.g. ``(1+2i)*x*y``; parentheses
delimit such scalar literals only and never group.  A bare ``i`` over
the Gaussian rationals is accepted as a factor.

``parse_poly`` reads a text in one pass over one token list: the
inferred arity comes from the same tokens, counting only names outside
parenthesized coefficients, and each term enters one raw map through
``_accumulate`` as its coefficient (the product of its numeric factors,
each distinct literal parsed once) and its summed exponents.

The module owns exponent tuples: ``_units`` and ``_linear_form`` build
the variables and linear forms, and ``_strides``/``_code``/``_decode``
code a tuple as sum a_i * s_i in a mixed radix and back, for the
Macaulay columns of ``graded`` and the packing of ``poly_matrix_det``
too.  ``_recombines(pairs, target)`` is the one exact check that a sum
of products l*m is a given polynomial (``quadform.SumOfProducts`` and
``veronese.FormDecomposition`` rest on it): every term product goes
into one map keyed by monomial codes, never through a ``Poly`` per pair.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache, reduce
from itertools import accumulate
from types import MappingProxyType

from .fields import GAUSSIAN, _power, raw_parts, scalar_text

NEG_INF = float("-inf")

_ALIASES = "xyztw"


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, lexicographically descending."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return out


def term_key(exps):
    """Sort key putting graded-lex largest terms first under reverse=True."""
    return (sum(exps), exps)


def _accumulate(ar, acc, pairs):
    """Add (exponents, nonzero raw value) pairs into the dict acc, keeping only nonzero sums."""
    add, zero = ar.add, ar.zero
    get = acc.get
    for exps, v in pairs:
        s = get(exps)
        if s is not None:
            v = add(s, v)
            if v == zero:
                del acc[exps]
                continue
        acc[exps] = v
    return acc


@lru_cache(maxsize=None)
def _units(n):
    """The exponent tuples of x_0, ..., x_{n-1}."""
    return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))


def _linear_form(field, row):
    """The linear form sum row[i] * x_i of a row of raw values."""
    zero = field.arith.zero
    return Poly._make(field, len(row), {u: v for u, v in zip(_units(len(row)), row) if v != zero})


def _strides(radices):
    """The place values 1, r_0, r_0*r_1, ... of the mixed radix (r_0, r_1, ...)."""
    return list(accumulate(radices[:-1], operator.mul, initial=1))


def _code(exps, strides):
    """The integer sum a_i * s_i of an exponent tuple a, one-to-one on parts below their radices."""
    return sum(map(operator.mul, exps, strides))


def _decode(code, radices):
    """The exponent tuple whose code in the mixed radix (r_0, r_1, ...) is ``code``."""
    exps = []
    for r in radices:
        code, a = divmod(code, r)
        exps.append(a)
    return tuple(exps)


def _product_codes(pairs, field, nvars, top=0):
    """(radices, {code: raw}): sum(l * m) over a sequence of polynomial pairs, in one accumulation.

    A monomial a enters as its code in the radix base, base, ..., so a
    product's code is the sum of its factors' codes.  base exceeds
    deg l + deg m for every pair, and ``top``; it thus exceeds every
    exponent of the products and of a polynomial of degree at most
    ``top``, and two such polynomials are equal exactly when their code
    maps are.  A factor from another ring is a ValueError.
    """
    ar = field.arith
    add, mul, zero = ar.add, ar.mul, ar.zero
    degree = top
    for l, m in pairs:
        if any(h.field != field or h.nvars != nvars for h in (l, m)):
            raise ValueError("polynomials from different rings")
        degree = max(degree, max(map(sum, l.raw), default=0) + max(map(sum, m.raw), default=0))
    radices = (degree + 1,) * nvars
    strides = _strides(radices)
    acc, codes = {}, {}

    def encoded(raw):
        out = []
        for e, v in raw.items():
            code = codes.get(e)
            if code is None:
                code = codes[e] = _code(e, strides)
            out.append((code, v))
        return out

    for l, m in pairs:
        right = encoded(m.raw)
        for a, u in encoded(l.raw):
            for b, v in right:
                c = a + b
                if c in acc:
                    acc[c] = add(acc[c], mul(u, v))
                else:
                    acc[c] = mul(u, v)
    return radices, {c: v for c, v in acc.items() if v != zero}


def _recombines(pairs, target):
    """Whether sum(l * m) over the pairs is exactly the polynomial target, compared on codes."""
    radices, acc = _product_codes(pairs, target.field, target.nvars, max(map(sum, target.raw), default=0))
    strides = _strides(radices)
    return acc == {_code(e, strides): v for e, v in target.raw.items()}


def _product_sum(pairs, field, nvars):
    """The polynomial sum(l * m) over the pairs, its codes read back into exponents."""
    radices, acc = _product_codes(pairs, field, nvars)
    return Poly._make(field, nvars, {_decode(code, radices): v for code, v in acc.items()})


def _term_values(raw, coords, ar):
    """The raw values c * x^m, one per term of a raw map {m: c}, at raw coordinates."""
    mul = ar.mul
    # powers[i] lists x_i^0, x_i^1, ..., as far as an exponent has asked
    powers = [[ar.one, x] for x in coords]
    values = []
    for exps, c in raw.items():
        for row, e in zip(powers, exps):
            if e:
                while len(row) <= e:
                    row.append(mul(row[-1], row[1]))
                c = mul(c, row[e])
        values.append(c)
    return values


class Poly:
    """An immutable sparse polynomial over a fixed field and arity.

    ``raw`` is a read-only map from exponent tuples to nonzero raw
    coefficients, so an object built from a polynomial, and its hash,
    never go stale; ``terms`` boxes them into ``Scalar``s on each read.
    """

    __slots__ = ("field", "nvars", "raw")

    def __init__(self, field, nvars, terms=None):
        raw = {}
        if terms:
            of, zero = field.arith.of, field.arith.zero
            for exps, coeff in terms.items():
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
                v = of(field.coerce(coeff))
                if v != zero:
                    raw[exps] = v
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "raw", MappingProxyType(raw))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _make(cls, field, nvars, raw):
        """Trusted constructor: raw already canonical (no zeros), read-only from here on."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        if type(raw) is not MappingProxyType:
            raw = MappingProxyType(raw)
        object.__setattr__(self, "raw", raw)
        return self

    @classmethod
    def zero(cls, field, nvars):
        return cls._make(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, value):
        return cls.monomial(field, (0,) * nvars, value)

    @classmethod
    def variable(cls, field, nvars, index):
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        return cls._make(field, nvars, {_units(nvars)[index]: field.arith.one})

    @classmethod
    def monomial(cls, field, exps, coeff=1):
        v = field.arith.of(field.coerce(coeff))
        if v == field.arith.zero:
            return cls.zero(field, len(exps))
        return cls._make(field, len(exps), {tuple(exps): v})

    @classmethod
    def linear_form(cls, field, coeffs):
        """The linear form sum(coeffs[i] * x_i)."""
        return _linear_form(field, [field.arith.of(field.coerce(c)) for c in coeffs])

    # -- basic queries ----------------------------------------------------

    def __bool__(self):
        return bool(self.raw)

    @property
    def is_zero(self):
        return not self.raw

    @property
    def terms(self):
        """The coefficients as ``Scalar``s, {exponents: scalar}."""
        box = self.field.arith.box
        return {e: box(v) for e, v in self.raw.items()}

    def degree(self):
        if not self.raw:
            return NEG_INF
        return max(sum(e) for e in self.raw)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.raw}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """Degree of a homogeneous polynomial (NEG_INF for zero)."""
        degs = {sum(e) for e in self.raw}
        if not degs:
            return NEG_INF
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def coefficient(self, exps):
        v = self.raw.get(tuple(exps))
        return self.field.zero if v is None else self.field.arith.box(v)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_key(kv[0]), reverse=True)

    def variables_used(self):
        used = set()
        for exps in self.raw:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return used

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("polynomials from different rings")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.raw.items())))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        raw = _accumulate(self.field.arith, self.raw.copy(), other.raw.items())
        return Poly._make(self.field, self.nvars, raw)

    def __neg__(self):
        neg = self.field.arith.neg
        return Poly._make(self.field, self.nvars, {e: neg(v) for e, v in self.raw.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.__rmul__(other)
        self._check(other)
        ar = self.field.arith
        mul = ar.mul
        products = (
            (tuple(map(operator.add, e1, e2)), mul(c1, c2))
            for e1, c1 in self.raw.items()
            for e2, c2 in other.raw.items()
        )
        return Poly._make(self.field, self.nvars, _accumulate(ar, {}, products))

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def scale(self, c):
        """The polynomial times an int, a Fraction or a scalar of its field."""
        ar = self.field.arith
        c = ar.of(self.field.coerce(c))
        if c == ar.zero:
            return Poly.zero(self.field, self.nvars)
        mul = ar.mul
        return Poly._make(self.field, self.nvars, {e: mul(c, v) for e, v in self.raw.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take nonnegative integers")
        return _power(operator.mul, Poly.constant(self.field, self.nvars, 1))(self, n)

    # -- calculus and maps --------------------------------------------------

    def partial_derivative(self, index):
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        ar = self.field.arith
        multiples = {}  # e -> the raw value of the integer e
        raw = {}
        for exps, c in self.raw.items():
            e = exps[index]
            if e:
                if e not in multiples:
                    multiples[e] = ar.of(self.field.coerce(e))
                c = ar.mul(c, multiples[e])
                if c != ar.zero:
                    raw[exps[:index] + (e - 1,) + exps[index + 1 :]] = c
        return Poly._make(self.field, self.nvars, raw)

    def gradient(self):
        return [self.partial_derivative(i) for i in range(self.nvars)]

    def evaluate(self, point):
        """The value at a point of scalars, ints or Fractions, summed on raw values."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        ar = self.field.arith
        values = _term_values(self.raw, map(ar.of, map(self.field.coerce, point)), ar)
        return ar.box(reduce(ar.add, values, ar.zero))

    def set_variable(self, index, value):
        """Substitute a scalar for one variable (stays in the same ring)."""
        field = self.field
        ar = field.arith
        value = ar.of(field.coerce(value))
        if value == ar.zero:  # every term that holds the variable dies
            raw = {e: c for e, c in self.raw.items() if not e[index]}
            return Poly._make(field, self.nvars, raw)
        pairs = (
            (exps[:index] + (0,) + exps[index + 1 :], ar.mul(c, ar.pow(value, exps[index])))
            if exps[index]
            else (exps, c)
            for exps, c in self.raw.items()
        )
        return Poly._make(field, self.nvars, _accumulate(ar, {}, pairs))

    def substitute_monomials(self, images):
        """Ring map sending variable i to the monomial images[i].

        All images must be exponent tuples of one common arity and one
        common positive degree; the result lives in that arity.
        """
        if len(images) != self.nvars:
            raise ValueError("need exactly one image per variable")
        images = [tuple(im) for im in images]
        arities = {len(im) for im in images}
        if len(arities) != 1:
            raise ValueError("images with mixed arities")
        degs = {sum(im) for im in images}
        if len(degs) != 1 or degs.pop() < 1:
            raise ValueError("images must share one positive degree")
        nvars_out = arities.pop()

        def image(exps):
            out = [0] * nvars_out
            for e, im in zip(exps, images):
                if e:
                    for j, f in enumerate(im):
                        out[j] += e * f
            return tuple(out)

        pairs = ((image(exps), c) for exps, c in self.raw.items())
        return Poly._make(self.field, nvars_out, _accumulate(self.field.arith, {}, pairs))

    def embed(self, target_field=None):
        """The polynomial over the extension of its field (fp2 over fp, qi over q)."""
        field = self.field
        if target_field is None:
            target_field = field.extension()
        if target_field == field:
            return self
        if target_field is not field.extension():
            raise ValueError(f"cannot embed {field} into {target_field}")
        pad = target_field.arith.zero[1]
        return Poly._make(target_field, self.nvars, {e: (v, pad) for e, v in self.raw.items()})

    def univariate_raw(self, index=None):
        """Dense ascending list of the raw coefficients of a one-variable polynomial."""
        used = self.variables_used()
        if index is None:
            if len(used) > 1:
                raise ValueError("polynomial involves several variables")
            index = used.pop() if used else 0
        elif used - {index}:
            raise ValueError("polynomial involves other variables")
        coeffs = [self.field.arith.zero] * (max((e[index] for e in self.raw), default=0) + 1)
        for exps, v in self.raw.items():
            coeffs[exps[index]] = v
        return coeffs

    def univariate_coefficients(self, index=None):
        """``univariate_raw`` with ``Scalar`` coefficients."""
        return list(map(self.field.arith.box, self.univariate_raw(index)))

    # -- text ---------------------------------------------------------------

    def _var_name(self, i):
        return _ALIASES[i] if self.nvars <= len(_ALIASES) else f"x{i}"

    def __str__(self):
        if not self.raw:
            return "0"
        kind = self.field.kind
        pieces = []
        for exps in sorted(self.raw, key=term_key, reverse=True):
            mono = "*".join(
                self._var_name(i) + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            a, b = raw_parts(self.field, self.raw[exps])
            sign = "+"
            if not b and a < 0:
                sign, a = "-", -a
            cs = scalar_text(kind, a, b)
            if b:
                cs = f"({cs})"
            if not mono:
                body = cs
            elif cs == "1":
                body = mono
            else:
                body = f"{cs}*{mono}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly({self} over {self.field}, {self.nvars} vars)"


def random_homogeneous(field, nvars, degree, rng, span=9):
    """A random homogeneous polynomial with full monomial support allowed."""
    terms = {exps: field.random_scalar(rng, span) for exps in monomials_of_degree(nvars, degree)}
    return Poly(field, nvars, terms)


_TOKEN = re.compile(r"\d+(?:/\d+)?|[A-Za-z]\w*|[-+*^()]")
_OPERATORS = frozenset("+-*^()")
_ALIAS_INDEX = {name: i for i, name in enumerate(_ALIASES)}


def _tokenize(text):
    """The text's numbers, names and operators, in order; whitespace only separates them."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):
        # findall skipped a character no token starts with: find the first one
        pos = 0
        for token in tokens:
            start = text.find(token, pos)
            if text[pos:start].strip():
                break
            pos = start + len(token)
        raise ValueError(f"cannot tokenize polynomial near {text[pos:].strip()[:12]!r}")
    return tokens


def _name_index(name):
    """The index a variable name stands for (x0, x1, ... or an alias); None for other tokens."""
    index = _ALIAS_INDEX.get(name)
    if index is None and name[:1] == "x" and name[1:].isdecimal():
        index = int(name[1:])
    return index


def _variable_index(name, nvars):
    index = _name_index(name)
    if index is not None and index < nvars:
        return index
    if index is not None and name not in _ALIAS_INDEX:
        raise ValueError(f"variable {name} exceeds arity {nvars}")
    raise ValueError(f"unknown variable {name!r} for arity {nvars}")


def _arity(tokens):
    """Smallest arity covering the variable names outside parenthesized coefficients."""
    outside = tokens
    if "(" in tokens:
        outside, group = [], False
        for token in tokens:
            group = token == "(" or group and token != ")"
            if not group:
                outside.append(token)
    best = 0
    for name in set(outside):
        index = _name_index(name)
        if index is not None and index >= best:
            best = index + 1
    return max(best, 1)


def infer_nvars(text):
    """Smallest arity covering the variables outside the text's parenthesized coefficients."""
    return _arity(_tokenize(text))


def _unexpected(token):
    if not token:
        return ValueError("unexpected end of polynomial")
    return ValueError(f"unexpected {token!r} in polynomial")


def _parse_terms(tokens, field, nvars):
    """The raw term map of a token list that ends in the marker "".

    Each term's coefficient is the product of its numeric factors and
    coefficient groups, its exponents the sum of its variable powers;
    every literal goes through ``field.parse_scalar`` once per call.
    """
    ar = field.arith
    mul, neg, zero, one = ar.mul, ar.neg, ar.zero, ar.one
    # the raw i of a bare "i" factor over qi
    unit = (zero[0], one[0]) if field.kind == GAUSSIAN else None
    scalars, indices, terms = {}, {}, []

    def scalar(literal):
        value = scalars.get(literal)
        if value is None:
            value = scalars[literal] = ar.of(field.parse_scalar(literal))
        return value

    negative = tokens[0] == "-"
    pos = 1 if negative or tokens[0] == "+" else 0
    while True:
        coeff, exps = one, [0] * nvars
        while True:
            token = tokens[pos]
            pos += 1
            if token == "(":
                try:
                    end = tokens.index(")", pos)
                except ValueError:
                    raise ValueError("unbalanced parenthesis in polynomial") from None
                coeff = mul(coeff, scalar("".join(tokens[pos:end])))
                pos = end + 1
            elif token in _OPERATORS or not token:
                raise _unexpected(token)
            elif token[0].isdecimal():
                coeff = mul(coeff, scalar(token))
            elif token == "i" and unit:
                coeff = mul(coeff, unit)
            else:
                index = indices.get(token)
                if index is None:
                    index = indices[token] = _variable_index(token, nvars)
                if tokens[pos] == "^":
                    exponent = tokens[pos + 1]
                    if not exponent[:1].isdecimal() or "/" in exponent:
                        raise ValueError("exponent must be a nonnegative integer")
                    exps[index] += int(exponent)
                    pos += 2
                else:
                    exps[index] += 1
            if tokens[pos] != "*":
                break
            pos += 1
        if coeff != zero:
            terms.append((tuple(exps), neg(coeff) if negative else coeff))
        token = tokens[pos]
        if token == "+" or token == "-":
            negative = token == "-"
            pos += 1
        elif token:
            raise _unexpected(token)
        else:
            return _accumulate(ar, {}, terms)


def parse_poly(text, field, nvars=None):
    """Parse polynomial text over the given field.

    When ``nvars`` is omitted it is inferred from the variables used,
    which makes ``x^2+y^2`` two-variable; pass the arity explicitly when
    trailing variables do not appear; an explicit ``nvars`` below 1 is a
    ValueError.  The text is tokenized once, and the inferred arity is
    read from the same tokens.
    """
    if nvars is not None and nvars < 1:
        raise ValueError(f"need at least one variable, got {nvars}")
    tokens = _tokenize(text)
    if nvars is None:
        nvars = _arity(tokens)
    tokens.append("")
    return Poly._make(field, nvars, _parse_terms(tokens, field, nvars))
