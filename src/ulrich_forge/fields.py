"""Exact scalar arithmetic over the supported coefficient fields.

Four fields are available: the rationals ``q``, the Gaussian rationals
``qi``, a prime field ``fp:p`` for an odd prime p, and its quadratic
extension ``fp2:p`` obtained by adjoining a square root of the smallest
quadratic nonresidue.  Characteristic 2 is rejected everywhere; the
quadratic-form machinery divides by 2 freely.

There is one ``FieldSpec`` instance per field, so identity is field
equality; ``zero``, ``one`` and the arithmetic record ``arith`` are
built once with the field.

A raw value is the unboxed form of a field element: an ``int`` residue
over fp, an ``(a, b)`` residue pair over fp2, a ``Fraction`` over q and
a Fraction pair over qi.  ``field.arith``, an ``Arith`` record, holds
the one arithmetic of the field, on raw values: dense elimination in
``linalg``, the coefficients of every ``Poly``, the linear pencils of
``clifford`` and ``Scalar`` itself all compute through it.  ``Scalar``
is the boxed form of a raw value; its operations unwrap the operands,
call the record and box the result once.  Over qi and fp2 the raw zero
``(0, 0)`` is truthy, so a raw value is tested against ``arith.zero``,
never by ``if x``.

A raw value is canonical: over fp an int in [0, p), over fp2 two such
ints, over q a Fraction, over qi two Fractions.  A ``Scalar`` holds
canonical parts (a, b), with b = 0 over fp and b = ``Fraction(0)``
over q, and is made by one of two routes.  ``Scalar(field, a, b)``,
``FieldSpec.scalar`` and ``FieldSpec.coerce`` validate and normalize
values from outside; ``field.arith.box`` wraps a raw value that is
already canonical, without checking it again, and is how the arithmetic
and the library's own constructions box their results.

``FieldSpec.coerce`` is the one way into a field for an int, a Fraction
or a Scalar: n/d enters as the polynomial parser reads it, n * d^-1 mod
p over fp and fp2, and a denominator divisible by p is a ValueError.

Square roots are the ``Arith`` operation ``sqrt``: the canonical raw
root, nonnegative over q and in [0, (p-1)/2] over fp, or None.  Over qi
and fp2 one routine on the base field's raw values finds it, and its
first nonzero part is a canonical base root.  ``sqrt_in_field`` and
``is_square`` box it; ``sqrt_in_field`` raises ``ExtensionNeeded``,
carrying the element, where no root exists in the field.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple

RATIONAL = "q"
GAUSSIAN = "qi"
PRIME = "fp"
PRIME_QUADRATIC = "fp2"

_KINDS = (RATIONAL, GAUSSIAN, PRIME, PRIME_QUADRATIC)


class ExtensionNeeded(Exception):
    """Signals that a square root requires a field extension.

    ``element`` is the scalar whose root would have to be adjoined.
    """

    def __init__(self, element):
        self.element = element
        super().__init__(f"no square root of {element} in {element.field}")


# The first 13 primes decide primality by strong-probable-prime tests
# for every n below psi_13 (Sorenson and Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n < _PRIME_LIMIT."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def legendre(a, p):
    """Legendre symbol of a mod p: 1, -1 or 0."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


@cache
def smallest_nonresidue(p):
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return n


def sqrt_mod_p(a, p):
    """Canonical square root of a mod p, or None if a is a nonresidue.

    Tonelli-Shanks, deterministic because the auxiliary nonresidue is
    the smallest one.  The returned root lies in [0, (p-1)/2].
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = pow(smallest_nonresidue(p), q, p)
    m, c, t, r = s, z, pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def _fraction_sqrt(x):
    """Nonnegative rational square root of a Fraction, or None."""
    if x < 0:
        return None
    from math import isqrt

    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


class FieldSpec:
    """Identifies a coefficient field and owns scalar construction.

    One instance exists per field, so fields compare and hash by
    identity.  ``nu`` is the smallest nonresidue, whose root generates
    the quadratic extension (None outside ``fp2``); ``arith`` is the
    field's ``Arith`` record.
    """

    __slots__ = ("kind", "p", "nu", "zero", "one", "arith")
    _instances = {}

    def __new__(cls, kind, p=0):
        field = cls._instances.get((kind, p))
        if field is not None:
            return field
        if kind not in _KINDS:
            raise ValueError(f"unknown field kind {kind!r}")
        if kind in (PRIME, PRIME_QUADRATIC):
            if p == 2:
                raise ValueError("characteristic 2 is not supported")
            if p >= _PRIME_LIMIT:
                raise ValueError(f"primality of {p} is certified only below {_PRIME_LIMIT}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        else:
            p = 0
        nu = smallest_nonresidue(p) if kind == PRIME_QUADRATIC else None
        field = object.__new__(cls)
        object.__setattr__(field, "kind", kind)
        object.__setattr__(field, "p", p)
        object.__setattr__(field, "nu", nu)
        object.__setattr__(field, "zero", Scalar(field, 0))
        object.__setattr__(field, "one", Scalar(field, 1))
        object.__setattr__(field, "arith", _build_arith(field))
        # q and qi ignore p, so the key may only now match a stored field
        return cls._instances.setdefault((kind, p), field)

    def __setattr__(self, *_):
        raise AttributeError("FieldSpec is immutable")

    @classmethod
    def rationals(cls):
        return cls(RATIONAL)

    @classmethod
    def gaussian_rationals(cls):
        return cls(GAUSSIAN)

    @classmethod
    def prime(cls, p):
        return cls(PRIME, p)

    @classmethod
    def quadratic(cls, p):
        return cls(PRIME_QUADRATIC, p)

    @classmethod
    def parse(cls, text):
        """Parse a field string: q, qi, fp:<p> or fp2:<p>."""
        text = text.strip()
        if text == "q":
            return cls.rationals()
        if text == "qi":
            return cls.gaussian_rationals()
        m = re.fullmatch(r"(fp2?):(\d+)", text)
        if not m:
            raise ValueError(f"cannot parse field {text!r}")
        p = int(m.group(2))
        return cls.prime(p) if m.group(1) == "fp" else cls.quadratic(p)

    @property
    def characteristic(self):
        return self.p

    def __str__(self):
        if self.kind in (PRIME, PRIME_QUADRATIC):
            return f"{self.kind}:{self.p}"
        return self.kind

    def __repr__(self):
        return f"FieldSpec({self})"

    # -- scalar construction -------------------------------------------

    def coerce(self, value):
        """``value``, an int, a Fraction or a Scalar, as an element of this field.

        A Fraction n/d enters as the parser reads the literal n/d: over
        fp and fp2 it is n * d^-1 mod p, and a ValueError when p divides
        d.  A Scalar of another field is a ValueError, any other type a
        TypeError.
        """
        if isinstance(value, Scalar):
            if value.field is not self:
                raise ValueError(f"field mismatch: {self} vs {value.field}")
            return value
        if isinstance(value, int) and self.p:
            return self._box_real(value % self.p)
        return Scalar(self, self._part(value))

    def _part(self, x):
        """An int or a Fraction as one raw component, by the rule of ``coerce``."""
        if isinstance(x, int) or (not self.p and isinstance(x, Fraction)):
            return x
        if not isinstance(x, Fraction):
            raise TypeError(f"cannot bring {type(x).__name__} {x!r} into {self}")
        if not x.denominator % self.p:
            raise ValueError(f"denominator of {x} is not invertible over {self}")
        return x.numerator * pow(x.denominator, -1, self.p)

    def scalar(self, a, b=0):
        """The element a + b*g from int or Fraction parts; g is i over qi, w over fp2."""
        return Scalar(self, self._part(a), self._part(b))

    def from_int(self, n):
        return self.coerce(n)

    def _box_real(self, a):
        """The element a + 0*g, boxed from one canonical component a."""
        if self.kind in (GAUSSIAN, PRIME_QUADRATIC):
            return self.arith.box((a, self.zero.b))
        return self.arith.box(a)

    def imaginary_unit(self):
        """sqrt(-1) when the field contains one, else ExtensionNeeded."""
        return sqrt_in_field(-self.one)

    def extension(self):
        """The field in which missing square roots are adjoined."""
        if self.kind == RATIONAL:
            return FieldSpec.gaussian_rationals()
        if self.kind == PRIME:
            return FieldSpec.quadratic(self.p)
        return self

    def embed(self, s):
        """Re-express a scalar from this field or its base in this field."""
        if s.field == self:
            return s
        if self is not s.field.extension():
            raise ValueError(f"cannot embed {s.field} into {self}")
        return self._box_real(s.a)

    def random_scalar(self, rng, span=9):
        box = self.arith.box
        if self.kind == RATIONAL:
            return box(Fraction(rng.randint(-span, span), rng.randint(1, span)))
        if self.kind == GAUSSIAN:
            a = Fraction(rng.randint(-span, span), rng.randint(1, span))
            return box((a, Fraction(rng.randint(-span, span), rng.randint(1, span))))
        if self.kind == PRIME:
            return box(rng.randrange(self.p))
        return box((rng.randrange(self.p), rng.randrange(self.p)))

    def random_nonzero_scalar(self, rng, span=9):
        while True:
            s = self.random_scalar(rng, span)
            if s:
                return s

    # -- scalar text ----------------------------------------------------

    def parse_scalar(self, text):
        """Parse a scalar literal such as 3/4, 3/4+1/2i, 7 or 7+2w."""
        text = text.replace(" ", "")
        if not text:
            raise ValueError("empty scalar literal")
        real, imag, both = _LITERALS["i" if self.kind in (RATIONAL, GAUSSIAN) else "w"]
        if real.fullmatch(text):
            return self._box_real(self._component(text))
        if self.kind in (GAUSSIAN, PRIME_QUADRATIC):
            if imag.fullmatch(text):
                return self.arith.box((self.zero.b, self._imag_component(text[:-1])))
            m = both.fullmatch(text)
            if m:
                a = self._component(m.group(1))
                return self.arith.box((a, self._imag_component(m.group(2)[:-1])))
        raise ValueError(f"cannot parse scalar {text!r} over {self}")

    def _imag_component(self, text):
        if text in ("", "+"):
            text = "1"
        elif text == "-":
            text = "-1"
        return self._component(text)

    def _component(self, text):
        """A literal n or n/d as one canonical component; p may not divide d as written."""
        p = self.p
        n, _, d = text.partition("/")
        if not d:
            return int(n) % p if p else Fraction(int(n))
        d = int(d)
        if p and not d % p:
            raise ValueError(f"denominator of {text!r} is not invertible over {self}")
        if not d:
            raise ValueError(f"zero denominator in {text!r}")
        return int(n) * pow(d, -1, p) % p if p else Fraction(int(n), d)


_NUMBER = r"[+-]?\d+(?:/\d+)?"


def _literal_patterns(unit):
    """The compiled scalar literals n, n*g and n+n*g of a field whose generator prints as unit."""
    imag = rf"[+-]?(?:\d+(?:/\d+)?)?{unit}"
    return re.compile(_NUMBER), re.compile(imag), re.compile(rf"({_NUMBER})({imag})")


# by unit: i over q and qi, w over fp and fp2
_LITERALS = {unit: _literal_patterns(unit) for unit in "iw"}


class Arith(NamedTuple):
    """Arithmetic on the raw values of one field.

    ``add``, ``neg``, ``mul`` and ``inv`` are the field operations,
    ``pow(x, e)`` is x^e for e >= 0 and ``sqrt(x)`` the canonical root
    of x, or None.  ``sub(x, y, t)`` is the row update x - f*y with
    f = x[0]*t, which clears x[0] when t is the inverse of y[0].  ``of``
    unwraps a ``Scalar`` into its raw value and ``box`` wraps a
    canonical raw value back into a ``Scalar``, without validating it
    again.
    """

    zero: object
    one: object
    add: object
    neg: object
    mul: object
    inv: object
    pow: object
    sqrt: object
    sub: object
    of: object
    box: object


def _power(mul, one):
    """x^e for e >= 0 by square-and-multiply, never squaring past the top bit."""

    def power(x, e):
        if not e:
            return one
        while not e & 1:
            x = mul(x, x)
            e >>= 1
        acc = x
        e >>= 1
        while e:
            x = mul(x, x)
            if e & 1:
                acc = mul(acc, x)
            e >>= 1
        return acc

    return power


def _quadratic_sqrt(base, nu):
    """The canonical root of a + b*g, g*g = nu, from the raw values (a, b) of the base field, or None.

    With b = 0 it is sqrt(a), or sqrt(a/nu)*g.  Otherwise its part c
    has c^2 = (a + n)/2 or (a - n)/2 for a root n of the norm
    a^2 - nu*b^2, and its part d = b/(2c).  c, a canonical base root
    and nonzero, is the first part, so the root is canonical as found.
    """
    sqrt, add, neg, mul, inv, zero = base.sqrt, base.add, base.neg, base.mul, base.inv, base.zero
    half, over_nu = inv(add(base.one, base.one)), inv(nu)

    def root(x):
        a, b = x
        if b == zero:
            c = sqrt(a)
            if c is not None:
                return c, zero
            d = sqrt(mul(a, over_nu))
            return None if d is None else (zero, d)
        n = sqrt(add(mul(a, a), neg(mul(nu, mul(b, b)))))
        if n is None:
            return None
        for m in (n, neg(n)):
            c = sqrt(mul(add(a, m), half))
            if c is not None and c != zero:
                return c, mul(mul(b, half), inv(c))
        return None

    return root


def _build_arith(field):
    """Build the ``Arith`` record of a field; ``FieldSpec`` calls it once per field."""
    kind, p, nu = field.kind, field.p, field.nu
    if kind in (PRIME, RATIONAL):
        of = operator.attrgetter("a")
        b = 0 if kind == PRIME else Fraction(0)

        def box(x):
            return _boxed(field, x, b)

    else:
        of = operator.attrgetter("a", "b")

        def box(x):
            a, b = x
            return _boxed(field, a, b)

    if kind == PRIME:
        zero, one = 0, 1

        def add(x, y):
            return (x + y) % p

        def neg(x):
            return -x % p

        def mul(x, y):
            return x * y % p

        def inv(x):
            return pow(x, -1, p)

        sqrt = partial(sqrt_mod_p, p=p)

        def sub(x, y, t):
            f = x[0] * t % p
            return [(u - f * v) % p for u, v in zip(x, y)]

    elif kind == RATIONAL:
        zero, one = Fraction(0), Fraction(1)
        add, neg, mul, sqrt = operator.add, operator.neg, operator.mul, _fraction_sqrt

        def inv(x):
            return 1 / x

        def sub(x, y, t):
            f = x[0] * t
            return [u - f * v for u, v in zip(x, y)]

    elif kind == PRIME_QUADRATIC:
        zero, one = (0, 0), (1, 0)

        def add(x, y):
            return (x[0] + y[0]) % p, (x[1] + y[1]) % p

        def neg(x):
            return -x[0] % p, -x[1] % p

        def mul(x, y):
            return (x[0] * y[0] + nu * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p

        def inv(x):
            a, b = x
            n = pow((a * a - nu * b * b) % p, -1, p)
            return a * n % p, -b * n % p

        sqrt = _quadratic_sqrt(FieldSpec.prime(p).arith, nu)

        def sub(x, y, t):
            f0, f1 = mul(x[0], t)
            g1 = nu * f1
            return [
                ((u0 - f0 * v0 - g1 * v1) % p, (u1 - f0 * v1 - f1 * v0) % p)
                for (u0, u1), (v0, v1) in zip(x, y)
            ]

    else:
        zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))

        def add(x, y):
            return x[0] + y[0], x[1] + y[1]

        def neg(x):
            return -x[0], -x[1]

        def mul(x, y):
            return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        def inv(x):
            a, b = x
            n = a * a + b * b
            return a / n, -b / n

        sqrt = _quadratic_sqrt(FieldSpec.rationals().arith, Fraction(-1))

        def sub(x, y, t):
            f0, f1 = mul(x[0], t)
            return [
                (u0 - f0 * v0 + f1 * v1, u1 - f0 * v1 - f1 * v0)
                for (u0, u1), (v0, v1) in zip(x, y)
            ]

    return Arith(zero, one, add, neg, mul, inv, _power(mul, one), sqrt, sub, of, box)


class Scalar:
    """A field element in canonical form: the boxed form of a raw value.

    Components: over q the value is ``a`` (Fraction); over qi it is
    ``a + b*i``; over fp it is the residue ``a``; over fp2 it is
    ``a + b*w`` with w*w = nu.  Over q and qi both parts are Fractions,
    over fp and fp2 ints in [0, p), and b is zero over q and fp.

    The constructor validates: it takes ints or, over q and qi,
    Fractions, normalizes them and refuses a nonzero b over q or fp;
    other values come in through ``FieldSpec.coerce``.  The arithmetic
    and the library's constructions box raw values that are already
    canonical through ``field.arith.box``, which skips the constructor.
    Arithmetic is exact and closed, and computed by the field's
    ``Arith`` record; an operand of the same field goes straight to it.
    """

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b=0):
        if field.p:
            p = field.p
            a = operator.index(a) % p
            b = operator.index(b) % p
            if b and field.kind == PRIME:
                raise ValueError("prime-field scalar with extension part")
        else:
            if type(a) is not Fraction:
                a = Fraction(a)
            if type(b) is not Fraction:
                b = Fraction(b)
            if b and field.kind == RATIONAL:
                raise ValueError("rational scalar with imaginary part")
        _set_field(self, field)
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    # -- helpers --------------------------------------------------------

    def _operand(self, other):
        """``other`` in this field by ``FieldSpec.coerce``; None for a type it refuses.

        The type test comes first, so a refused operand is never printed.
        """
        if not isinstance(other, _COERCIBLE):
            return None
        return self.field.coerce(other)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    @property
    def is_zero(self):
        return not self

    def __eq__(self, other):
        """Equality with a scalar of this field, or an int or Fraction read by ``coerce``.

        Over q, and over qi when b == 0, a scalar hashes like the number
        it equals.  Over fp and fp2 an int compares by its residue
        (``FieldSpec.prime(7).one == 8``), so no hash agrees with every
        int a scalar equals; sets and dicts mixing the two may miss.
        """
        if type(other) is not Scalar or other.field is not self.field:
            if not isinstance(other, _COERCIBLE):
                return NotImplemented
            try:
                other = self.field.coerce(other)
            except ValueError:
                return False
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if not self.field.p and not self.b:
            return hash(self.a)
        return hash((self.field, self.a, self.b))

    # -- arithmetic -----------------------------------------------------
    # a Scalar of the same field skips _operand; any other operand goes
    # through it, so mixed operations behave as coerce reads them

    def __add__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = self._operand(other)
            if other is None:
                return NotImplemented
        ar = field.arith
        return ar.box(ar.add(ar.of(self), ar.of(other)))

    __radd__ = __add__

    def __neg__(self):
        ar = self.field.arith
        return ar.box(ar.neg(ar.of(self)))

    def __sub__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = self._operand(other)
            if other is None:
                return NotImplemented
        ar = field.arith
        return ar.box(ar.add(ar.of(self), ar.neg(ar.of(other))))

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        field = self.field
        if type(other) is not Scalar or other.field is not field:
            other = self._operand(other)
            if other is None:
                return NotImplemented
        ar = field.arith
        return ar.box(ar.mul(ar.of(self), ar.of(other)))

    __rmul__ = __mul__

    def inverse(self):
        if not (self.a or self.b):
            raise ZeroDivisionError("scalar inverse of zero")
        ar = self.field.arith
        return ar.box(ar.inv(ar.of(self)))

    def __truediv__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._operand(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self.inverse() if n < 0 else self
        ar = self.field.arith
        return ar.box(ar.pow(ar.of(base), abs(n)))

    # -- text -----------------------------------------------------------

    def __str__(self):
        return scalar_text(self.field.kind, self.a, self.b)

    def __repr__(self):
        return f"Scalar({self} over {self.field})"


# the types FieldSpec.coerce accepts
_COERCIBLE = (Scalar, int, Fraction)

_new_scalar = object.__new__
_set_field = Scalar.field.__set__
_set_a = Scalar.a.__set__
_set_b = Scalar.b.__set__


def _boxed(field, a, b):
    """A new Scalar of field with the canonical parts a and b, written as they are.

    Every ``Arith.box`` calls it, looked up at call time; only canonical
    parts may come in, since nothing here checks or normalizes them.
    """
    s = _new_scalar(Scalar)
    _set_field(s, field)
    _set_a(s, a)
    _set_b(s, b)
    return s


def raw_parts(field, x):
    """The components (a, b) of a raw value x = a + b*g of field (b = 0 over q and fp)."""
    return x if field.kind in (GAUSSIAN, PRIME_QUADRATIC) else (x, 0)


def scalar_text(kind, a, b=0):
    """The text of a + b*g in a field of the given kind; g is i over qi, w over fp2.

    ``Scalar.__str__`` and ``Poly.__str__`` both print through it.
    """
    if not b:
        return str(a)
    unit = "i" if kind == GAUSSIAN else "w"
    if b == 1:
        imag = unit
    elif kind == GAUSSIAN and b == -1:
        imag = f"-{unit}"
    else:
        imag = f"{b}{unit}"
    if not a:
        return imag
    if kind == GAUSSIAN and b < 0:
        return f"{a}-{str(-b) if b != -1 else ''}{unit}"
    return f"{a}+{imag}"


def sqrt_in_field(s):
    """Canonical square root of a scalar within its own field, by ``arith.sqrt``.

    Raises ExtensionNeeded when no root exists; the exception carries
    the element so callers can decide which extension to move to.
    """
    ar = s.field.arith
    r = ar.sqrt(ar.of(s))
    if r is None:
        raise ExtensionNeeded(s)
    return ar.box(r)


def is_square(s):
    ar = s.field.arith
    return ar.sqrt(ar.of(s)) is not None
