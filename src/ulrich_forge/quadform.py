"""Quadratic forms: Gram matrices, diagonalization and product pairings.

A quadratic form q in n variables is carried as a symmetric Gram matrix
of raw values, in odd or zero characteristic, so q(x) = x^T G x with
the off-diagonal entries holding half the mixed coefficients.  Congruence
diagonalization produces an invertible P with P^T G P diagonal and
carries P^{-1} along; its rows rewrite q as sum d_i * lambda_i^2, and
pairing consecutive diagonal terms with the canonical square roots

    d1*a^2 + d2*b^2 = (c1*a + c2*b) * (c1*a - c2*b),  c1^2 = d1, c2^2 = -d2

turns a rank-r form into ceil(r/2) products of linear forms, the last
pair being a doubled square exactly when the rank is odd.  The work
stays in the input field.  Only when a root is missing from a prime
field fp:p does it move, once, to fp2:p, where every fp:p element has a
root; over the other fields a missing root raises ExtensionNeeded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import PRIME, ExtensionNeeded, sqrt_in_field
from .linalg import _rank_raw, poly_matrix_det
from .poly import Poly, _accumulate


class QuadraticFormRecord:
    """A quadratic form with its Gram matrix and rank, built from the form alone.

    ``raw`` holds the Gram rows as raw values (see ``fields``); ``gram``
    boxes them into ``Scalar``s on each read, as ``Poly.terms`` does.
    """

    __slots__ = ("field", "nvars", "poly", "raw", "rank")

    def __init__(self, poly):
        if poly and (not poly.is_homogeneous() or poly.homogeneous_degree() != 2):
            raise ValueError("quadratic form must be homogeneous of degree 2")
        field, n, ar = poly.field, poly.nvars, poly.field.arith
        half = ar.inv(ar.add(ar.one, ar.one))
        rows = [[ar.zero] * n for _ in range(n)]
        for exps, v in poly.raw.items():
            i, j = [k for k, e in enumerate(exps) for _ in range(e)]  # x_i * x_j, maybe i == j
            rows[i][j] = rows[j][i] = v if i == j else ar.mul(v, half)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", n)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "raw", tuple(map(tuple, rows)))
        object.__setattr__(self, "rank", _rank_raw(rows, field))

    def __setattr__(self, *_):
        raise AttributeError("QuadraticFormRecord is immutable")

    @property
    def gram(self):
        box = self.field.arith.box
        return tuple(tuple(map(box, row)) for row in self.raw)

    def __repr__(self):
        return f"QuadraticFormRecord(rank {self.rank}, {self.nvars} vars over {self.field})"


def gram_from_poly(q):
    """Gram matrix record of a homogeneous quadratic (or zero) polynomial."""
    return QuadraticFormRecord(q)


def poly_from_gram(field, gram):
    """The quadratic polynomial x^T G x of a square matrix of ints, Fractions or scalars."""
    n, ar = len(gram), field.arith
    if any(len(row) != n for row in gram):
        raise ValueError("Gram matrix must be square")
    pairs = (
        (tuple((k == i) + (k == j) for k in range(n)), ar.of(field.coerce(v)))
        for i, row in enumerate(gram)
        for j, v in enumerate(row)
    )
    return Poly._make(field, n, _accumulate(ar, {}, ((e, v) for e, v in pairs if v != ar.zero)))


def record_from_gram(field, gram):
    """The record of a symmetric square matrix of ints, Fractions or scalars."""
    poly, coerce = poly_from_gram(field, gram), field.coerce
    if any(coerce(a) != coerce(b) for row, col in zip(gram, zip(*gram)) for a, b in zip(row, col)):
        raise ValueError("Gram matrix must be symmetric")
    return QuadraticFormRecord(poly)


@dataclass
class Diagonalization:
    """P^T G P = diag(d); ``p_matrix`` and ``diagonal`` box the raw values on each read."""

    field: object
    p_raw: list
    diagonal_raw: list
    lambdas: list

    @property
    def p_matrix(self):
        return [list(map(self.field.arith.box, row)) for row in self.p_raw]

    @property
    def diagonal(self):
        return list(map(self.field.arith.box, self.diagonal_raw))


def diagonalize(record):
    """Congruence diagonalization P^T G P = D with invertible P, on raw values.

    The substitution behind P is x = P y.  An all-zero diagonal block is
    opened up with x_i -> u + v, x_j -> u - v on the first nonzero mixed
    entry.  P^{-1} is carried along: each column operation E on P is the
    row operation E^{-1} on P^{-1}, so a swap swaps rows, the split sets
    rows (k, j) to ((r_k + r_j)/2, (r_k - r_j)/2), and c_i -= f*c_k adds
    f*r_i to r_k.
    """
    field, n, ar = record.field, record.nvars, record.field.arith
    zero, one, add, neg, mul = ar.zero, ar.one, ar.add, ar.neg, ar.mul
    half = ar.inv(add(one, one))
    m = [list(row) for row in record.raw]
    p = [[one if j == i else zero for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]

    def swap(k, j):
        for row in m + p:
            row[k], row[j] = row[j], row[k]
        m[k], m[j] = m[j], m[k]
        p_inv[k], p_inv[j] = p_inv[j], p_inv[k]

    def split(k, j):
        # columns (k, j) <- (k + j, k - j), rows alike: x_k = u+v, x_j = u-v
        for row in m + p:
            a, b = row[k], row[j]
            row[k], row[j] = add(a, b), add(a, neg(b))
        mk, mj, rk, rj = m[k], m[j], p_inv[k], p_inv[j]
        m[k] = [add(a, b) for a, b in zip(mk, mj)]
        m[j] = [add(a, neg(b)) for a, b in zip(mk, mj)]
        p_inv[k] = [mul(add(a, b), half) for a, b in zip(rk, rj)]
        p_inv[j] = [mul(add(a, neg(b)), half) for a, b in zip(rk, rj)]

    def eliminate(k, i, f):
        # column i -= f * column k, then the same for the rows of G
        g = neg(f)
        for row in m + p:
            if row[k] != zero:
                row[i] = add(row[i], mul(g, row[k]))
        m[i] = [add(a, mul(g, b)) if b != zero else a for a, b in zip(m[i], m[k])]
        p_inv[k] = [add(a, mul(f, b)) if b != zero else a for a, b in zip(p_inv[k], p_inv[i])]

    for k in range(n):
        if m[k][k] == zero:
            j = next((i for i in range(k + 1, n) if m[i][i] != zero), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((i for i in range(k + 1, n) if m[k][i] != zero), None)
                if j is None:
                    continue
                split(k, j)
        t = ar.inv(m[k][k])
        for i in range(k + 1, n):
            if m[k][i] != zero:
                eliminate(k, i, mul(m[k][i], t))
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    lambdas = [Poly._make(field, n, {u: v for u, v in zip(units, r) if v != zero}) for r in p_inv]
    return Diagonalization(field, p, [m[i][i] for i in range(n)], lambdas)


@dataclass(frozen=True)
class SumOfProducts:
    """Pairs (l_i, m_i) of linear forms with sum(l_i * m_i) = quadric exactly.

    The constructor checks the recombination exactly and raises
    ValueError when it fails; the instance is frozen and its pairs a
    tuple, so ``clifford.build_clifford_factorization`` can rest its
    proof on that identity.  ``square_term_flag`` records an equal pair
    l = m coming from an odd rank; the factory below places that pair
    last.
    """

    pairs: tuple
    square_term_flag: bool
    quadric: Poly

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((l, m) for l, m in self.pairs))
        if self.recombine() != self.quadric:
            raise ValueError("pairs do not recombine to the quadric")

    @property
    def s(self):
        return len(self.pairs)

    def recombine(self):
        total = Poly.zero(self.quadric.field, self.quadric.nvars)
        for l, m in self.pairs:
            total = total + l * m
        return total


def _roots(items):
    """Canonical roots c_i of d_i for even i and of -d_i for odd i, items = (d_i, lambda_i)."""
    return [sqrt_in_field(-d if i % 2 else d) for i, (d, _) in enumerate(items)]


def sum_of_products(record):
    """Rewrite a quadratic form as ceil(rank/2) products of linear forms.

    The record is diagonalized once, in its own field, and the roots are
    taken there.  Only when a root is missing from a prime field fp:p are
    the nonzero diagonal values, their linear forms and the quadric
    embedded into fp2:p and every root taken there; over the other
    fields ExtensionNeeded propagates.
    """
    diag = diagonalize(record)
    zero, box = record.field.arith.zero, record.field.arith.box
    items = [(box(d), lam) for d, lam in zip(diag.diagonal_raw, diag.lambdas) if d != zero]
    quadric = record.poly
    try:
        roots = _roots(items)
    except ExtensionNeeded:
        if record.field.kind != PRIME:
            raise
        field = record.field.extension()
        items = [(field.embed(d), lam.embed(field)) for d, lam in items]
        quadric = quadric.embed(field)
        roots = _roots(items)
    terms = [c * lam for c, (_, lam) in zip(roots, items)]
    pairs = [(a + b, a - b) for a, b in zip(terms[0::2], terms[1::2])]
    square = bool(len(terms) % 2)
    if square:
        pairs.append((terms[-1], terms[-1]))
    try:
        return SumOfProducts(tuple(pairs), square, quadric)
    except ValueError as exc:  # the pairing is at fault, not the input
        raise AssertionError("sum-of-products recombination failed") from exc


def pencil_determinant(r_record, q_record):
    """det(Gram(r) - alpha * Gram(q)) as an exact polynomial in alpha."""
    if r_record.field != q_record.field or r_record.nvars != q_record.nvars:
        raise ValueError("pencil members live in different spaces")
    field = r_record.field
    zero, neg = field.arith.zero, field.arith.neg
    entries = [
        [
            Poly._make(field, 1, {e: v for e, v in (((0,), rv), ((1,), neg(qv))) if v != zero})
            for rv, qv in zip(r_row, q_row)
        ]
        for r_row, q_row in zip(r_record.raw, q_record.raw)
    ]
    return poly_matrix_det(entries)
