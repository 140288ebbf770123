"""Quadratic forms: Gram matrices, diagonalization and product pairings.

A quadratic form q in n variables is carried as a symmetric Gram matrix
of raw values, in odd or zero characteristic, so q(x) = x^T G x with
the off-diagonal entries holding half the mixed coefficients.  Congruence
diagonalization produces an invertible P with P^T G P diagonal, and it
builds only P^{-1}, whose rows rewrite q as sum d_i * lambda_i^2; P
itself is the exact inverse of P^{-1}, computed when it is first read.
Pairing consecutive diagonal terms with the canonical square roots

    d1*a^2 + d2*b^2 = (c1*a + c2*b) * (c1*a - c2*b),  c1^2 = d1, c2^2 = -d2

turns a rank-r form into ceil(r/2) products of linear forms, the last
pair being a doubled square exactly when the rank is odd.  The work
stays in the input field.  Only when a root is missing from a prime
field fp:p does it move, once, to fp2:p, where every fp:p element has a
root; over the other fields a missing root raises ExtensionNeeded.
Everything from the Gram rows to the pairs runs on raw values, and the
pairs' recombination is checked exactly, once, by ``poly._recombines``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import PRIME, ExtensionNeeded
from .linalg import _rank_raw, inverse, poly_matrix_det
from .poly import Poly, _accumulate, _linear_form, _product_sum, _recombines


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
        rows = [{} for _ in range(n)]
        for exps, v in poly.raw.items():
            i, j = [k for k, e in enumerate(exps) for _ in range(e)]  # x_i * x_j, maybe i == j
            rows[i][j] = rows[j][i] = v if i == j else ar.mul(v, half)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", n)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "raw", tuple(tuple(row.get(j, ar.zero) for j in range(n)) for row in rows))
        object.__setattr__(self, "rank", _rank_raw(rows, field, n))

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
    """P^T G P = diag(d), held as the diagonal and the rows of P^{-1}, in raw values.

    ``diagonal`` boxes the values on each read, and ``lambdas`` is a view
    built on each read: the linear forms whose coefficients are the rows
    of P^{-1}, so that q = sum d_i * lambda_i^2.  P is not carried; it is
    the exact inverse of P^{-1}: ``linalg.inverse`` computes it on the
    first read of ``p_matrix``, and every read returns a fresh copy.
    """

    field: object
    p_inv_raw: list
    diagonal_raw: list

    @property
    def diagonal(self):
        return list(map(self.field.arith.box, self.diagonal_raw))

    @property
    def lambdas(self):
        return [_linear_form(self.field, row) for row in self.p_inv_raw]

    @cached_property
    def _p_rows(self):
        box = self.field.arith.box
        return inverse([list(map(box, row)) for row in self.p_inv_raw], self.field)

    @property
    def p_matrix(self):
        return [row[:] for row in self._p_rows]


def diagonalize(record):
    """Congruence diagonalization P^T G P = D with invertible P, on raw values.

    The substitution behind P is x = P y, and only P^{-1} is built: each
    column operation E on P is the row operation E^{-1} on P^{-1}.  A
    zero pivot g_kk is first traded for a later nonzero diagonal entry,
    a swap of rows and columns that swaps rows of P^{-1}; failing that,
    an all-zero diagonal block is opened up with x_k -> u + v,
    x_j -> u - v on the first nonzero mixed entry, which sets rows
    (k, j) of P^{-1} to ((r_k + r_j)/2, (r_k - r_j)/2).  The pivot then
    clears its row and column: with f_i = g_ki / g_kk, each g_ij of the
    trailing block becomes g_ij - f_i * g_kj, computed on the upper
    triangle and mirrored, and r_k gains f_i * r_i.  Rows and columns
    before k are never read again, so the swap and split leave them.
    """
    field, n, ar = record.field, record.nvars, record.field.arith
    zero, one, add, neg, mul = ar.zero, ar.one, ar.add, ar.neg, ar.mul
    half = ar.inv(add(one, one))
    m = [list(row) for row in record.raw]
    p_inv = [[one if j == i else zero for j in range(n)] for i in range(n)]

    def swap(k, j):
        for row in m[k:]:
            row[k], row[j] = row[j], row[k]
        m[k], m[j] = m[j], m[k]
        p_inv[k], p_inv[j] = p_inv[j], p_inv[k]

    def split(k, j):
        # columns (k, j) <- (k + j, k - j), rows alike: x_k = u+v, x_j = u-v
        for row in m[k:]:
            a, b = row[k], row[j]
            row[k], row[j] = add(a, b), add(a, neg(b))
        mk, mj, rk, rj = m[k], m[j], p_inv[k], p_inv[j]
        m[k] = [add(a, b) for a, b in zip(mk, mj)]
        m[j] = [add(a, neg(b)) for a, b in zip(mk, mj)]
        p_inv[k] = [mul(add(a, b), half) for a, b in zip(rk, rj)]
        p_inv[j] = [mul(add(a, neg(b)), half) for a, b in zip(rk, rj)]

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
        pivot, rk = m[k], p_inv[k]
        t = ar.inv(pivot[k])
        support = [(i, pivot[i]) for i in range(k + 1, n) if pivot[i] != zero]
        for start, (i, gi) in enumerate(support):
            f = mul(gi, t)
            g, mi = neg(f), m[i]
            for j, gj in support[start:]:
                mi[j] = m[j][i] = add(mi[j], mul(g, gj))
            for c, b in enumerate(p_inv[i]):
                if b != zero:
                    rk[c] = add(rk[c], mul(f, b))
    return Diagonalization(field, p_inv, [m[i][i] for i in range(n)])


@dataclass(frozen=True)
class SumOfProducts:
    """Pairs (l_i, m_i) of polynomials with sum(l_i * m_i) = quadric exactly.

    The constructor checks the recombination exactly, with
    ``poly._recombines``, and raises ValueError when it fails; the
    instance is frozen and its pairs a tuple, so
    ``clifford.build_clifford_factorization`` can rest its proof on that
    identity.  ``square_term_flag`` is read from the pairs: true exactly
    when the last pair is a square (l, l), as an odd rank gives it.
    """

    pairs: tuple
    quadric: Poly

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((l, m) for l, m in self.pairs))
        if not _recombines(self.pairs, self.quadric):
            raise ValueError("pairs do not recombine to the quadric")

    @property
    def square_term_flag(self):
        return bool(self.pairs) and self.pairs[-1][0] == self.pairs[-1][1]

    @property
    def s(self):
        return len(self.pairs)

    def recombine(self):
        return _product_sum(self.pairs, self.quadric.field, self.quadric.nvars)


def sum_of_products(record):
    """Rewrite a quadratic form as ceil(rank/2) products of linear forms.

    The record is diagonalized once, in its own field, and the roots
    c_i of d_i (even i) and -d_i (odd i), d_i the nonzero diagonal
    values, are taken there.  Only when a root is missing from a prime
    field fp:p are the rows of P^{-1}, the roots found and the quadric
    embedded into fp2:p, where the missing roots are taken (the root of
    (a, 0) there is (r, 0) for the root r of a in fp:p, so no root is
    taken twice); elsewhere the first missing root raises
    ExtensionNeeded.  The products c_i * r_i of roots and rows, and
    their sums and differences, are taken on raw rows, and each factor
    becomes a ``Poly`` once, at the end.
    """
    diag = diagonalize(record)
    field, quadric = record.field, record.poly
    ar = field.arith
    items = [(d, row) for d, row in zip(diag.diagonal_raw, diag.p_inv_raw) if d != ar.zero]
    values = [ar.neg(d) if i % 2 else d for i, (d, _) in enumerate(items)]
    rows = [row for _, row in items]
    roots = list(map(ar.sqrt, values))
    if None in roots and field.kind != PRIME:
        raise ExtensionNeeded(ar.box(values[roots.index(None)]))
    if None in roots:  # every value has a root in fp2:p
        field = field.extension()
        ar, pad = field.arith, field.arith.zero[1]
        rows = [[(v, pad) for v in row] for row in rows]
        roots = [ar.sqrt((v, pad)) if c is None else (c, pad) for c, v in zip(roots, values)]
        quadric = quadric.embed(field)
    add, neg, mul = ar.add, ar.neg, ar.mul
    terms = [[mul(c, v) for v in row] for c, row in zip(roots, rows)]
    sums = [
        (list(map(add, a, b)), [add(u, neg(v)) for u, v in zip(a, b)]) for a, b in zip(terms[0::2], terms[1::2])
    ]
    pairs = [(_linear_form(field, s), _linear_form(field, d)) for s, d in sums]
    if len(terms) % 2:
        last = _linear_form(field, terms[-1])
        pairs.append((last, last))
    try:
        return SumOfProducts(tuple(pairs), quadric)
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
