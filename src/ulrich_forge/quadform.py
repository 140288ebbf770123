"""Quadratic forms: Gram matrices, diagonalization and product pairings.

A quadratic form q in n variables is carried as a symmetric Gram matrix
over a field of odd or zero characteristic, so q(x) = x^T G x with the
off-diagonal entries holding half the mixed coefficients.  Congruence
diagonalization produces an invertible P with P^T G P diagonal; reading
linear forms off P^{-1} rewrites q as sum d_i * lambda_i^2, and pairing
consecutive diagonal terms with the canonical square roots

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
from .linalg import identity, invert, poly_matrix_det, rank
from .poly import Poly


class QuadraticFormRecord:
    """A quadratic form together with its Gram matrix and rank."""

    __slots__ = ("field", "nvars", "poly", "gram", "rank")

    def __init__(self, poly, gram):
        object.__setattr__(self, "field", poly.field)
        object.__setattr__(self, "nvars", poly.nvars)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "gram", tuple(tuple(row) for row in gram))
        object.__setattr__(self, "rank", rank([list(r) for r in gram], poly.field))

    def __setattr__(self, *_):
        raise AttributeError("QuadraticFormRecord is immutable")

    def __repr__(self):
        return f"QuadraticFormRecord(rank {self.rank}, {self.nvars} vars over {self.field})"


def gram_from_poly(q):
    """Gram matrix record of a homogeneous quadratic (or zero) polynomial."""
    if q and (not q.is_homogeneous() or q.homogeneous_degree() != 2):
        raise ValueError("quadratic form must be homogeneous of degree 2")
    field, n = q.field, q.nvars
    half = field.from_int(2).inverse()
    gram = [[field.zero] * n for _ in range(n)]
    for exps, coeff in q.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            gram[support[0]][support[0]] = coeff
        else:
            i, j = support
            gram[i][j] = gram[j][i] = coeff * half
    return QuadraticFormRecord(q, gram)


def poly_from_gram(field, gram):
    """The quadratic polynomial x^T G x of a symmetric matrix."""
    n = len(gram)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            v = gram[i][j] if i == j else gram[i][j] + gram[j][i]
            if v:
                exps = tuple(
                    (2 if k == i else 0) if i == j else (1 if k in (i, j) else 0)
                    for k in range(n)
                )
                terms[exps] = v
    return Poly(field, n, terms)


def record_from_gram(field, gram):
    for i in range(len(gram)):
        for j in range(len(gram)):
            if gram[i][j] != gram[j][i]:
                raise ValueError("Gram matrix must be symmetric")
    return QuadraticFormRecord(poly_from_gram(field, gram), gram)


@dataclass
class Diagonalization:
    p_matrix: list
    diagonal: list
    lambdas: list


def diagonalize(record):
    """Congruence diagonalization P^T G P = D with invertible P.

    The substitution behind P is x = P y; the linear forms lambdas,
    read off the rows of P^{-1}, satisfy q = sum d_i * lambdas_i^2.
    An all-zero diagonal block is opened up with the substitution
    x_i -> u + v, x_j -> u - v on the first nonzero mixed entry.
    """
    field, n = record.field, record.nvars
    m = [list(row) for row in record.gram]
    p = identity(field, n)

    def swap(k, j):
        for row in m:
            row[k], row[j] = row[j], row[k]
        m[k], m[j] = m[j], m[k]
        for row in p:
            row[k], row[j] = row[j], row[k]

    def split(k, j):
        # columns (k, j) <- (k + j, k - j), rows alike: x_k = u+v, x_j = u-v
        for row in m:
            a, b = row[k], row[j]
            row[k], row[j] = a + b, a - b
        for c in range(n):
            a, b = m[k][c], m[j][c]
            m[k][c], m[j][c] = a + b, a - b
        for row in p:
            a, b = row[k], row[j]
            row[k], row[j] = a + b, a - b

    def eliminate(k, i, f):
        # column i -= f * column k, then the same for rows
        for row in m:
            if row[k]:
                row[i] = row[i] - f * row[k]
        for c in range(n):
            if m[k][c]:
                m[i][c] = m[i][c] - f * m[k][c]
        for row in p:
            if row[k]:
                row[i] = row[i] - f * row[k]

    for k in range(n):
        if not m[k][k]:
            j = next((i for i in range(k + 1, n) if m[i][i]), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((i for i in range(k + 1, n) if m[k][i]), None)
                if j is None:
                    continue
                split(k, j)
        pivot = m[k][k]
        for i in range(k + 1, n):
            if m[k][i]:
                eliminate(k, i, m[k][i] / pivot)
    diagonal = [m[i][i] for i in range(n)]
    p_inv = invert(p, field)
    lambdas = [Poly.linear_form(field, row) for row in p_inv]
    return Diagonalization(p_matrix=p, diagonal=diagonal, lambdas=lambdas)


@dataclass
class SumOfProducts:
    """Pairs (l_i, m_i) of linear forms with sum(l_i * m_i) = quadric.

    ``square_term_flag`` records an equal pair l = m coming from an odd
    rank; the factory below places that pair last.
    """

    pairs: tuple
    square_term_flag: bool
    quadric: Poly

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
    items = [(d, lam) for d, lam in zip(diag.diagonal, diag.lambdas) if d]
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
    sop = SumOfProducts(tuple(pairs), square, quadric)
    if sop.recombine() != quadric:
        raise AssertionError("sum-of-products recombination failed")
    return sop


def pencil_determinant(r_record, q_record):
    """det(Gram(r) - alpha * Gram(q)) as an exact polynomial in alpha."""
    if r_record.field != q_record.field or r_record.nvars != q_record.nvars:
        raise ValueError("pencil members live in different spaces")
    field = r_record.field
    entries = [
        [
            Poly(field, 1, {(0,): rv, (1,): -qv})
            for rv, qv in zip(r_row, q_row)
        ]
        for r_row, q_row in zip(r_record.gram, q_record.gram)
    ]
    return poly_matrix_det(entries)
