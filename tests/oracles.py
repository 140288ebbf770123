"""Slow, independent oracles shared by several test modules."""

from __future__ import annotations

import random
from math import comb

from ulrich_forge import DeterminantCertificate, Poly, monomials_of_degree
from ulrich_forge.linalg import _rank_raw, det


def poly_det_cofactor(rows):
    """Determinant of a polynomial matrix by recursive cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    field, nvars = rows[0][0].field, rows[0][0].nvars
    total = Poly.zero(field, nvars)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * poly_det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def rank_in_extension(rows, field):
    """Dense Gaussian elimination on scalars, the reference for fp2 and qi rank."""
    rows = [list(row) for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def clifford_entries(pairs, start=None):
    """The Clifford matrix of the pairs as polynomials, by the block recursion from [[start]].

    Without ``start`` the recursion starts from [[0]].
    """
    zero = Poly.zero(pairs[0][0].field, pairs[0][0].nvars)
    block = [[zero if start is None else start]]
    for l, m in pairs:
        n = len(block)
        top = [row + [l if j == i else zero for j in range(n)] for i, row in enumerate(block)]
        bottom = [
            [m if j == i else zero for j in range(n)] + [-e for e in row]
            for i, row in enumerate(block)
        ]
        block = top + bottom
    return tuple(tuple(row) for row in block)


def squares_to_quadric(mf):
    """Whether A * A == quadric * Id symbolically, whatever the degrees of the entries.

    Row i of A * A sums A[i][k] * (row k of A) over the nonzero A[i][k],
    entry by entry as ``Poly`` products.
    """
    entries = mf.entries
    n = mf.size
    zero = Poly.zero(mf.field, mf.nvars)
    for i in range(n):
        row = [zero] * n
        for a, below in zip(entries[i], entries):
            if a:
                row = [acc + a * b if b else acc for acc, b in zip(row, below)]
        if row != [mf.quadric if j == i else zero for j in range(n)]:
            return False
    return True


def clifford_square(mf):
    """Whether every entry is zero or linear and A * A == quadric * Id, symbolically."""
    for row in mf.entries:
        for e in row:
            if e and (not e.is_homogeneous() or e.homogeneous_degree() != 1):
                return False
    return squares_to_quadric(mf)


def determinant_certificate_by_evaluation(mf, trials=50, seed=0):
    """``determinant_certificate`` through ``Poly.evaluate`` of every entry and ``linalg.det``.

    For a built matrix the library's certificate draws no point and
    calls no ``linalg._det_raw``: it reads the sign the shape fixed, so
    there this oracle is fully independent of it.  For a matrix read as
    entries ``det`` and the library share ``_det_raw`` in every field,
    so the oracle is independent in the evaluation only; the Leibniz
    tests of ``tests/test_linalg.py`` guard the determinant.
    """
    if mf.size % 2:
        # det A = sign * q^(size/2) has no meaning for an odd size
        reason = f"odd size {mf.size}: det A = sign*q^(size/2) needs an even size"
        return DeterminantCertificate(False, None, 0, 0, reason=reason)
    field = mf.field
    rng = random.Random(seed)
    half = mf.size // 2
    sign = None
    tested = skipped = 0
    budget = 20 * trials
    entries = mf.entries
    while tested < trials and budget:
        budget -= 1
        point = [field.random_scalar(rng) for _ in range(mf.nvars)]
        qv = mf.quadric.evaluate(point)
        if not qv:
            skipped += 1
            continue
        dv = det([[e.evaluate(point) for e in row] for row in entries], field)
        expected = qv**half
        if dv == expected:
            point_sign = 1
        elif dv == -expected:
            point_sign = -1
        else:
            return DeterminantCertificate(
                False, None, tested, skipped, reason="determinant escaped sign*q^(size/2)"
            )
        if sign is None:
            sign = point_sign
        elif sign != point_sign:
            return DeterminantCertificate(
                False, None, tested, skipped, reason="sign flipped between sample points"
            )
        tested += 1
    if tested == 0:
        return DeterminantCertificate(
            False, None, 0, skipped, reason="no sample point had q nonzero"
        )
    return DeterminantCertificate(True, sign, tested, skipped)


def cover_module_hilbert_value(entries, F, d, t):
    """dim_k of coker(T * Id - N) in degree t over R = k[x, T]/(T^2 - F), deg T = d.

    ``entries`` are the rows of N, forms of degree d in the variables of
    F.  R_t has the basis x^a (|a| = t) and T * x^b (|b| = t - d), since
    T^2 reduces to F.  The image of phi = T * Id - N in (R^s)_t is spanned
    by phi(x^c * e_j) = x^c * T * e_j - sum_i N_ij * x^c * e_i and
    phi(T * x^c * e_j) = F * x^c * e_j - sum_i N_ij * x^c * T * e_i, and
    its rank is taken by ``linalg``, never by the relation check of
    ``clifford``.
    """
    field, nvars, s = F.field, F.nvars, len(entries)
    ar = field.arith
    neg = ar.neg

    def basis(e):
        return list(monomials_of_degree(nvars, e)) if e >= 0 else []

    def shift(a, c):
        return tuple(x + y for x, y in zip(a, c))

    columns = {}
    for j in range(s):
        for part, e in ((0, t), (1, t - d)):
            for a in basis(e):
                columns[(j, part, a)] = len(columns)
    rows = []
    for j in range(s):
        for part, e in ((0, t - d), (1, t - 2 * d)):
            for c in basis(e):
                row = {}
                if part == 0:
                    row[(j, 1, c)] = ar.one
                else:
                    for a, v in F.raw.items():
                        row[(j, 0, shift(a, c))] = v
                for i in range(s):
                    for a, v in entries[i][j].raw.items():
                        key = (i, part, shift(a, c))
                        row[key] = ar.add(row[key], neg(v)) if key in row else neg(v)
                rows.append({columns[key]: v for key, v in row.items() if v != ar.zero})
    return len(columns) - _rank_raw(rows, field, len(columns))


def is_ulrich_presentation(entries, F, d):
    """Whether coker(T * Id - N) has the Hilbert function size * C(t+n, n) for t <= 2d + 1."""
    n, s = F.nvars - 1, len(entries)
    return all(
        cover_module_hilbert_value(entries, F, d, t) == s * comb(t + n, n)
        for t in range(2 * d + 2)
    )


def monomial_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def macaulay_rows(system, e, order=None):
    """Dense raw rows gamma * g of the Macaulay matrix in degree e, through ``monomial_mul``.

    Columns go in increasing order of the reversed exponent tuple.  With
    ``order`` the generator in place k keeps only the multiples with
    gamma_j < d for each j placed before it (Macaulay's square
    submatrix, for generators all of degree d).
    """
    columns = sorted(monomials_of_degree(system.nvars, e), key=lambda m: m[::-1])
    index = {m: k for k, m in enumerate(columns)}
    gens = system.generators
    rows = []
    for k, i in enumerate(range(len(gens)) if order is None else order):
        g = gens[i]
        dg = g.homogeneous_degree()
        if dg > e:
            continue
        earlier = () if order is None else order[:k]
        for gamma in monomials_of_degree(system.nvars, e - dg):
            if any(gamma[j] >= dg for j in earlier):
                continue
            row = [system.field.arith.zero] * len(index)
            for exps, coeff in g.raw.items():
                row[index[monomial_mul(gamma, exps)]] = coeff
            rows.append(row)
    return rows
