"""Slow, independent oracles shared by several test modules."""

from __future__ import annotations

import random

from ulrich_forge import DeterminantCertificate, Poly
from ulrich_forge.linalg import det


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


def clifford_entries(sop):
    """The Clifford matrix of sop.pairs as polynomials, by the block recursion."""
    zero = Poly.zero(sop.quadric.field, sop.quadric.nvars)
    block = [[zero]]
    for l, m in sop.pairs:
        n = len(block)
        top = [row + [l if j == i else zero for j in range(n)] for i, row in enumerate(block)]
        bottom = [
            [m if j == i else zero for j in range(n)] + [-e for e in row]
            for i, row in enumerate(block)
        ]
        block = top + bottom
    return tuple(tuple(row) for row in block)


def squares_to_quadric(mf):
    """Whether A * A == quadric * Id symbolically, whatever the degrees of the entries."""
    entries = mf.entries
    n = mf.size
    zero = Poly.zero(mf.field, mf.nvars)
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + entries[i][k] * entries[k][j]
            if acc != (mf.quadric if i == j else zero):
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
    """``determinant_certificate`` through ``Poly.evaluate`` of every entry and ``linalg.det``."""
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
