"""Slow, independent oracles shared by several test modules."""

from __future__ import annotations

from ulrich_forge import Poly


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
