"""Exact linear algebra over the scalar fields.

Rank and determinant over the rationals go through fraction-free
Bareiss elimination on denominator-cleared integer rows, which keeps
intermediate entries at minor size instead of letting Fraction
reduction thrash.  The finite fields use ordinary modular elimination
on unwrapped integers; the generic scalar path covers the Gaussian
rationals.  All results are exact; nothing here is approximate.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import GAUSSIAN, PRIME, PRIME_QUADRATIC, RATIONAL
from .poly import Poly


def _as_int_rows(rows):
    """Clear denominators row by row; rank and row space are unchanged.

    Also returns the product of the row scales, the factor by which the
    determinant of a square matrix grows.
    """
    out, total = [], 1
    for row in rows:
        scale = lcm(*(c.a.denominator for c in row)) if row else 1
        total *= scale
        out.append([int(c.a * scale) for c in row])
    return out, total


def _bareiss(rows):
    """Fraction-free elimination of integer rows: (rank, signed last pivot).

    Each pivot is a leading minor of the row-permuted matrix, so for a
    square matrix of full rank the second value is its determinant.
    """
    rows = [row[:] for row in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank, prev, sign = 0, 1, 1
    for col in range(n):
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        p = rows[rank][col]
        top = rows[rank]
        for i in range(rank + 1, m):
            ri = rows[i]
            f = ri[col]
            ri[col:] = [(p * a - f * b) // prev for a, b in zip(ri[col:], top[col:])]
        prev = p
        rank += 1
    return rank, sign * prev


def _rank_mod_p(rows, p):
    rows = [row[:] for row in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for col in range(n):
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = pow(top[col], p - 2, p)
        for i in range(rank + 1, m):
            ri = rows[i]
            if ri[col]:
                f = ri[col] * inv % p
                ri[col:] = [(a - f * b) % p for a, b in zip(ri[col:], top[col:])]
        rank += 1
    return rank


def _rank_mod_p2(pairs_a, pairs_b, p, nu):
    m = len(pairs_a)
    n = len(pairs_a[0]) if m else 0
    ra = [row[:] for row in pairs_a]
    rb = [row[:] for row in pairs_b]
    rank = 0
    for col in range(n):
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if ra[i][col] or rb[i][col]), None)
        if piv is None:
            continue
        ra[rank], ra[piv] = ra[piv], ra[rank]
        rb[rank], rb[piv] = rb[piv], rb[rank]
        ta, tb = ra[rank], rb[rank]
        norm_inv = pow((ta[col] * ta[col] - nu * tb[col] * tb[col]) % p, p - 2, p)
        ia = ta[col] * norm_inv % p
        ib = -tb[col] * norm_inv % p
        for i in range(rank + 1, m):
            xa, xb = ra[i], rb[i]
            if xa[col] or xb[col]:
                fa = (xa[col] * ia + nu * xb[col] * ib) % p
                fb = (xa[col] * ib + xb[col] * ia) % p
                xa[col:] = [
                    (u - fa * v - nu * fb * w) % p
                    for u, v, w in zip(xa[col:], ta[col:], tb[col:])
                ]
                xb[col:] = [
                    (u - fa * w - fb * v) % p
                    for u, v, w in zip(xb[col:], ta[col:], tb[col:])
                ]
        rank += 1
    return rank


def _rank_generic(rows, field):
    rows = [list(row) for row in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for col in range(n):
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = top[col].inverse()
        for i in range(rank + 1, m):
            ri = rows[i]
            if ri[col]:
                f = ri[col] * inv
                ri[col:] = [a - f * b for a, b in zip(ri[col:], top[col:])]
        rank += 1
    return rank


def rank(rows, field):
    """Rank of a matrix given as a list of scalar rows."""
    if not rows or not rows[0]:
        return 0
    kind = field.kind
    if kind == RATIONAL:
        return _bareiss(_as_int_rows(rows)[0])[0]
    if kind == PRIME:
        return _rank_mod_p([[c.a for c in row] for row in rows], field.p)
    if kind == PRIME_QUADRATIC:
        return _rank_mod_p2(
            [[c.a for c in row] for row in rows],
            [[c.b for c in row] for row in rows],
            field.p,
            field.nu,
        )
    return _rank_generic(rows, field)


def _det_mod_p(rows, p):
    rows = [row[:] for row in rows]
    n = len(rows)
    sign, acc = 1, 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        top = rows[col]
        acc = acc * top[col] % p
        inv = pow(top[col], p - 2, p)
        for i in range(col + 1, n):
            ri = rows[i]
            if ri[col]:
                f = ri[col] * inv % p
                ri[col:] = [(a - f * b) % p for a, b in zip(ri[col:], top[col:])]
    return acc * sign % p


def _det_mod_p2(pairs_a, pairs_b, p, nu):
    n = len(pairs_a)
    ra = [row[:] for row in pairs_a]
    rb = [row[:] for row in pairs_b]
    sign = 1
    acc_a, acc_b = 1, 0
    for col in range(n):
        piv = next((i for i in range(col, n) if ra[i][col] or rb[i][col]), None)
        if piv is None:
            return 0, 0
        if piv != col:
            ra[col], ra[piv] = ra[piv], ra[col]
            rb[col], rb[piv] = rb[piv], rb[col]
            sign = -sign
        ta, tb = ra[col], rb[col]
        pa, pb = ta[col], tb[col]
        acc_a, acc_b = (acc_a * pa + nu * acc_b * pb) % p, (acc_a * pb + acc_b * pa) % p
        norm_inv = pow((pa * pa - nu * pb * pb) % p, p - 2, p)
        ia = pa * norm_inv % p
        ib = -pb * norm_inv % p
        for i in range(col + 1, n):
            xa, xb = ra[i], rb[i]
            if xa[col] or xb[col]:
                fa = (xa[col] * ia + nu * xb[col] * ib) % p
                fb = (xa[col] * ib + xb[col] * ia) % p
                xa[col:] = [
                    (u - fa * v - nu * fb * w) % p
                    for u, v, w in zip(xa[col:], ta[col:], tb[col:])
                ]
                xb[col:] = [
                    (u - fa * w - fb * v) % p
                    for u, v, w in zip(xb[col:], ta[col:], tb[col:])
                ]
    return acc_a * sign % p, acc_b * sign % p


def det(rows, field):
    """Exact determinant of a square scalar matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return field.one
    kind = field.kind
    if kind == RATIONAL:
        int_rows, scale = _as_int_rows(rows)
        full, value = _bareiss(int_rows)
        return field.scalar(Fraction(value, scale) if full == n else 0)
    if kind == PRIME:
        return field.scalar(_det_mod_p([[c.a for c in row] for row in rows], field.p))
    if kind == PRIME_QUADRATIC:
        a, b = _det_mod_p2(
            [[c.a for c in row] for row in rows],
            [[c.b for c in row] for row in rows],
            field.p,
            field.nu,
        )
        return field.scalar(a, b)
    rows = [list(row) for row in rows]
    sign = 1
    acc = field.one
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return field.zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        top = rows[col]
        acc = acc * top[col]
        inv = top[col].inverse()
        for i in range(col + 1, n):
            ri = rows[i]
            if ri[col]:
                f = ri[col] * inv
                ri[col:] = [a - f * b for a, b in zip(ri[col:], top[col:])]
    return acc if sign == 1 else -acc


def solve(rows, rhs, field):
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the returned vector is a
    particular solution; full elimination makes the None answer a proof
    of inconsistency.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivots = []
    rank_ = 0
    for col in range(n):
        if rank_ == m:
            break
        piv = next((i for i in range(rank_, m) if aug[i][col]), None)
        if piv is None:
            continue
        aug[rank_], aug[piv] = aug[piv], aug[rank_]
        top = aug[rank_]
        inv = top[col].inverse()
        for i in range(rank_ + 1, m):
            ri = aug[i]
            if ri[col]:
                f = ri[col] * inv
                ri[col:] = [a - f * b for a, b in zip(ri[col:], top[col:])]
        pivots.append(col)
        rank_ += 1
    for i in range(rank_, m):
        if aug[i][n]:
            return None
    x = [field.zero] * n
    for i in range(rank_ - 1, -1, -1):
        col = pivots[i]
        acc = aug[i][n]
        for j in range(col + 1, n):
            if aug[i][j] and x[j]:
                acc = acc - aug[i][j] * x[j]
        x[col] = acc / aug[i][col]
    return x


def invert(rows, field):
    """Exact inverse of a square matrix; ValueError when singular."""
    n = len(rows)
    aug = [list(rows[i]) + [field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        inv = top[col].inverse()
        aug[col] = top = [v * inv for v in top]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], top)]
    return [row[n:] for row in aug]


def identity(field, n):
    return [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, field):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] = oi[j] + v * bt[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def poly_matrix_det(rows):
    """Determinant of a square matrix of polynomials.

    Division-free Laplace expansion down the rows, memoized on the set
    of still-available columns, so its cost grows like 2**n; fine up to
    a dozen rows.  It backs the Keem pencil determinant and the
    multivariate ``sylvester_resultant``.  Transversality certificates
    use it only in characteristic at most d*d; otherwise they take
    scalar determinants on the chart z = 1 and interpolate.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty polynomial matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    sample = rows[0][0]
    field, nvars = sample.field, sample.nvars
    one = Poly.constant(field, nvars, 1)
    zero = Poly.zero(field, nvars)
    memo = {}

    def expand(row, mask):
        if row == n:
            return one
        cached = memo.get(mask)
        if cached is not None:
            return cached
        acc = zero
        sign = 1
        j = 0
        rest = mask
        while rest:
            if rest & 1:
                entry = rows[row][j]
                if entry:
                    sub = expand(row + 1, mask & ~(1 << j))
                    term = entry * sub
                    acc = acc + term if sign > 0 else acc - term
                sign = -sign
            rest >>= 1
            j += 1
        memo[mask] = acc
        return acc

    return expand(0, (1 << n) - 1)
