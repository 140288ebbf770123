"""Exact linear algebra over the scalar fields.

Three elimination routines do all the work:

- ``_rank_mod_p``, sparse elimination mod a prime, takes every rank it
  can finish in a prime field: fp matrices, fp2 and qi matrices whose
  entries lie in the subfield (rank does not change under a field
  extension), and the first try over q and qi, whose rows are reduced
  mod the word-size prime _CHECK_PRIME (i goes to a square root of -1
  there).  A nonzero minor mod the prime lifts, so a full rank mod the
  prime is the exact rank.  Macaulay matrices are mostly zero, so rows
  are dicts and pivots are chosen to limit fill-in.
- ``_bareiss``, fraction-free elimination on denominator-cleared integer
  rows, gives q determinants and the q ranks the prime cannot settle
  (rank deficient mod the prime, or a denominator divisible by it); it
  keeps intermediate entries at minor size instead of letting Fraction
  reduction thrash.
- ``_eliminate``, dense Gaussian elimination on raw entries (residues,
  residue pairs, Fractions or Fraction pairs), does everything else:
  the determinant over fp, fp2 and qi, the rank of a genuine fp2 matrix
  and of a qi matrix the prime cannot settle, and ``solve`` and
  ``invert`` in every field, through Gauss-Jordan.

All results are exact; nothing here is approximate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import lcm
from typing import NamedTuple

from .fields import GAUSSIAN, PRIME, PRIME_QUADRATIC, RATIONAL, Scalar, sqrt_mod_p
from .poly import Poly

# Word-size prime for the mod-p-first rank over q and qi; it is 1 mod 4,
# so i maps to the square root _I of -1 there.
_CHECK_PRIME = 2**31 - 19
_I = sqrt_mod_p(-1, _CHECK_PRIME)


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


def _rank_mod_p(rows, p, width):
    """Rank of sparse rows mod p; each row maps column -> nonzero residue.

    Rows are bucketed by leading column and the columns are visited in
    increasing order from a heap.  Each bucket pivots on its shortest
    row, which keeps fill-in low, and the other rows of the bucket are
    reduced by it and moved to the bucket of their new leading column.
    Stops once the rank reaches ``width``.  The rows are consumed.
    """
    buckets = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    heap = list(buckets)
    heapify(heap)
    rank = 0
    while heap:
        col = heappop(heap)
        bucket = buckets.pop(col)
        rank += 1
        if rank == width:
            break
        if len(bucket) == 1:
            continue
        pivot = min(bucket, key=len)
        # the pivot scaled to lead -1, so row + row[col] * pivot clears col
        inv = pow(pivot[col], p - 2, p)
        scaled = [(k, (p - v) * inv % p) for k, v in pivot.items()]
        for row in bucket:
            if row is pivot:
                continue
            f = row[col]
            get = row.get
            for k, v in scaled:
                x = (get(k, 0) + f * v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
            if row:
                lead = min(row)
                target = buckets.get(lead)
                if target is None:
                    buckets[lead] = [row]
                    heappush(heap, lead)
                else:
                    target.append(row)
    return rank


class _Arith(NamedTuple):
    """Arithmetic on the raw entries of one field, for ``_eliminate``.

    Raw entries are residues over fp, ``(a, b)`` residue pairs over fp2,
    Fractions over q and Fraction pairs over qi.  ``sub(x, y, t)`` is the
    row update x - f*y with f = x[0]*t, which clears x[0] when t is the
    inverse of y[0]; ``raw`` unwraps a matrix of scalars and ``box``
    wraps one raw entry back into a scalar.
    """

    zero: object
    one: object
    mul: object
    inv: object
    sub: object
    raw: object
    box: object


@lru_cache(maxsize=None)
def _arith(field):
    """The arithmetic record of a field, cached: a run meets only a handful of fields."""
    kind, p, nu = field.kind, field.p, field.nu
    if kind in (PRIME, RATIONAL):

        def raw(rows):
            return [[c.a for c in row] for row in rows]

        def box(x):
            return Scalar(field, x)

        if kind == PRIME:

            def sub(x, y, t):
                f = x[0] * t % p
                return [(u - f * v) % p for u, v in zip(x, y)]

            return _Arith(0, 1, lambda x, y: x * y % p, lambda x: pow(x, p - 2, p), sub, raw, box)

        def sub(x, y, t):
            f = x[0] * t
            return [u - f * v for u, v in zip(x, y)]

        return _Arith(Fraction(0), Fraction(1), lambda x, y: x * y, lambda x: 1 / x, sub, raw, box)

    def raw(rows):
        return [[(c.a, c.b) for c in row] for row in rows]

    def box(x):
        return Scalar(field, *x)

    if kind == PRIME_QUADRATIC:

        def mul(x, y):
            return (x[0] * y[0] + nu * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p

        def inv(x):
            a, b = x
            n = pow((a * a - nu * b * b) % p, p - 2, p)
            return a * n % p, -b * n % p

        def sub(x, y, t):
            f0, f1 = mul(x[0], t)
            g1 = nu * f1
            return [
                ((u0 - f0 * v0 - g1 * v1) % p, (u1 - f0 * v1 - f1 * v0) % p)
                for (u0, u1), (v0, v1) in zip(x, y)
            ]

        return _Arith((0, 0), (1, 0), mul, inv, sub, raw, box)

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def inv(x):
        a, b = x
        n = a * a + b * b
        return a / n, -b / n

    def sub(x, y, t):
        f0, f1 = mul(x[0], t)
        return [
            (u0 - f0 * v0 + f1 * v1, u1 - f0 * v1 - f1 * v0)
            for (u0, u1), (v0, v1) in zip(x, y)
        ]

    zero, one = Fraction(0), Fraction(1)
    return _Arith((zero, zero), (one, zero), mul, inv, sub, raw, box)


def _eliminate(rows, ar, ncols, reduced=False):
    """Dense Gaussian elimination of raw rows in place: (pivot columns, sign).

    Pivots are sought in the first ``ncols`` columns only, so extra
    columns (right-hand sides, an identity) ride along.  ``sign`` is the
    sign of the row permutation.  With ``reduced`` each pivot row is
    scaled to lead with one and cleared above as well as below
    (Gauss-Jordan), which leaves the reduced row echelon form.
    """
    zero, one, mul, inv, sub = ar.zero, ar.one, ar.mul, ar.inv, ar.sub
    m = len(rows)
    pivots, sign = [], 1
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][col] != zero), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        t = inv(top[col])
        if reduced:
            top[col:] = [mul(t, v) for v in top[col:]]
            t = one
        tail = top[col:]
        for x in rows[:r] + rows[r + 1 :] if reduced else rows[r + 1 :]:
            if x[col] != zero:
                x[col:] = sub(x[col:], tail, t)
        pivots.append(col)
    return pivots, sign


def _sparse_rows(rows, p):
    """Rows of residues mod p as sparse dicts, or None when p divides a denominator."""
    out = []
    inverses = {1: 1}
    for row in rows:
        sparse = {}
        for j, v in enumerate(row):
            if v:
                den = v.denominator
                inv = inverses.get(den)
                if inv is None:
                    if den % p == 0:
                        return None
                    inv = inverses[den] = pow(den, p - 2, p)
                x = v.numerator * inv % p
                if x:
                    sparse[j] = x
        out.append(sparse)
    return out


def rank(rows, field):
    """Rank of a matrix given as a list of scalar rows.

    A matrix whose entries all lie in the subfield (b == 0 over fp2 or
    qi) is ranked there, since rank does not change under a field
    extension.  Over q and qi the rank is first taken mod _CHECK_PRIME,
    with i sent to a square root of -1 there: it can only drop mod a
    prime, so a full rank mod the prime is the exact rank; otherwise
    Bareiss (q) or dense elimination on Fraction pairs (qi) decides.
    """
    if not rows or not rows[0]:
        return 0
    kind = field.kind
    width = len(rows[0])
    if kind in (PRIME_QUADRATIC, GAUSSIAN) and not any(c.b for row in rows for c in row):
        kind = PRIME if kind == PRIME_QUADRATIC else RATIONAL
    if kind == PRIME:
        sparse = [{j: c.a for j, c in enumerate(row) if c.a} for row in rows]
        return _rank_mod_p(sparse, field.p, width)
    if kind in (RATIONAL, GAUSSIAN):
        sparse = _sparse_rows([[c.a for c in row] for row in rows], _CHECK_PRIME)
        if kind == GAUSSIAN and sparse is not None:
            imag = _sparse_rows([[c.b for c in row] for row in rows], _CHECK_PRIME)
            p = _CHECK_PRIME
            # a + b*i goes to a + b*_I; only nonzero residues are kept
            sparse = None if imag is None else [
                {j: x for j in {*a, *b} if (x := (a.get(j, 0) + _I * b.get(j, 0)) % p)}
                for a, b in zip(sparse, imag)
            ]
        full = min(len(rows), width)
        if sparse is not None and _rank_mod_p(sparse, _CHECK_PRIME, width) == full:
            return full
        if kind == RATIONAL:
            return _bareiss(_as_int_rows(rows)[0])[0]
    ar = _arith(field)
    return len(_eliminate(ar.raw(rows), ar, width)[0])


def det(rows, field):
    """Exact determinant of a square scalar matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return field.one
    if field.kind == RATIONAL:
        int_rows, scale = _as_int_rows(rows)
        full, value = _bareiss(int_rows)
        return field.scalar(Fraction(value, scale) if full == n else 0)
    ar = _arith(field)
    raw = ar.raw(rows)
    pivots, sign = _eliminate(raw, ar, n)
    if len(pivots) < n:
        return field.zero
    acc = ar.one
    for i in range(n):
        acc = ar.mul(acc, raw[i][i])
    value = ar.box(acc)
    return value if sign == 1 else -value


def solve(rows, rhs, field):
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the returned vector is a
    particular solution; full elimination makes the None answer a proof
    of inconsistency.  A right-hand side of the wrong length, or ragged
    rows, raise ValueError.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if len(rhs) != m or any(len(row) != n for row in rows):
        raise ValueError("right-hand side does not match the matrix")
    ar = _arith(field)
    aug = ar.raw([list(row) + [b] for row, b in zip(rows, rhs)])
    pivots, _ = _eliminate(aug, ar, n, reduced=True)
    if any(row[n] != ar.zero for row in aug[len(pivots):]):
        return None
    x = [field.zero] * n
    for row, col in zip(aug, pivots):
        x[col] = ar.box(row[n])
    return x


def invert(rows, field):
    """Exact inverse of a square matrix; ValueError when singular or not square."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    ar = _arith(field)
    aug = [
        row + [ar.one if j == i else ar.zero for j in range(n)]
        for i, row in enumerate(ar.raw(rows))
    ]
    pivots, _ = _eliminate(aug, ar, n, reduced=True)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [[ar.box(v) for v in row[n:]] for row in aug]


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
    use it only in characteristic at most d; otherwise they take scalar
    determinants on the chart z = 1 and interpolate.
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
