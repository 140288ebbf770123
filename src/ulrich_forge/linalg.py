"""Exact linear algebra over the scalar fields.

Rank finishes in a prime field wherever that is exact.  A matrix whose
entries all lie in the subfield (fp inside fp2, q inside qi) is ranked
there, because rank does not change under a field extension.  Over q
the rows are first reduced mod the word-size prime _CHECK_PRIME: a
nonzero minor mod the prime lifts to a nonzero rational minor, so a
full rank mod the prime is the rational rank.  Only a rank-deficient
matrix, or one with a denominator divisible by the prime, goes on to
fraction-free Bareiss elimination on denominator-cleared integer rows,
which keeps intermediate entries at minor size instead of letting
Fraction reduction thrash.  Every mod-p rank runs through one sparse
kernel, ``_rank_mod_p``: Macaulay matrices are mostly zero, so rows are
kept as dicts and pivots chosen to limit fill-in.

Determinants over q also use Bareiss; the other determinants, the rank
of a matrix with genuine fp2 entries, ``solve`` and ``invert`` use
ordinary dense elimination, on unwrapped integers over the finite
fields and on scalars over the Gaussian rationals.  All results are
exact; nothing here is approximate.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from .fields import GAUSSIAN, PRIME, PRIME_QUADRATIC, RATIONAL
from .poly import Poly

# Word-size prime for the mod-p-first rank over q.
_CHECK_PRIME = 2**31 - 1


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
    extension.  Over q the rank is first taken mod _CHECK_PRIME: it can
    only drop mod a prime, so a full rank mod the prime is the rational
    rank; otherwise fraction-free Bareiss decides.
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
    if kind == RATIONAL:
        sparse = _sparse_rows([[c.a for c in row] for row in rows], _CHECK_PRIME)
        if sparse is not None:
            full = min(len(rows), width)
            if _rank_mod_p(sparse, _CHECK_PRIME, width) == full:
                return full
        return _bareiss(_as_int_rows(rows)[0])[0]
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
