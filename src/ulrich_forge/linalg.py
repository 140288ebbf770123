"""Exact linear algebra over the scalar fields.

Four elimination routines do all the work:

- ``_rank_mod_p``, elimination mod a prime on packed rows, takes every
  fp and fp2 rank, and the first try over q and qi, whose rows are
  reduced mod the word-size prime _CHECK_PRIME (i goes to a square root
  of -1 there); a nonzero minor mod the prime lifts, so a full rank mod
  the prime is the exact rank.  Each sparse row of residues is packed
  into one integer, a slot of 64-bit words per column from its leading
  column on, so a row update is one multiply-add of integers, reduced
  mod p only when the row becomes a pivot (delayed reduction, as in
  Dumas-Fousse-Salvy 2011); the pivot of each column is the row that
  ends first, which limits fill-in.  ``_residue_rows`` alone maps raw
  rows to their images (``resultants`` reads its one row through it),
  and ``_prime_rank`` alone ranks them: an fp2 matrix off the subfield
  F_p is realified there, ranked over F_p at twice the size.
- ``_bareiss``, fraction-free elimination on denominator-cleared integer
  rows, gives q determinants and the q ranks the prime cannot settle
  (rank deficient mod the prime, or a denominator divisible by it); it
  keeps intermediate entries at minor size instead of letting Fraction
  reduction thrash.  ``poly_matrix_det`` packs each polynomial entry
  into an integer by Kronecker substitution and takes the determinant
  over fp and q here.
- ``_bareiss_quadratic``, the same elimination over Z[sqrt(nu)] on rows
  of integer pairs, serves qi and fp2 (nu = -1, or the lifted
  nonresidue): qi determinants, the qi ranks that the prime cannot
  settle, and the polynomial determinants over qi and fp2.
- ``_eliminate``, dense Gaussian elimination on raw entries, ranks
  nothing: it gives the determinant over fp and fp2 (and the point
  determinants of ``clifford``'s sampled certificate, in every field),
  and ``solve`` and ``invert`` in every field, through Gauss-Jordan, on
  ``field.arith``.

Every rank goes through ``_rank_raw(rows, field, width)``, on sparse raw
rows: each row maps a column to a nonzero raw value.  Gram records,
Macaulay matrices and the Keem witnesses off qi pass theirs directly, and
``rank`` unwraps scalar rows once.  ``_prime_rank`` gives the rank of
the rows' image: exact over fp and fp2, a lower bound over q and qi,
and None when a denominator is divisible by _CHECK_PRIME; ``graded``
reads it alone for its square Macaulay submatrix, whose deficiency
decides nothing.  ``_rank_raw`` keeps that answer when it is exact or
full, and only otherwise fills the rows in densely for Bareiss over Z
(q) or over Z[i] (qi).  All results are exact; nothing here is
approximate.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isqrt, lcm
from struct import pack, unpack

from .fields import GAUSSIAN, PRIME, PRIME_QUADRATIC, RATIONAL, raw_parts, sqrt_mod_p
from .poly import Poly

# Word-size prime for the mod-p-first rank over q and qi; it is 1 mod 4,
# so i maps to the square root _I of -1 there.
_CHECK_PRIME = 2**31 - 19
_I = sqrt_mod_p(-1, _CHECK_PRIME)

# the packed rows of _rank_mod_p are read and written as 64-bit words
_WORD = 2**64 - 1


def _scaled(x, scale):
    """The integer x * scale of a Fraction x whose denominator divides scale."""
    return x.numerator * (scale // x.denominator)


def _as_int_rows(rows, gaussian=False):
    """Clear denominators of raw Fraction rows row by row; rank and row space are unchanged.

    With ``gaussian`` the entries are qi pairs (a, b), the scale of a row
    is the lcm over both parts, and the rows come back as pairs of
    integers, the Gaussian integers a + b*i.  Also returns the product
    of the row scales, the factor by which the determinant of a square
    matrix grows.
    """
    out, total = [], 1
    for row in rows:
        if gaussian:
            scale = lcm(*(x.denominator for v in row for x in v)) if row else 1
            out.append([(_scaled(a, scale), _scaled(b, scale)) for a, b in row])
        else:
            scale = lcm(*(c.denominator for c in row)) if row else 1
            out.append([_scaled(c, scale) for c in row])
        total *= scale
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


def _bareiss_quadratic(rows, nu):
    """``_bareiss`` over Z[sqrt(nu)], on rows of integer pairs (a, b) for a + b*sqrt(nu).

    nu is not a square (-1 for qi; for fp2 the lifted nonresidue, a
    prime), so Z[sqrt(nu)] is a domain and each Bareiss division is
    exact: an update x is divided by the previous pivot q as
    x * conj(q) / N(q), with the norm N(q) = a^2 - nu*b^2.  Products are
    (ac + nu*bd, ad + bc); the pivot comes back as a pair.
    """
    rows = [row[:] for row in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank, sign = 0, 1
    qa, qb, norm = 1, 0, 1  # the previous pivot qa + qb*sqrt(nu) and its norm
    for col in range(n):
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if rows[i][col] != (0, 0)), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        pa, pb = top[col]
        for i in range(rank + 1, m):
            ri = rows[i]
            fa, fb = ri[col]
            # (p*u - f*v) for the pivot p and the row's lead f
            update = [
                (pa * ua - fa * va + nu * (pb * ub - fb * vb), pa * ub + pb * ua - fa * vb - fb * va)
                for (ua, ub), (va, vb) in zip(ri[col:], top[col:])
            ]
            ri[col:] = [((x * qa - nu * y * qb) // norm, (y * qa - x * qb) // norm) for x, y in update]
        qa, qb, norm = pa, pb, pa * pa - nu * pb * pb
        rank += 1
    return rank, (sign * qa, sign * qb)


def _rank_mod_p(rows, p, width):
    """Rank of sparse rows mod p; each row maps column -> residue in [1, p).

    Each row is packed into one integer: slot j, of w 64-bit words,
    holds its entry in column lead + j, where lead is the row's leading
    column.  Rows are bucketed by leading column and the columns are
    visited in increasing order from a heap.  Each bucket pivots on its
    smallest integer, the row that ends first, which keeps fill-in low.
    The pivot is reduced mod p and scaled to lead p - 1 = -1 once, and
    every other row r of the bucket becomes (r + f * pivot) >> slot for
    f its lead mod p, with no reduction: the lead slot is then a
    multiple of p and is shifted out.  A row is updated at most once per
    column and each update adds f * v < p^2 to a slot, so no slot
    exceeds p + width * (p - 1)^2, and w is taken to hold that.  A slot
    that is a nonzero multiple of p is never a lead: when one comes
    first, the whole row is reduced, which clears it.  Stops once the
    rank reaches ``width``.  The rows are not changed.
    """
    words = -(-(p + width * (p - 1) ** 2).bit_length() // 64)
    slot = 64 * words
    mask = (1 << slot) - 1

    def reduced(x, t):
        # every slot of x times t, reduced mod p, through the list of x's 64-bit words
        if x <= mask:
            return x * t % p
        n = -(-x.bit_length() // slot) * words
        flat = list(unpack(f"<{n}Q", x.to_bytes(8 * n, "little")))
        values = flat[::words]
        for k in range(1, words):
            values = [v | h << 64 * k for v, h in zip(values, flat[k::words])]
        values = [v * t % p for v in values]
        flat = [0] * n
        if p > _WORD:
            for k in range(words):
                flat[k::words] = [v >> 64 * k & _WORD for v in values]
        else:
            # a residue fits in the low word of its slot
            flat[::words] = values
        return int.from_bytes(pack(f"<{n}Q", *flat), "little")

    buckets = {}
    for row in rows:
        if row:
            lead = min(row)
            x = 0
            for k, v in row.items():
                x |= v << slot * (k - lead)
            bucket = buckets.get(lead)
            if bucket is None:
                buckets[lead] = [x]
            else:
                bucket.append(x)
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
        pivot = min(bucket)
        bucket.remove(pivot)
        # the pivot scaled to lead -1, so r + f * pivot clears the lead slot
        pivot = reduced(pivot, p - pow(pivot & mask, -1, p))
        for r in bucket:
            x = (r + (r & mask) % p * pivot) >> slot
            lead = col + 1
            while x:
                v = x & mask
                if not v:
                    # skip the zero slots at once
                    z = ((x & -x).bit_length() - 1) // slot
                    x >>= slot * z
                    lead += z
                    v = x & mask
                if v % p:
                    target = buckets.get(lead)
                    if target is None:
                        buckets[lead] = [x]
                        heappush(heap, lead)
                    else:
                        target.append(x)
                    break
                x = reduced(x, 1)
    return rank


def _eliminate(rows, ar, ncols, reduced=False):
    """Dense Gaussian elimination of raw rows in place: (pivot columns, sign).

    ``ar`` is the field's ``Arith`` record (``field.arith``).  Pivots are
    sought in the first ``ncols`` columns only, so extra columns
    (right-hand sides, an identity) ride along.  ``sign`` is the
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


def _residue_rows(rows, field):
    """The image of sparse raw rows over a finite field, as sparse rows column -> nonzero value; or None.

    Over fp the raw values are already nonzero residues, and the rows
    come back unchanged.  fp2 rows do too unless all their entries lie
    in the subfield, where they keep the first part alone.  Over q and
    qi the image is mod _CHECK_PRIME: n/d goes to n * d^-1, and a + b*i
    to a + b*_I in the same pass, and entries that vanish there drop
    out.  None only when a denominator is divisible by _CHECK_PRIME.
    """
    kind = field.kind
    if kind == PRIME:
        return rows
    if kind == PRIME_QUADRATIC:
        if any(v[1] for row in rows for v in row.values()):
            return rows
        return [{j: v[0] for j, v in row.items()} for row in rows]
    p, inverses = _CHECK_PRIME, {1: 1}

    def lift(x):
        # n * d^-1, not yet reduced; pow raises ValueError when P divides d
        den = x.denominator
        inv = inverses.get(den)
        if inv is None:
            inv = inverses[den] = pow(den, -1, p)
        return x.numerator * inv

    try:
        if kind == GAUSSIAN:
            return [{j: x for j, (a, b) in row.items() if (x := (lift(a) + _I * lift(b)) % p)} for row in rows]
        return [{j: x for j, v in row.items() if (x := lift(v) % p)} for row in rows]
    except ValueError:
        return None


def _prime_rank(rows, field, width):
    """Rank of the image of sparse raw rows over a finite field, or None; the rows are not changed.

    Over fp and fp2 this is the exact rank.  Over q and qi the rows are
    reduced mod _CHECK_PRIME, with i sent to a square root _I of -1
    there, and the rank can only drop: the answer is a lower bound,
    exact when it is full.  None when a denominator is divisible by the
    prime (see ``_residue_rows``).  The image of an fp2 matrix off the
    subfield keeps residue pairs, and is realified: with w*w = nu, a row
    r gives the F_p rows of r and of w*r, w*(a + b*w) = nu*b + a*w, the
    parts of column j in columns 2j and 2j + 1; their F_p rank is twice
    the rank over F_{p^2}.
    """
    image = _residue_rows(rows, field)
    if image is None:
        return None
    p = field.p or _CHECK_PRIME
    if type(next((v for row in image for v in row.values()), 0)) is tuple:
        nu, real = field.nu, []
        for row in image:
            r, wr = {}, {}
            for j, (a, b) in row.items():
                if a:
                    r[2 * j] = wr[2 * j + 1] = a
                if b:
                    r[2 * j + 1], wr[2 * j] = b, nu * b % p
            real += (r, wr)
        return _rank_mod_p(real, p, 2 * width) // 2
    return _rank_mod_p(image, p, width)


def _rank_raw(rows, field, width):
    """Rank of sparse raw rows in ``width`` columns, each a map column -> nonzero raw value.

    The rows are not changed.  ``_prime_rank`` goes first, and its
    answer stands when it is exact (fp and fp2) or full.  Otherwise,
    over q and qi, the rows are filled in densely, cleared of
    denominators, and ranked by Bareiss over Z or over Z[i].
    """
    r = _prime_rank(rows, field, width)
    if r is not None and (field.p or r == min(len(rows), width)):
        return r
    zero = field.arith.zero
    dense = [[row.get(j, zero) for j in range(width)] for row in rows]
    if field.kind == GAUSSIAN:
        return _bareiss_quadratic(_as_int_rows(dense, gaussian=True)[0], -1)[0]
    return _bareiss(_as_int_rows(dense)[0])[0]


def rank(rows, field):
    """Rank of a matrix given as a list of scalar rows; see ``_rank_raw``.

    Ragged rows raise ValueError.
    """
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("rank of a matrix with rows of different lengths")
    of = field.arith.of
    return _rank_raw([{j: of(v) for j, v in enumerate(row) if v} for row in rows], field, width)


def det(rows, field):
    """Exact determinant of a square scalar matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return field.one
    ar = field.arith
    rows = [list(map(ar.of, row)) for row in rows]
    if field.kind == RATIONAL:
        int_rows, scale = _as_int_rows(rows)
        full, value = _bareiss(int_rows)
        return field.scalar(Fraction(value, scale) if full == n else 0)
    if field.kind == GAUSSIAN:
        int_rows, scale = _as_int_rows(rows, gaussian=True)
        full, (a, b) = _bareiss_quadratic(int_rows, -1)
        return field.scalar(Fraction(a, scale), Fraction(b, scale)) if full == n else field.zero
    return ar.box(_det_raw(rows, ar))


def _det_raw(rows, ar):
    """Determinant of a square matrix of raw entries by ``_eliminate``; the rows are consumed."""
    n = len(rows)
    pivots, sign = _eliminate(rows, ar, n)
    if len(pivots) < n:
        return ar.zero
    acc = ar.one
    for i in range(n):
        acc = ar.mul(acc, rows[i][i])
    return acc if sign == 1 else ar.neg(acc)


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
    ar = field.arith
    aug = [[*map(ar.of, row), ar.of(b)] for row, b in zip(rows, rhs)]
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
    ar = field.arith
    aug = [
        [*map(ar.of, row)] + [ar.one if j == i else ar.zero for j in range(n)]
        for i, row in enumerate(rows)
    ]
    pivots, _ = _eliminate(aug, ar, n, reduced=True)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [[ar.box(v) for v in row[n:]] for row in aug]


def mat_mul(a, b, field):
    """The product of an n x k and a k x m scalar matrix; ValueError when the shapes do not fit."""
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    if any(len(row) != k for row in a) or any(len(row) != m for row in b):
        raise ValueError("matrix shapes do not fit for a product")
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
    """Determinant of a square matrix of polynomials, by Kronecker substitution.

    Each entry is packed into one integer, over fp2 and qi each of its
    two components by itself; ``_bareiss``, or over fp2 and qi
    ``_bareiss_quadratic`` on the pairs, takes the determinant, whose
    base-2**k digits are read back as coefficients.  It backs the Keem
    pencil determinant and ``sylvester_resultant``, and with it every
    transversality certificate.  The packing is dense in every variable
    that occurs, so the integers grow with the product of the degree
    bounds.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty polynomial matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    field, nvars = rows[0][0].field, rows[0][0].nvars
    if any(e.field is not field or e.nvars != nvars for row in rows for e in row):
        raise ValueError("polynomial matrix over mixed rings")
    p, two = field.p, field.kind in (GAUSSIAN, PRIME_QUADRATIC)
    nu = field.nu if field.kind == PRIME_QUADRATIC else -1
    # Lift: every coefficient a + b*g (w over fp2, i over qi) becomes the
    # integer terms (exps, 0, a) and (exps, 1, b), for a + b*sqrt(nu) in
    # Z[sqrt(nu)], nu = g*g lifted.  Residues are lifted to (-p/2, p/2];
    # over q and qi each row is cleared of denominators, which multiplies
    # the determinant by its scale.
    int_rows, scale = [], 1
    for row in rows:
        row_parts = [[(exps, raw_parts(field, v)) for exps, v in e.raw.items()] for e in row]
        row_scale = 1
        if not p:
            row_scale = lcm(*(x.denominator for terms in row_parts for _, ab in terms for x in ab))
            scale *= row_scale
        int_rows.append(
            [
                [
                    (exps, t, (x - p if 2 * x > p else x) if p else int(x * row_scale))
                    for exps, ab in terms
                    for t, x in enumerate(ab)
                    if x
                ]
                for terms in row_parts
            ]
        )
    # det = sum over permutations of +-prod a_{i,sigma(i)}, so its degree
    # in each variable is at most the sum over rows of the row's largest
    # degree, and, the norm |a| + r*|b| of a + b*sqrt(nu), r = ceil(sqrt(|nu|)),
    # summed over the coefficients being submultiplicative, both parts of
    # its every coefficient are at most B = prod over rows of the summed
    # norms of the row's entries.  Both bounds hold for columns too, as
    # det(A) = det(A^T); the smaller one is taken.  With x_j -> 2**(k*s_j)
    # for the mixed-radix strides s_j of the degree bounds and 2**(k-1) > B,
    # distinct monomials land on distinct base-2**k digits and each
    # balanced digit is one coefficient.
    weights = (1, isqrt(abs(nu) - 1) + 1)

    def line_bounds(lines):
        degrees, bound = [0] * nvars, 1
        for line in lines:
            line_terms = [term for terms in line for term in terms]
            for j in range(nvars):
                degrees[j] += max((exps[j] for exps, _, _ in line_terms), default=0)
            bound *= sum(weights[t] * abs(c) for _, t, c in line_terms)
        return degrees, bound

    (by_rows, row_bound), (by_cols, col_bound) = map(line_bounds, (int_rows, zip(*int_rows)))
    degrees, bound = list(map(min, by_rows, by_cols)), min(row_bound, col_bound)
    if not bound:
        return Poly.zero(field, nvars)
    k = bound.bit_length() + 1
    strides, stride = [], 1
    for d in degrees:
        strides.append(stride)
        stride *= d + 1

    def pack(terms, part):
        return sum(c << k * sum(x * s for x, s in zip(exps, strides)) for exps, t, c in terms if t == part)

    if two:
        full, values = _bareiss_quadratic([[(pack(e, 0), pack(e, 1)) for e in row] for row in int_rows], nu)
    else:
        full, *values = _bareiss([[pack(e, 0) for e in row] for row in int_rows])
    if full < n:
        return Poly.zero(field, nvars)
    # Unpack: the balanced digits of each component.
    radix = [(j, strides[j], d + 1) for j, d in enumerate(degrees) if d]
    acc, half, base = {}, 1 << (k - 1), 1 << k
    for t, value in enumerate(values):
        position = 0
        while value:
            c = value & (base - 1)
            if c >= half:
                c -= base
            value = (value - c) >> k
            if c:
                exps = [0] * nvars
                for j, s, r in radix:
                    exps[j] = position // s % r
                acc.setdefault(tuple(exps), [0, 0])[t] = c
            position += 1
    raw = {}
    for exps, (a, b) in acc.items():
        c = (a % p, b % p) if p else (Fraction(a, scale), Fraction(b, scale))
        c = c if two else c[0]
        if c != field.arith.zero:
            raw[exps] = c
    return Poly._make(field, nvars, raw)
