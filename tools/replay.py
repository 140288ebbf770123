"""Replay a fixed, seeded corpus of CLI calls and print one line per call.

Run from the repository root:

    python tools/replay.py > replay.txt

Each line is ``exit sha256(stdout) argv-json`` for one argv, run
in-process through ``ulrich_forge.cli.main``.  The corpus is built from
``random.Random(0)`` with the script's own arithmetic, never the
library's, so two checkouts replay the same argvs and ``diff`` of their
outputs lists exactly the calls whose exit code or stdout changed.  It
covers ``ulrich pipeline``/``bounds`` on smooth, reducible and singular
forms, ``smooth check``, ``hilbert value``, ``quad pencil-det``,
``mf det-cert``, ``cover transversal`` and ``cover keem-counterexample``
over fp:13, fp:101, fp:32003, fp2:13, q and qi; the Keem calls pass
``--max-trials`` and ``--seed``, which the subcommand does not take, so
argparse refuses them and they are recorded as exit 2.  After them come
``mf build`` calls on quadrics of rank 1 to 6 over the same fields,
drawn from their own ``random.Random(1)`` so that the earlier lines keep
their argvs, and last, from ``random.Random(2)``, the calls that reach
the polynomial determinants: ``ulrich normalize`` over q, qi and
fp:101, ``cover transversal`` of cubics over fp:5 and fp:7 (d*d >= p),
and ``quad pencil-det`` in 8 to 12 variables over the six fields.  Then
one fixed call of every subcommand with ``--field fp:4`` and once with
``--nvars 0``: the errors raised before any handler runs (``cover rh``
and ``cover keem-counterexample`` have no ``--nvars``).  Then, from
``random.Random(3)``, ``quad diag`` and ``quad sop`` over the six fields
on random quadrics, quadrics of known rank, forms with mixed terms only
and fixed forms with a zero diagonal such as ``x*y + z*t``.  After them,
from ``random.Random(4)``, the subcommands no earlier line runs to a
result: ``cover split-check`` on forms with and without a witness,
``mf verify`` on Clifford matrices, tampered ones and a wrong quadric,
``quad rank`` and ``cover rh``.  Then one fixed call of every
subcommand with each option it does not read (``--seed``, ``--nvars``,
``--e-max`` or ``--max-trials``), which argparse refuses: such a usage
error prints nothing to stdout and is recorded as exit 2.  Then
``smooth check`` and ``ulrich normalize`` over q and qi on fixed forms
whose image mod the prime 2^26 - 27 is undefined, loses a partial or a
pure power, or is singular, so that the exact route decides.  Then the
``ulrich pipeline`` and ``ulrich bounds`` calls of ``SUBCOMMANDS`` with
``--deg 4``: the degree is read from the form, so argparse refuses the
option, and the call is recorded as exit 2.  Then the options the form
decides and the abbreviated options, all refused as usage errors: the
``ulrich pipeline`` and ``ulrich bounds`` calls of ``SUBCOMMANDS`` once
with ``--e-max 4`` and once with ``--seed 3``, the ``smooth check`` call
with ``--e-max 4``, and three calls that name an option by a prefix
(``--deg``, ``--e``, ``--max``).  Last, ``cover keem-counterexample``
over each of the six fields with no other option; over q and fp:32003
it ends in the "field lacks a square root of -1" envelope.  After them,
from ``random.Random(5)``, ``cover transversal`` at the edges of the
chart resultant's routes (see ``_transversal_argvs``): quartics over
fp:17 and fp:13, q and qi pairs whose image mod 2^26 - 27 decides
nothing, qi pairs, pairs with no x^d term, a shared component and a
tangent pair.  The script takes no options.

``tests/replay_digests.txt`` freezes the first two columns, one line per
argv; after a deliberate change to an envelope, regenerate it with

    python tools/replay.py | cut -d " " -f 1,2 > tests/replay_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ulrich_forge.cli import main as cli_main  # noqa: E402

FIELDS = ("fp:13", "fp:101", "fp:32003", "fp2:13", "q", "qi")
VARIABLES = "xyzt"


class Ring:
    """Coefficients a + b*g of one field as pairs, g*g = ``square``; b = 0 off fp2 and qi."""

    def __init__(self, spec):
        kind, _, p = spec.partition(":")
        self.p = int(p) if p else 0
        self.two = kind in ("fp2", "qi")
        self.generator = "w" if kind == "fp2" else "i"
        if kind == "fp2":
            # the smallest nonresidue, by Euler's criterion
            self.square = next(a for a in range(2, self.p) if pow(a, self.p // 2, self.p) == self.p - 1)
        else:
            self.square = -1

    def norm(self, a, b):
        return (a % self.p, b % self.p) if self.p else (a, b)

    def random(self, rng):
        """A small random coefficient; zero about one time in five."""
        if rng.random() < 0.2:
            return (0, 0)
        if self.p:
            part = lambda: rng.randrange(self.p)  # noqa: E731
        else:
            part = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))  # noqa: E731
        return self.norm(part(), part() if self.two else 0)

    def mul(self, x, y):
        return self.norm(x[0] * y[0] + self.square * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def text(self, c):
        """(negative, text of the absolute value); a pair keeps its signs inside parentheses."""
        a, b = c
        if not b:
            return a < 0, str(abs(a))
        imag = f"{b}{self.generator}"
        return False, f"({a}{'' if b < 0 else '+'}{imag})" if a else f"({imag})"


def _monomials(nvars, degree):
    """The exponent tuples of a degree."""
    combos = combinations_with_replacement(range(nvars), degree)
    return [tuple(combo.count(v) for v in range(nvars)) for combo in combos]


PRIME_13 = Ring("fp:13")


def _form(ring, rng, nvars, degree):
    """A random form as a map exponent tuple -> coefficient pair."""
    out = {}
    for exps in _monomials(nvars, degree):
        c = ring.random(rng)
        if c != (0, 0):
            out[exps] = c
    return out or {(degree,) + (0,) * (nvars - 1): (1, 0)}


def _scaled_sum(ring, terms):
    """The sum of c * f over (c, f) pairs."""
    out = {}
    for c, f in terms:
        for k, v in f.items():
            s = ring.mul(c, v)
            t = out.get(k, (0, 0))
            out[k] = ring.norm(t[0] + s[0], t[1] + s[1])
    return {k: v for k, v in out.items() if v != (0, 0)}


def _product(ring, f, g):
    """f * g, as the sum over the terms a*M of f of a * M*g."""
    shifted = lambda e: {tuple(x + y for x, y in zip(e, h)): b for h, b in g.items()}  # noqa: E731
    return _scaled_sum(ring, [(a, shifted(e)) for e, a in f.items()])


def _text(ring, f, names=VARIABLES):
    if not f:
        return "0"
    out = ""
    for exps in sorted(f, reverse=True):
        monomial = "*".join(
            names[j] if e == 1 else f"{names[j]}^{e}" for j, e in enumerate(exps) if e
        )
        negative, coeff = ring.text(f[exps])
        term = coeff if not monomial else monomial if coeff == "1" else f"{coeff}*{monomial}"
        sign = (" - " if negative else " + ") if out else ("-" if negative else "")
        out += sign + term
    return out


def _unit(ring, rng):
    c = ring.random(rng)
    return c if c != (0, 0) else (1, 0)


def _pipeline_forms(ring, rng):
    """Plane and surface forms of even degree: smooth, reducible, squared and rank-two ones."""
    quartics = [_form(ring, rng, 3, 4) for _ in range(4)]
    conics = [_form(ring, rng, 3, 2) for _ in range(3)]
    surface = [_form(ring, rng, 4, 2)]
    reducible = [_product(ring, _form(ring, rng, 3, 2), _form(ring, rng, 3, 2)) for _ in range(2)]
    square = [_product(ring, g, g) for g in [_form(ring, rng, 3, 2)]]
    # a*l^2 + c*m^2: a pair of lines, over the field or conjugate over its extension
    rank_two = []
    for _ in range(3):
        l, m = _form(ring, rng, 3, 1), _form(ring, rng, 3, 1)
        squares = [(_unit(ring, rng), _product(ring, l, l)), (_unit(ring, rng), _product(ring, m, m))]
        rank_two.append(_scaled_sum(ring, squares))
    # coefficients 0 and +-1 leave the square roots the pipeline takes
    # often in q and qi, so these reach the rank report there too
    signs = [
        {e: ring.norm(c, 0) for e in _monomials(3, degree) if (c := rng.choice((-1, 0, 0, 1)))}
        for degree in (2, 2, 2, 4, 4, 4)
    ]
    return [f for f in quartics + conics + surface + reducible + square + rank_two + signs if f]


def _linear(ring, rng):
    return _form(ring, rng, 3, 1)


def _clifford_matrices(ring, rng):
    """(quadric, entries) of the Clifford matrix of l1*m1 + l2*m2, of it with one entry tampered, and of l*m."""
    t = partial(_text, ring)
    one, minus = (1, 0), (-1, 0)
    l1, m1, l2, m2 = (_linear(ring, rng) for _ in range(4))
    quadric = _scaled_sum(ring, [(one, _product(ring, l1, m1)), (one, _product(ring, l2, m2))])
    minus_l2, minus_m2 = (t(_scaled_sum(ring, [(minus, f)])) for f in (l2, m2))
    # row by row, so that its square is (l1*m1 + l2*m2) * Id
    four = [
        "0", "0", t(l1), t(l2),
        "0", "0", minus_m2, t(m1),
        t(m1), minus_l2, "0", "0",
        t(m2), t(l1), "0", "0",
    ]
    l, m = _linear(ring, rng), _linear(ring, rng)
    two = ["0", t(l), t(m), "0"]
    tampered = four[:]
    tampered[2] = t(_scaled_sum(ring, [(one, l1), (one, _linear(ring, rng))]))
    return [(t(quadric), four), (t(quadric), tampered), (t(_product(ring, l, m)), two)]


def _det_cert_argvs(ring, rng):
    """``mf det-cert`` of the three matrices of ``_clifford_matrices``, each with a seed drawn after them."""
    return [
        ["mf", "det-cert", q, *entries, "--max-trials", "12", "--seed", str(rng.randrange(100))]
        for q, entries in _clifford_matrices(ring, rng)
    ]


def _quadric_of_rank(ring, rng, rank, plain):
    """A quadric of rank ``rank`` in rank..6 variables x0, x1, ..., as (text, nvars).

    The forms y_i = x_i (plus random multiples of later variables unless
    ``plain``) are independent, so both c * (y_0^2 - y_1^2 + y_2^2 - ...)
    and y_0*y_1 + y_2*y_3 + ... (+ c * y_last^2) have rank ``rank`` for
    nonzero c in odd or zero characteristic.
    """
    nvars = rng.randint(rank, 6)
    unit = lambda i: tuple(int(j == i) for j in range(nvars))  # noqa: E731
    ys = [{unit(i): (1, 0)} for i in range(rank)]
    for i, y in enumerate([] if plain else ys):
        y.update({unit(j): c for j in range(i + 1, nvars) if (c := ring.random(rng)) != (0, 0)})
    if rng.random() < 0.5:
        c = _unit(ring, rng)
        terms = [(ring.norm(-c[0], -c[1]) if i % 2 else c, _product(ring, y, y)) for i, y in enumerate(ys)]
    else:
        terms = [((1, 0), _product(ring, ys[i], ys[i + 1])) for i in range(0, rank - 1, 2)]
        if rank % 2:
            terms.append((_unit(ring, rng), _product(ring, ys[-1], ys[-1])))
    return _text(ring, _scaled_sum(ring, terms), [f"x{j}" for j in range(nvars)]), nvars


def _build_argvs():
    """``mf build`` of two quadrics per rank 1..6 and field, one in plain variables, then x*y + z^2 over q."""
    rng = random.Random(1)
    argvs = []
    for spec in FIELDS:
        ring = Ring(spec)
        for rank in range(1, 7):
            for plain in (False, True):
                text, nvars = _quadric_of_rank(ring, rng, rank, plain)
                argvs.append(["mf", "build", text, "--nvars", str(nvars), "--field", spec])
    argvs.append(["mf", "build", "x*y + z^2", "--field", "q"])
    return argvs


def _determinant_argvs():
    """``ulrich normalize``, small-characteristic ``cover transversal`` and large ``quad pencil-det`` calls."""
    rng = random.Random(2)
    argvs = []
    for spec in ("q", "qi", "fp:101"):
        ring = Ring(spec)
        for degree in (2, 2, 3):
            f1, g1, f2, g2 = (_form(ring, rng, 3, degree) for _ in range(4))
            F = _scaled_sum(ring, [((1, 0), _product(ring, f1, g1)), ((1, 0), _product(ring, f2, g2))])
            texts = [_text(ring, h) for h in (F, f1, g1, f2, g2)]
            argvs.append(["ulrich", "normalize", *texts, "--seed", str(rng.randrange(100)), "--field", spec])
    for spec in ("fp:5", "fp:7"):
        ring = Ring(spec)
        for _ in range(3):
            pair = [_text(ring, _form(ring, rng, 3, 3)) for _ in range(2)]
            argvs.append(["cover", "transversal", *pair, "--seed", str(rng.randrange(100)), "--field", spec])
    for spec in FIELDS:
        ring = Ring(spec)
        for nvars in (8, 10, 12):
            names = [f"x{j}" for j in range(nvars)]
            quadrics = [_text(ring, _form(ring, rng, nvars, 2), names) for _ in range(2)]
            argvs.append(["quad", "pencil-det", *quadrics, "--nvars", str(nvars), "--field", spec])
    return argvs


# one call of every subcommand; its texts are never read, since a bad
# field or arity is a usage error before any handler runs
SUBCOMMANDS = (
    ["quad", "rank", "x*y + z^2"],
    ["quad", "diag", "x*y + z^2"],
    ["quad", "sop", "x*y + z^2"],
    ["quad", "pencil-det", "x*y", "z^2"],
    ["mf", "build", "x*y + z^2"],
    ["mf", "verify", "x*y", "0", "x", "y", "0"],
    ["mf", "det-cert", "x*y", "0", "x", "y", "0"],
    ["ulrich", "pipeline", "x^4 + y^4 + z^4"],
    ["ulrich", "bounds", "x^4 + y^4 + z^4"],
    ["ulrich", "normalize", "x^2*y^2 + z^4", "x*y", "x*y", "z^2", "z^2"],
    ["hilbert", "value", "x^2", "y^2", "-e", "2"],
    ["smooth", "check", "x^3 + y^3 + z^3"],
    ["cover", "rh", "--h", "1", "--d", "3"],
    ["cover", "split-check", "x", "y", "x", "y", "z"],
    ["cover", "transversal", "x^2 - y*z", "y^2 - x*z"],
    ["cover", "keem-counterexample"],
)


def _quadform_argvs():
    """``quad diag`` and ``quad sop`` over the six fields, from their own ``random.Random(3)``.

    Per field: random quadrics in 1 to 6 variables, quadrics of rank 1
    to 6 in up to 6 variables (some of lower rank than their arity),
    random forms with mixed terms only, and fixed forms whose diagonal
    is zero, which open the congruence with x_i -> u + v, x_j -> u - v.
    """
    rng = random.Random(3)
    fixed = ("x*y", "x*y + z*t", "x*y + y*z + z*t", "x*z + y*t + x*t", "x*y + 2*z^2")
    argvs = []
    for spec in FIELDS:
        ring = Ring(spec)
        forms = []
        for _ in range(4):
            nvars = rng.randint(1, 6)
            forms.append((_text(ring, _form(ring, rng, nvars, 2), [f"x{j}" for j in range(nvars)]), nvars))
        for _ in range(4):
            forms.append(_quadric_of_rank(ring, rng, rng.randint(1, 6), rng.random() < 0.5))
        for _ in range(3):
            nvars = rng.randint(2, 6)
            mixed = {e: c for e, c in _form(ring, rng, nvars, 2).items() if max(e) == 1}
            forms.append((_text(ring, mixed, [f"x{j}" for j in range(nvars)]), nvars))
        forms += [(text, 4) for text in fixed]
        for text, nvars in forms:
            for verb in ("diag", "sop"):
                argvs.append(["quad", verb, text, "--nvars", str(nvars), "--field", spec])
    return argvs


def _untested_argvs():
    """``cover split-check``, ``mf verify``, ``quad rank`` and ``cover rh``, from their own ``random.Random(4)``.

    Per field: ``cover split-check`` for d = 1 and 2 on r = h*F1 + l*m + a^2,
    which has the witness h, and on r plus a random form of degree 2d,
    which almost never has one; ``mf verify`` on the three matrices of
    ``_clifford_matrices`` and on the 2 x 2 one against another quadric;
    ``quad rank`` on two random quadrics and two of known rank.  Then
    ``cover rh`` once per field on a random (h, d), and on d = 0 and on
    h = -1, which it refuses.
    """
    rng = random.Random(4)
    one = (1, 0)
    argvs = []
    for spec in FIELDS:
        ring = Ring(spec)
        field = ["--field", spec]
        for d in (1, 2):
            F1, h, l, m, a = (_form(ring, rng, 3, d) for _ in range(5))
            r = _scaled_sum(ring, [(one, _product(ring, *pair)) for pair in ((h, F1), (l, m), (a, a))])
            wrong = _scaled_sum(ring, [(one, r), (one, _form(ring, rng, 3, 2 * d))])
            for target in (r, wrong):
                texts = [_text(ring, g) for g in (F1, target, l, m, a)]
                argvs.append(["cover", "split-check", *texts, *field])
        matrices = _clifford_matrices(ring, rng)
        matrices.append((_text(ring, _form(ring, rng, 3, 2)), matrices[-1][1]))
        argvs += [["mf", "verify", q, *entries, *field] for q, entries in matrices]
        forms = [(_text(ring, _form(ring, rng, 3, 2)), 3) for _ in range(2)]
        forms += [_quadric_of_rank(ring, rng, rng.randint(1, 6), rng.random() < 0.5) for _ in range(2)]
        argvs += [["quad", "rank", text, "--nvars", str(nvars), *field] for text, nvars in forms]
    for spec in FIELDS:
        argvs.append(["cover", "rh", "--h", str(rng.randint(0, 4)), "--d", str(rng.randint(1, 6)), "--field", spec])
    argvs += [["cover", "rh", "--h", "1", "--d", "0"], ["cover", "rh", "--h", "-1", "--d", "3"]]
    return argvs


def _pre_handler_argvs():
    """Every subcommand with a field that is no field, then with no variables."""
    return [argv + flag for argv in SUBCOMMANDS for flag in (["--field", "fp:4"], ["--nvars", "0"])]


# the options each subcommand does not read, and so refuses as a usage
# error; fixed here rather than read from the CLI, so that every
# checkout replays the same argvs
UNREAD_OPTIONS = {
    "quad rank": ("--seed", "--e-max", "--max-trials"),
    "quad diag": ("--seed", "--e-max", "--max-trials"),
    "quad sop": ("--seed", "--e-max", "--max-trials"),
    "quad pencil-det": ("--seed", "--e-max", "--max-trials"),
    "mf build": ("--seed", "--e-max", "--max-trials"),
    "mf verify": ("--seed", "--e-max", "--max-trials"),
    "mf det-cert": ("--e-max",),
    "ulrich pipeline": ("--max-trials",),
    "ulrich bounds": ("--max-trials",),
    "ulrich normalize": ("--e-max",),
    "hilbert value": ("--seed", "--e-max", "--max-trials"),
    "smooth check": ("--max-trials",),
    "cover rh": ("--seed", "--nvars", "--e-max", "--max-trials"),
    "cover split-check": ("--seed", "--e-max", "--max-trials"),
    "cover transversal": ("--e-max",),
    "cover keem-counterexample": ("--nvars", "--e-max"),
}


def _unread_option_argvs():
    """Every subcommand of ``SUBCOMMANDS`` with each option of ``UNREAD_OPTIONS``."""
    return [argv + [option, "1"] for argv in SUBCOMMANDS for option in UNREAD_OPTIONS[" ".join(argv[:2])]]


def _image_hand_over_argvs():
    """``smooth check`` and ``ulrich normalize`` over q and qi on forms whose image mod 2^26 - 27 decides nothing.

    With P = 2^26 - 27 and j the residue with j*j = -1 mod P, the
    coefficients 1/P, P and -j + i have no image mod P, or a zero one.
    One form each has no image, loses its x partial, or loses the pure
    power x^4 while its x partial lives on; then come singular forms, one
    with a rational singular point and one singular at (i, 1, 0) only.
    Each ``normalize`` line presents its first text as f1*g1 + f2*g2.
    """
    p, j = 67108837, 11846621
    vanishing = f"(-{j}+i)"
    rational_singular = (
        "x^4 - 4*x^3*y + 7*x^2*y^2 - 2*x^2*y*z + x^2*z^2 - 4*x*y^3 + 2*y^4 - 2*y^3*z + 2*y^2*z^2 - 2*y*z^3 + z^4"
    )
    checks = [
        ("q", f"1/{p}*x^4 + y^4 + z^4"),
        ("qi", f"1/{p}*x^4 + (2+i)*y^4 + z^4"),
        ("q", f"{p}*x^4 + y^4 + z^4"),
        ("qi", f"{vanishing}*x^4 + (i)*y^4 + z^4"),
        ("q", f"{p}*x^4 + x^3*y + y^4 + z^4"),
        ("qi", f"{vanishing}*x^4 + (1+i)*x^3*y + y^4 + (i)*z^4"),
        ("q", rational_singular),
        ("qi", rational_singular),
        ("qi", "x^4 + (-2i)*x^3*y + (-2i)*x*y^3 - y^4 + (i)*z^4"),
    ]
    normalizes = [
        ("q", f"1/{p}*x^4 + x^2*y^2 + y^4 - z^4", "x^2", f"1/{p}*x^2 + y^2", "y^2 + z^2", "y^2 - z^2"),
        (
            "qi",
            f"1/{p}*x^4 + (2+i)*x^2*y^2 + (i)*y^4 + (-1+i)*y^2*z^2 - z^4",
            "x^2",
            f"1/{p}*x^2 + (2+i)*y^2",
            "y^2 + z^2",
            "(i)*y^2 - z^2",
        ),
        ("q", f"{p}*x^4 + y^4 - z^4", "x^2", f"{p}*x^2", "y^2 + z^2", "y^2 - z^2"),
        (
            "qi",
            f"{vanishing}*x^4 + (i)*y^4 + (-1+i)*y^2*z^2 - z^4",
            "x^2",
            f"{vanishing}*x^2",
            "y^2 + z^2",
            "(i)*y^2 - z^2",
        ),
        ("q", f"{p}*x^4 + x^3*y + y^4 - z^4", "x^2", f"{p}*x^2 + x*y", "y^2 + z^2", "y^2 - z^2"),
        (
            "qi",
            f"{vanishing}*x^4 + (1+i)*x^3*y + y^4 + (1-i)*y^2*z^2 + (-i)*z^4",
            "x^2",
            f"{vanishing}*x^2 + (1+i)*x*y",
            "y^2 + z^2",
            "y^2 - (i)*z^2",
        ),
    ]
    singular = ("x^4 - x^2*y^2 + x^2*z^2 + x*y^2*z - y^2*z^2 + y*z^3", "x^2 - y^2", "x^2 + z^2", "y*z", "x*y + z^2")
    normalizes += [("q", *singular), ("qi", *singular)]
    normalizes.append(
        ("qi", "x^4 + (-2i)*x^3*y + (-2i)*x*y^3 - y^4 + (i)*z^4", "x^2 + (-2i)*x*y - y^2", "x^2 + y^2", "z^2", "(i)*z^2")
    )
    return [["smooth", "check", text, "--field", spec] for spec, text in checks] + [
        ["ulrich", "normalize", *texts, "--field", spec] for spec, *texts in normalizes
    ]


def _deg_argvs():
    """The ``ulrich pipeline`` and ``ulrich bounds`` calls of ``SUBCOMMANDS`` with ``--deg 4``."""
    return [argv + ["--deg", "4"] for argv in SUBCOMMANDS if argv[:2] in (["ulrich", "pipeline"], ["ulrich", "bounds"])]


def _decided_argvs():
    """The calls with an option the form decides, then those with an abbreviated option."""
    bounded = [argv for argv in SUBCOMMANDS if argv[:2] in (["ulrich", "pipeline"], ["ulrich", "bounds"])]
    argvs = [argv + flag for argv in bounded for flag in (["--e-max", "4"], ["--seed", "3"])]
    argvs += [argv + ["--e-max", "4"] for argv in SUBCOMMANDS if argv[:2] == ["smooth", "check"]]
    return argvs + [
        ["hilbert", "value", "x^2", "y^2", "--deg", "3"],
        ["ulrich", "bounds", "x^4 + y^4 + z^4", "--field", "fp:13", "--e", "3"],
        ["cover", "transversal", "x^2 - y*z", "y^2 - x*z", "--max", "2"],
    ]


def _keem_argvs():
    """``cover keem-counterexample`` over each of the six fields, with no other option."""
    return [["cover", "keem-counterexample", "--field", spec] for spec in FIELDS]


def _transversal_argvs():
    """``cover transversal`` at the edges of the chart resultant's routes, from their own ``random.Random(5)``.

    Integer quartic pairs read over fp:17 (17 > 16 = d*d, so values at
    d*d + 1 nodes and interpolation) and over fp:13 (the polynomial
    determinant); over q and qi, with P = 2^26 - 27, pairs whose image
    mod P decides nothing: a denominator P, an x^2 coefficient that
    vanishes mod P, and a chart resultant y(y - P)(y - 1)(y - 2) whose
    image has a double root; random qi pairs; pairs with no x^d term,
    so that a change of coordinates is drawn; a shared component; and a
    pair of tangent conics.
    """
    rng = random.Random(5)
    p, j = 67108837, 11846621
    argvs = []
    for _ in range(3):
        pair = [_text(PRIME_13, _form(PRIME_13, rng, 3, 4)) for _ in range(2)]
        seed = str(rng.randrange(100))
        argvs += [["cover", "transversal", *pair, "--seed", seed, "--field", spec] for spec in ("fp:17", "fp:13")]
    # x^2 - z^2 meets the second conic where y(y - P) = 0 (x = 1) and
    # (y - 1)(y - 2) = 0 (x = -1)
    double_image = ("x^2 - z^2", f"x^2 - {(p - 3) // 2}*x*y - x*z + y^2 - {(p + 3) // 2}*y*z")
    hand_over = [
        ("q", f"1/{p}*x^2 + y^2 - z^2", "x^2 + x*y - y*z"),
        ("qi", f"1/{p}*x^2 + (i)*y^2 - z^2", "x^2 + x*y - y*z"),
        ("q", f"{p}*x^2 + y^2 - z^2", "x^2 + x*y - y*z"),
        ("qi", f"(-{j}+i)*x^2 + y^2 - z^2", "x^2 + (1+i)*x*y - y*z"),
        ("q", *double_image),
        ("qi", *double_image),
    ]
    argvs += [["cover", "transversal", *pair, "--field", spec] for spec, *pair in hand_over]
    qi = Ring("qi")
    for degree in (2, 3):
        pair = [_text(qi, _form(qi, rng, 3, degree)) for _ in range(2)]
        argvs.append(["cover", "transversal", *pair, "--seed", str(rng.randrange(100)), "--field", "qi"])
    fixed = (
        ("x*y + z^2", "y^2 - x*z"),
        ("x^2*y + z^3", "x^2*z + y^3 + y*z^2"),
        ("x^2 + x*z - x*y - y*z", "x^2 + x*y - 2*y^2"),
        ("y*z - x^2", "y*z - x^2 + y^2"),
    )
    for spec in ("fp:17", "fp:32003", "q", "qi"):
        argvs += [["cover", "transversal", *pair, "--field", spec] for pair in fixed]
    return argvs


def corpus():
    """The argvs, in a fixed order."""
    rng = random.Random(0)
    argvs = []
    for spec in FIELDS:
        ring = Ring(spec)
        field = ["--field", spec]
        for f in _pipeline_forms(ring, rng):
            for verb in ("pipeline", "bounds"):
                argvs.append(["ulrich", verb, _text(ring, f), *field])
        for nvars, degree in ((3, 3), (3, 4), (3, 4), (4, 3)):
            argvs.append(["smooth", "check", _text(ring, _form(ring, rng, nvars, degree)), *field])
        reducible = _product(ring, _linear(ring, rng), _form(ring, rng, 3, 2))
        argvs.append(["smooth", "check", _text(ring, reducible), *field])
        # integer coefficients: a form over the prime field, read in every field
        argvs.append(["smooth", "check", _text(PRIME_13, _form(PRIME_13, rng, 3, 4)), *field])
        for degree, count in ((2, 3), (3, 2)):
            for e in (degree, 2 * degree - 1):
                gens = [_text(ring, _form(ring, rng, 3, degree)) for _ in range(count)]
                argvs.append(["hilbert", "value", *gens, "-e", str(e), *field])
        for nvars in (3, 3, 4, 4):
            quadrics = [_text(ring, _form(ring, rng, nvars, 2)) for _ in range(2)]
            argvs.append(["quad", "pencil-det", *quadrics, "--nvars", str(nvars), *field])
        argvs += [argv + field for argv in _det_cert_argvs(ring, rng)]
        for degree in (1, 2, 2, 3):
            pair = [_text(ring, _form(ring, rng, 3, degree)) for _ in range(2)]
            argvs.append(["cover", "transversal", *pair, "--seed", str(rng.randrange(100)), *field])
        for seed in range(3):
            argvs.append(["cover", "keem-counterexample", "--max-trials", "20", "--seed", str(seed), *field])
    return (
        argvs
        + _build_argvs()
        + _determinant_argvs()
        + _pre_handler_argvs()
        + _quadform_argvs()
        + _untested_argvs()
        + _unread_option_argvs()
        + _image_hand_over_argvs()
        + _deg_argvs()
        + _decided_argvs()
        + _keem_argvs()
        + _transversal_argvs()
    )


def digest(argv):
    """Exit code and sha256 of stdout of one argv, as "exit sha256"; a usage error argparse raises exits 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def replay(argv):
    """One output line for one argv: exit code, sha256 of stdout, the argv as JSON."""
    return f"{digest(argv)} {json.dumps(argv)}"


def main():
    for argv in corpus():
        print(replay(argv))


if __name__ == "__main__":
    main()
