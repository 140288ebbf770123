"""Command-line front end emitting deterministic JSON reports.

Exit codes: 0 for a verified success, 1 for a mathematical failure
(a certificate that fails, a missing witness, a singular form, an
internal self-check that fails), 2 for usage and parse errors,
including a stray division by zero.  Reports carry {version, command, config, ok,
result|error}; the same argv and seed always produce byte-identical
output.  ULRICH_FORGE_SEED in the environment overrides --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .clifford import MatrixFactorization, determinant_certificate, verify_clifford
from .cover import (
    check_branch_splitting,
    keem_counterexample_certificate,
    riemann_hurwitz,
)
from .fields import ExtensionNeeded, FieldSpec
from .graded import SMOOTH, GradedSystem, hilbert_value, is_smooth_hypersurface
from .poly import Poly, infer_nvars, parse_poly
from .quadform import diagonalize, gram_from_poly, pencil_determinant, sum_of_products
from .resultants import certify_transversal
from .veronese import (
    FormDecomposition,
    VeroneseMap,
    decompose_form,
    lift_form,
    normalize_plane_decomposition,
    rank_bounds,
    ulrich_presentation,
)


def _read_poly_texts(args, expected=None, minimum=None):
    """Collect polynomial sources from --file lines and positionals."""
    texts = []
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    texts.append(line)
    texts.extend(getattr(args, "poly", []) or [])
    if expected is not None and len(texts) != expected:
        raise ValueError(f"expected {expected} polynomial(s), got {len(texts)}")
    if minimum is not None and len(texts) < minimum:
        raise ValueError(f"expected at least {minimum} polynomial(s), got {len(texts)}")
    if not texts:
        raise ValueError("no polynomials given")
    return texts


def _parse_texts(texts, field, nvars, config, floor_nvars=1):
    """The texts parsed once each; their arity then enters config.

    With ``nvars`` None (no --nvars) each text is parsed at the arity
    its own variables name, and all are padded to the largest of these
    and ``floor_nvars``.  When a text fails, a tokenization error in any
    text comes first if the arity is inferred, and leaves config as it
    was; otherwise the first error of the texts in order, at their
    common arity, is raised with that arity in config.  Only this error
    path reads a text twice.  A handler's default --max-trials enters
    config before it reads any text, so every error envelope shows it.
    """
    try:
        polys = [parse_poly(t, field, nvars) for t in texts]
    except ValueError:
        if nvars is None:
            nvars = max(max(map(infer_nvars, texts)), floor_nvars)
        config["nvars"] = nvars
        for t in texts:
            parse_poly(t, field, nvars)
        raise
    if nvars is None:
        nvars = max(max(p.nvars for p in polys), floor_nvars)
        polys = [_padded(p, nvars) for p in polys]
    config["nvars"] = nvars
    return polys


def _padded(poly, nvars):
    """The polynomial in ``nvars`` variables, the ones it lacks unused."""
    pad = (0,) * (nvars - poly.nvars)
    if not pad:
        return poly
    return Poly._make(poly.field, nvars, {e + pad: v for e, v in poly.raw.items()})


def _read_polys(args, field, config, expected=None, minimum=None, floor_nvars=1):
    """The polynomials of ``_read_poly_texts``, parsed by ``_parse_texts``."""
    texts = _read_poly_texts(args, expected=expected, minimum=minimum)
    return _parse_texts(texts, field, args.nvars, config, floor_nvars)


def _gram_strings(gram):
    return [[str(v) for v in row] for row in gram]


def _point_strings(point):
    return None if point is None else [str(c) for c in point]


# ---------------------------------------------------------------- handlers


def _cmd_quad_rank(args, field, config):
    (q,) = _read_polys(args, field, config, expected=1)
    rec = gram_from_poly(q)
    return {"rank": rec.rank, "gram": _gram_strings(rec.gram)}, True


def _cmd_quad_diag(args, field, config):
    (q,) = _read_polys(args, field, config, expected=1)
    diag = diagonalize(gram_from_poly(q))
    return {
        "diagonal": [str(v) for v in diag.diagonal],
        "lambdas": [str(l) for l in diag.lambdas],
        "p_matrix": _gram_strings(diag.p_matrix),
    }, True


def _cmd_quad_sop(args, field, config):
    (q,) = _read_polys(args, field, config, expected=1)
    sop = sum_of_products(gram_from_poly(q))
    return {
        "pairs": [[str(l), str(m)] for l, m in sop.pairs],
        "square_term_flag": sop.square_term_flag,
        "working_field": str(sop.quadric.field),
        "quadric": str(sop.quadric),
    }, True


def _cmd_quad_pencil_det(args, field, config):
    r, q = _read_polys(args, field, config, expected=2)
    det = pencil_determinant(gram_from_poly(r), gram_from_poly(q))
    coeffs = det.univariate_coefficients()
    return {
        "determinant": str(det),
        "coefficients": [str(c) for c in coeffs],
        "degree": None if det.is_zero else len(coeffs) - 1,
    }, True


def _cmd_mf_build(args, field, config):
    (q,) = _read_polys(args, field, config, expected=1)
    from .clifford import build_clifford_factorization

    sop = sum_of_products(gram_from_poly(q))
    mf = build_clifford_factorization(sop)
    return {
        "size": mf.size,
        "ulrich_rank": mf.ulrich_rank,
        "working_field": str(mf.field),
        "quadric": str(mf.quadric),
        "pairs": [[str(l), str(m)] for l, m in sop.pairs],
        "entries": [[str(e) for e in row] for row in mf.entries],
    }, True


def _matrix_from_texts(args, field, config):
    texts = _read_poly_texts(args, minimum=2)
    quadric, *entries = _parse_texts(texts, field, args.nvars, config)
    size = len(entries)
    side = int(round(size**0.5))
    if side * side != size:
        raise ValueError(f"entry count {size} is not a perfect square")
    rows = [entries[i * side : (i + 1) * side] for i in range(side)]
    return MatrixFactorization(rows, quadric)


def _cmd_mf_verify(args, field, config):
    mf = _matrix_from_texts(args, field, config)
    verified = verify_clifford(mf)
    return {"verified": verified, "size": mf.size}, verified


def _cmd_mf_det_cert(args, field, config):
    trials = args.max_trials if args.max_trials is not None else 50
    config["max_trials"] = trials
    mf = _matrix_from_texts(args, field, config)
    cert = determinant_certificate(mf, trials=trials, seed=args.seed)
    return {
        "certified": cert.ok,
        "sign": cert.sign,
        "tested": cert.tested,
        "skipped": cert.skipped,
        "reason": cert.reason,
        "proof": cert.proof,
    }, cert.ok


def _decomposition_result(decomp):
    return {
        "summands": [[str(l), str(m)] for l, m in decomp.summands],
        "square_term_flag": decomp.square_term_flag,
        "field": str(decomp.F.field),
        "secant_index": decomp.secant_index,
    }


def _lower_check_result(check):
    return {
        "status": check.status,
        "zero_dimensional": check.zero_dimensional,
        "e_witness": check.e_witness,
        "inequality_holds": check.inequality_holds,
        "witness": _point_strings(check.witness),
    }


def _lower_check_ok(check):
    """A lower-bound check that failed or is inconclusive does not verify."""
    return not check.status.startswith(("failed", "inconclusive"))


def _bounds_result(bounds):
    return {
        "upper_bound": bounds.upper_bound,
        "achieved": bounds.achieved,
        "case": bounds.case,
        "secant_index": bounds.secant_index,
        "summand_count": bounds.summand_count,
        "lower_check": _lower_check_result(bounds.lower_check),
    }


def _pipeline_setup(args, field, config):
    (F,) = _read_polys(args, field, config, expected=1)
    if F.is_zero or not F.is_homogeneous():
        raise ValueError("need a nonzero homogeneous form")
    deg = F.homogeneous_degree()
    if args.deg is not None and args.deg != deg:
        raise ValueError(f"--deg {args.deg} does not match the form degree {deg}")
    if deg % 2:
        raise ValueError("form degree must be even")
    return F, VeroneseMap(F.nvars - 1, deg // 2)


def _cmd_ulrich_pipeline(args, field, config):
    F, vmap = _pipeline_setup(args, field, config)
    lift = lift_form(F, vmap)
    decomp = decompose_form(F, vmap, lift)
    mf, report = ulrich_presentation(F, decomp)
    bounds = rank_bounds(decomp.F, decomp, e_max=args.e_max, seed=args.seed)
    ok = bounds.achieved == mf.ulrich_rank and _lower_check_ok(bounds.lower_check)
    return {
        "lift": {
            "n": vmap.n,
            "d": vmap.d,
            "N": vmap.N,
            "rank": lift.record.rank,
            "gram": _gram_strings(lift.record.gram),
        },
        "decomposition": _decomposition_result(decomp),
        "factorization": {
            "size": report.size,
            "ulrich_rank": report.ulrich_rank,
            "case": report.case,
            "verified": True,
            "entries": report.entries,
        },
        "rank_report": _bounds_result(bounds),
    }, ok


def _cmd_ulrich_bounds(args, field, config):
    F, vmap = _pipeline_setup(args, field, config)
    decomp = decompose_form(F, vmap)
    bounds = rank_bounds(decomp.F, decomp, e_max=args.e_max, seed=args.seed)
    ok = _lower_check_ok(bounds.lower_check)
    return {
        "decomposition": _decomposition_result(decomp),
        "rank_report": _bounds_result(bounds),
    }, ok


def _cmd_ulrich_normalize(args, field, config):
    trials = args.max_trials if args.max_trials is not None else 20
    config["max_trials"] = trials
    texts = _read_poly_texts(args, expected=5)
    F, f1, g1, f2, g2 = _parse_texts(texts, field, args.nvars, config, 3)
    decomp = FormDecomposition(F, ((f1, g1), (f2, g2)))
    out = normalize_plane_decomposition(F, decomp, seed=args.seed, max_trials=trials)
    certs = out.certificates
    failed = certs.get("failed_certificate")
    tv = certs.get("transversality")
    result = {
        "summands": [[str(l), str(m)] for l, m in out.summands],
        "alpha": None if certs.get("alpha") is None else str(certs["alpha"]),
        "beta": None if certs.get("beta") is None else str(certs["beta"]),
        "failed_certificate": failed,
        "transversality": None
        if tv is None
        else {"verdict": tv.verdict, "points": tv.points, "reason": tv.reason},
    }
    return result, failed is None


def _cmd_hilbert_value(args, field, config):
    gens = _read_polys(args, field, config, minimum=1)
    value = hilbert_value(GradedSystem(gens), args.degree)
    return {"degree": args.degree, "value": value}, True


def _cmd_smooth_check(args, field, config):
    (F,) = _read_polys(args, field, config, expected=1)
    res = is_smooth_hypersurface(F, e_max=args.e_max, seed=args.seed)
    return {
        "verdict": res.verdict,
        "e_used": res.e_used,
        "witness": _point_strings(res.witness),
    }, res.verdict == SMOOTH


def _cmd_cover_rh(args, field, config):
    profile = riemann_hurwitz(args.h, args.d)
    return {
        "h": profile.h,
        "d": profile.d,
        "g": profile.g,
        "branch_degree": profile.branch_degree,
        "hypothesis_flag": profile.hypothesis_flag,
        "identity": f"2*{profile.g}-2 = 2*(2*{profile.h}-2)+2*{profile.d}",
    }, True


def _cmd_cover_split_check(args, field, config):
    F1, r, l, m, a = _read_polys(args, field, config, expected=5, floor_nvars=3)
    res = check_branch_splitting(F1, r, l, m, a)
    if res:
        return {"witness": str(res.witness)}, True
    return {"witness": None, "reason": res.reason}, False


def _cmd_cover_transversal(args, field, config):
    trials = args.max_trials if args.max_trials is not None else 8
    config["max_trials"] = trials
    texts = _read_poly_texts(args, expected=2)
    f, g = _parse_texts(texts, field, args.nvars, config, 3)
    res = certify_transversal(f, g, seed=args.seed, max_trials=trials)
    return {
        "verdict": res.verdict,
        "points": res.points,
        "reason": res.reason,
        "trials": res.trials,
    }, res.verdict == "transversal"


def _cmd_cover_keem(args, field, config):
    trials = args.max_trials if args.max_trials is not None else 100
    config["max_trials"] = trials
    cert = keem_counterexample_certificate(field, trials=trials, seed=args.seed)
    return {
        "certified": cert.ok,
        "field": cert.field,
        "i": cert.i_value,
        "pencil_determinant": cert.pencil_determinant,
        "chain": cert.chain,
        "profile": {
            "h": cert.profile.h,
            "d": cert.profile.d,
            "g": cert.profile.g,
            "branch_degree": cert.profile.branch_degree,
            "hypothesis_flag": cert.profile.hypothesis_flag,
        },
        "dependencies": list(cert.dependencies),
    }, cert.ok


# ---------------------------------------------------------------- plumbing


def _add_common(sub, polys=None):
    sub.add_argument("--field", default="q", help="q, qi, fp:P, or fp2:P")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--nvars", type=int, default=None)
    sub.add_argument("--e-max", dest="e_max", type=int, default=None)
    sub.add_argument("--max-trials", dest="max_trials", type=int, default=None)
    sub.add_argument("--file", default=None, help="one polynomial per line, # comments")
    sub.add_argument("--output", choices=("json", "text"), default="json")
    if polys is not None:
        sub.add_argument("poly", nargs=polys, help="polynomial text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ulrich-forge",
        description="exact matrix factorizations of quadrics and double-cover pipelines",
    )
    top = parser.add_subparsers(dest="group", required=True)

    quad = top.add_parser("quad", help="quadratic form operations").add_subparsers(
        dest="verb", required=True
    )
    for name, handler, count in (
        ("rank", _cmd_quad_rank, "*"),
        ("diag", _cmd_quad_diag, "*"),
        ("sop", _cmd_quad_sop, "*"),
        ("pencil-det", _cmd_quad_pencil_det, "*"),
    ):
        sub = quad.add_parser(name)
        _add_common(sub, polys=count)
        sub.set_defaults(handler=handler, command=f"quad {name}")

    mf = top.add_parser("mf", help="matrix factorizations").add_subparsers(
        dest="verb", required=True
    )
    for name, handler in (
        ("build", _cmd_mf_build),
        ("verify", _cmd_mf_verify),
        ("det-cert", _cmd_mf_det_cert),
    ):
        sub = mf.add_parser(name)
        _add_common(sub, polys="*")
        sub.set_defaults(handler=handler, command=f"mf {name}")

    ulrich = top.add_parser("ulrich", help="double-cover pipelines").add_subparsers(
        dest="verb", required=True
    )
    for name, handler in (
        ("pipeline", _cmd_ulrich_pipeline),
        ("bounds", _cmd_ulrich_bounds),
        ("normalize", _cmd_ulrich_normalize),
    ):
        sub = ulrich.add_parser(name)
        _add_common(sub, polys="*")
        if name in ("pipeline", "bounds"):
            sub.add_argument("--deg", type=int, default=None)
        sub.set_defaults(handler=handler, command=f"ulrich {name}")

    hilbert = top.add_parser("hilbert", help="graded dimensions").add_subparsers(
        dest="verb", required=True
    )
    sub = hilbert.add_parser("value")
    _add_common(sub, polys="*")
    sub.add_argument("-e", "--degree", type=int, required=True)
    sub.set_defaults(handler=_cmd_hilbert_value, command="hilbert value")

    smooth = top.add_parser("smooth", help="smoothness decision").add_subparsers(
        dest="verb", required=True
    )
    sub = smooth.add_parser("check")
    _add_common(sub, polys="*")
    sub.set_defaults(handler=_cmd_smooth_check, command="smooth check")

    cover = top.add_parser("cover", help="double covers of curves").add_subparsers(
        dest="verb", required=True
    )
    sub = cover.add_parser("rh")
    _add_common(sub)
    sub.add_argument("--h", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.set_defaults(handler=_cmd_cover_rh, command="cover rh")
    for name, handler in (
        ("split-check", _cmd_cover_split_check),
        ("transversal", _cmd_cover_transversal),
    ):
        sub = cover.add_parser(name)
        _add_common(sub, polys="*")
        sub.set_defaults(handler=handler, command=f"cover {name}")
    sub = cover.add_parser("keem-counterexample")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_cover_keem, command="cover keem-counterexample")

    return parser


def _render_text(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _scalar_text(v):
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _emit(payload, output):
    if output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(payload)))


@functools.cache
def _parser():
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _subcommands(parser):
    """The subcommand parsers of ``parser`` by name; empty for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _mark_texts(argv):
    """argv with each polynomial text that starts with "-" kept positional.

    argparse takes any token that starts with "-" for an option, so
    ``quad rank -x^2`` would be a usage error.  A token is a polynomial
    text when it starts with a single "-" and is neither an option
    string of its subcommand, nor a short option with its value attached
    (``-e2``), nor the value of an option.  It gets a leading space,
    which argparse reads as positional and the polynomial parser skips.
    Everything after "--" is positional already.
    """
    parser, out, previous = _parser(), [], None
    for k, token in enumerate(argv):
        if token == "--":
            return out + argv[k:]
        options, subcommands = parser._option_string_actions, _subcommands(parser)
        if token in subcommands:
            parser = subcommands[token]
        elif (
            token.startswith("-")
            and not token.startswith("--")
            and len(token) > 1
            and token[:2] not in options
            and not (previous in options and options[previous].nargs is None)
        ):
            token = " " + token
        out.append(token)
        previous = token
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_mark_texts(argv))
    env_seed = os.environ.get("ULRICH_FORGE_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"ULRICH_FORGE_SEED is not an integer: {env_seed!r}", file=sys.stderr)
            return 2
    config = {
        "field": args.field,
        "seed": args.seed,
        "nvars": args.nvars,
        "e_max": getattr(args, "e_max", None),
        "max_trials": getattr(args, "max_trials", None),
        "output": args.output,
    }
    envelope = {"version": __version__, "command": args.command, "config": config}
    try:
        if args.max_trials is not None and args.max_trials < 1:
            raise ValueError(f"--max-trials must be at least 1, got {args.max_trials}")
        if args.nvars is not None and args.nvars < 1:
            raise ValueError(f"--nvars must be at least 1, got {args.nvars}")
        field = FieldSpec.parse(args.field)
        result, ok = args.handler(args, field, config)
    except ExtensionNeeded as exc:
        envelope["ok"] = False
        envelope["error"] = f"extension needed: no square root of {exc.element}"
        _emit(envelope, args.output)
        return 1
    except AssertionError as exc:
        # an internal self-check (e.g. the Clifford construction's) failed
        envelope["ok"] = False
        envelope["error"] = f"internal check failed: {exc}"
        _emit(envelope, args.output)
        return 1
    except ZeroDivisionError as exc:
        envelope["ok"] = False
        envelope["error"] = f"division by zero: {exc}"
        _emit(envelope, args.output)
        return 2
    except (ValueError, OSError) as exc:
        envelope["ok"] = False
        envelope["error"] = str(exc)
        _emit(envelope, args.output)
        return 2
    envelope["ok"] = ok
    envelope["result"] = result
    _emit(envelope, args.output)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
