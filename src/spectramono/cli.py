"""Command-line front end.

Each subcommand maps onto one library operation and prints a single JSON
object on standard output: `construct` and `convert` print a structure
document, everything else prints a report. Exit codes:

    0  success / the checked property holds
    1  the checked property fails (report carries a witness)
    2  input or format error, including a document whose entries are not a
       valid structure (labels that are not Hermitian, say) and a value
       too long for Python to print
    3  requested k outside the theorem ranges and --force-brute not given

The environment variable SPECTRAMONO_EPS overrides the approx-mode
tolerance (default 1e-9) before any command runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields, is_dataclass

from .charpoly import RealPolynomial
from .classify import (
    CRepTransitive,
    IRepDominatedNonTransitive,
    IRepDRTHat,
    NotMonomorphic,
    RealConstant,
    classify_k3,
    classify_k4,
    classify_mid_k,
    classify_n_minus_3,
    c3_via_determinants,
)
from .constructions import (
    SignMatrix,
    drt_from_skew_hadamard,
    hat,
    paley_tournament,
    pair_cycle_counts,
    skew_hadamard_from_drt,
    validate_sign_matrix,
    verify_deletion_spectra,
)
from .core import HermitianStructure, Selector, Tournament, c_representation
from .documents import document_dict, parse_document, render_json
from .errors import InputError, InvariantError, SpectramonoError, TheoremRangeError
from .monomorphy import is_k_spectrally_monomorphic, monomorphy_profile
from .scalars import EXACT, GaussianScalar, negligible, rational, set_eps

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_RANGE = 3


_VARIANT_NAMES = {
    RealConstant: "real_constant",
    CRepTransitive: "c_rep_transitive",
    IRepDominatedNonTransitive: "i_rep_dominated_non_transitive",
    IRepDRTHat: "i_rep_drt_hat",
    NotMonomorphic: "not_monomorphic",
}


def _jsonable(value):
    """value in the form a report prints it. A dataclass (every library
    result) becomes the dict of its fields, each converted in turn, so a
    report key is a field name. Lists and tuples become lists; polynomials,
    scalars and selectors take their report forms; structures, tournaments
    and sign matrices become documents. Any other value is returned as it
    is."""
    # most values of a report are these leaves; they skip the tests below
    if value is None or isinstance(value, (int, str, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, RealPolynomial):
        return {"display": value.to_display(), "coefficients": value.coefficient_strings()}
    if isinstance(value, GaussianScalar):
        return value.to_text()
    if isinstance(value, Selector):
        scale = value.scale_sq
        return {
            "values": [v.to_text() for v in value.values],
            "scale_sq": str(scale) if value.mode == EXACT else scale,
        }
    if isinstance(value, (HermitianStructure, Tournament, SignMatrix)):
        return document_dict(value)
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    return value


def _load(path, want_kind=None):
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        doc = parse_document(text)
    except InvariantError as exc:
        # a document whose entries break a structure's rules (labels that
        # are not Hermitian, a pair oriented both ways) is bad input here
        raise InputError(str(exc)) from None
    if want_kind is not None and doc.kind != want_kind:
        raise InputError(
            f"{path} holds a {doc.kind} document, this command needs {want_kind}"
        )
    return doc


def _cmd_check(args):
    doc = _load(args.input, "hermitian")
    g = doc.value
    if args.all_k:
        profile = monomorphy_profile(g)
        report = {
            "command": "check",
            "n": g.n,
            "mode": g.mode,
            "all_k": {str(k): _jsonable(r) for k, r in profile.items()},
        }
        ok = all(r.monomorphic for r in profile.values())
        return report, EXIT_TRUE if ok else EXIT_FALSE
    if args.k is None:
        raise InputError("check needs --k K or --all-k")
    rep = is_k_spectrally_monomorphic(g, args.k)
    report = {
        "command": "check",
        "n": g.n,
        "mode": g.mode,
        "result": _jsonable(rep),
    }
    return report, EXIT_TRUE if rep.monomorphic else EXIT_FALSE


def _dispatch_classify(g, k):
    n = g.n
    if k == n - 3 and n >= 6:
        return classify_n_minus_3(g)
    if k == 3 and n >= 5:
        return classify_k3(g)
    if k == 4 and n >= 7:
        return classify_k4(g)
    if n >= 8 and 4 <= k <= n - 4:
        return classify_mid_k(g, k)
    raise TheoremRangeError(
        f"no characterization theorem covers k={k} at n={n}; "
        "pass --force-brute for an enumeration verdict"
    )


def _cmd_classify(args):
    doc = _load(args.input, "hermitian")
    g = doc.value
    try:
        result = _dispatch_classify(g, args.k)
    except TheoremRangeError as exc:
        if not args.force_brute:
            report = {
                "command": "classify",
                "error": {"kind": "theorem_range", "message": str(exc)},
            }
            return report, EXIT_RANGE
        rep = is_k_spectrally_monomorphic(g, args.k)
        report = {
            "command": "classify",
            "n": g.n,
            "k": args.k,
            "mode": g.mode,
            "variant": "brute_force",
            "monomorphic": rep.monomorphic,
            "details": _jsonable(rep),
        }
        return report, EXIT_TRUE if rep.monomorphic else EXIT_FALSE
    report = {"command": "classify", "n": g.n, "mode": g.mode, **_jsonable(result)}
    report["details"] = report["variant"]
    report["variant"] = _VARIANT_NAMES[type(result.variant)]
    return report, EXIT_TRUE if result.monomorphic else EXIT_FALSE


def _parse_rep_label(text):
    if text == "i":
        return GaussianScalar.i_unit(EXACT)
    if "," not in text:
        raise InputError(
            f"--rep must be 'i' or 'RE,IM' (rationals for exact, decimals for "
            f"approx), got {text!r}"
        )
    left, _, right = text.partition(",")
    approx = any(ch in part for part in (left, right) for ch in ".eE")
    if approx:
        try:
            return GaussianScalar.approx(float(left), float(right))
        except ValueError as exc:
            raise InputError(f"bad --rep components {text!r}: {exc}")
    return GaussianScalar.exact(rational(left.strip()), rational(right.strip()))


def _cmd_construct(args):
    if args.family != "paley":
        raise InputError(f"unknown construction family {args.family!r}")
    if args.q is None:
        raise InputError("construct paley needs --q")
    t = paley_tournament(args.q)
    if args.hat:
        t = hat(t)
    if args.rep is None:
        return document_dict(t), EXIT_TRUE
    return document_dict(c_representation(t, _parse_rep_label(args.rep))), EXIT_TRUE


def _cmd_validate(args):
    doc = _load(args.input, "sign_matrix")
    rep = validate_sign_matrix(doc.value, args.kind)
    return {"command": "validate", **_jsonable(rep)}, EXIT_TRUE if rep.ok else EXIT_FALSE


def _cmd_spectra(args):
    doc = _load(args.input, "sign_matrix")
    rep = verify_deletion_spectra(doc.value, args.max_deletions)
    report = {"command": "spectra", **_jsonable(rep)}
    if rep.failure is not None:
        report["failure"] = dict(zip(("deleted", "expected", "actual"), report["failure"]))
    return report, EXIT_TRUE if rep.ok else EXIT_FALSE


def _cmd_convert(args):
    if args.direction == "drt-to-hadamard":
        doc = _load(args.input, "tournament")
        h = skew_hadamard_from_drt(doc.value)
        return document_dict(h), EXIT_TRUE
    if args.direction == "hadamard-to-drt":
        doc = _load(args.input, "sign_matrix")
        t = drt_from_skew_hadamard(doc.value)
        return document_dict(t), EXIT_TRUE
    raise InputError(f"unknown conversion {args.direction!r}")


def _imaginary_tournament(g):
    """Orientation carried by a purely imaginary structure: x -> y when
    im(g(x,y)) > 0. Rejects labels that are not purely imaginary nonzero."""
    n = g.n
    rows = [0] * n
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            lab = g.label(x, y)
            if not negligible(lab.re, lab.im, g.mode) or lab.is_real():
                raise InputError(
                    f"label at ({x},{y}) is {lab.to_text()}, not purely "
                    "imaginary nonzero; this command needs an i-weighted input"
                )
            if lab.im > 0:
                rows[x] |= 1 << y
    return Tournament(n, rows)


def _cmd_c3(args):
    doc = _load(args.input, "hermitian")
    g = doc.value
    try:
        x_text, _, y_text = args.pair.partition(",")
        x, y = int(x_text), int(y_text)
    except ValueError:
        raise InputError(f"--pair must be 'X,Y' with integers, got {args.pair!r}")
    t = _imaginary_tournament(g)
    dominator = None
    for v in range(t.n):
        if t.out_degree(v) == t.n - 1:
            dominator = v
            break
    if dominator is None:
        raise InputError("no vertex dominates all others; C3 counting needs one")
    if not (0 <= x < t.n and 0 <= y < t.n):
        raise InputError(f"--pair out of range({t.n}): {x},{y}")
    if x == dominator or y == dominator or x == y:
        raise InputError(
            f"--pair must name two distinct vertices different from the "
            f"dominating vertex {dominator}"
        )
    c3, o3 = pair_cycle_counts(t, x, y)
    # the dominator beats x and y, so it closes no 3-cycle with them and
    # makes exactly one transitive triple
    o3 -= 1
    report = {
        "command": "c3",
        "n": g.n,
        "dominating_vertex": dominator,
        "pair": [x, y],
        "c3": c3,
        "o3": o3,
        "method": "direct",
    }
    if args.via_determinants:
        det_count = c3_via_determinants(g, dominator, x, y)
        report["method"] = "determinants"
        report["determinant_count"] = det_count
        report["agrees_with_direct"] = det_count == c3
        if det_count != c3:
            # both routes are exact; disagreement is a library bug, not an
            # input problem, so surface it loudly
            raise InvariantError(
                f"determinant count {det_count} != direct count {c3}"
            )
    return report, EXIT_TRUE


@functools.cache
def _build_parser():
    """The argument parser, built once: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spectramono",
        description="Exact spectra of Hermitian pair-labeled structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="k-spectral monomorphy by enumeration")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--all-k", action="store_true", dest="all_k")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("classify", help="characterization-theorem verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--force-brute",
        action="store_true",
        dest="force_brute",
        help="outside theorem ranges, fall back to plain enumeration",
    )
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("construct", help="build a known family member")
    p.add_argument("family", choices=["paley"])
    p.add_argument("--q", type=int)
    p.add_argument("--hat", action="store_true")
    p.add_argument(
        "--rep",
        help="emit a labeled structure: 'i' for the i-representation, "
        "'RE,IM' for a unit label (rational components for exact mode, "
        "decimal for approx)",
    )
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("validate", help="sign-matrix identity check")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--kind",
        required=True,
        choices=["conference", "skew_conference", "hadamard", "skew_hadamard"],
    )
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("spectra", help="deletion spectra against closed forms")
    p.add_argument("--input", required=True)
    p.add_argument("--max-deletions", type=int, default=3, dest="max_deletions")
    p.set_defaults(handler=_cmd_spectra)

    p = sub.add_parser("convert", help="tournament / skew Hadamard round trip")
    p.add_argument("direction", choices=["drt-to-hadamard", "hadamard-to-drt"])
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("c3", help="3-cycles through a pair, under a dominator")
    p.add_argument("--input", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument(
        "--via-determinants",
        action="store_true",
        dest="via_determinants",
        help="use the 4x4 determinant identity and cross-check it",
    )
    p.set_defaults(handler=_cmd_c3)

    return parser


def _error(kind, message):
    return {"error": {"kind": kind, "message": message}}


def _run(argv):
    """(report, exit code) of one command line."""
    env_eps = os.environ.get("SPECTRAMONO_EPS")
    if env_eps is not None:
        try:
            set_eps(float(env_eps))
        except (ValueError, InputError) as exc:
            return _error("input", f"SPECTRAMONO_EPS: {exc}"), EXIT_INPUT
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except TheoremRangeError as exc:
        return _error("theorem_range", str(exc)), EXIT_RANGE
    except InputError as exc:
        return _error("input", str(exc)), EXIT_INPUT
    except InvariantError:
        # invariant violations are bugs and crash loudly
        raise
    except ValueError as exc:
        # str() of an int past sys.get_int_max_str_digits() digits, in a
        # report or an error message, is input too large to print; any
        # other ValueError is a bug
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        message = f"a value to print has more than {limit} digits, Python's limit for printing an int"
        return _error("input", message + " (sys.get_int_max_str_digits())"), EXIT_INPUT
    except SpectramonoError as exc:
        # everything else a user can trigger is an input problem
        return _error(type(exc).__name__, str(exc)), EXIT_INPUT


def main(argv=None):
    report, code = _run(argv)
    try:
        print(render_json(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (as `| head` does); what is still
        # buffered goes nowhere, and the flush at exit has nothing to raise
        sys.stdout = open(os.devnull, "w")
    return code


if __name__ == "__main__":
    sys.exit(main())
