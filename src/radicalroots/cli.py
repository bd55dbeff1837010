"""Command-line front end.

Subcommands: ``solve`` (full pipeline), ``roots`` (numeric roots only),
``series`` (composition series of a generated group), ``check`` (integrality
certificates for a labeling).  Output is deterministic: identical inputs and
flags produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath

from . import __version__
from .errors import InputSyntaxError, SolverError
from .groups import closure, composition_series, orbit_sum_invariant
from .oracle import (CERTIFICATE_DEGREE_CAP, coset_product_certificate,
                     default_labeling_invariants, invariant_value, label_roots)
from .pipeline import as_generators, as_labeling, as_polynomial, solve
from .polynomial import render_polynomial, sanity_check, to_monic
from .precision import format_complex
from .radical import emit, json_ast
from .resolvent import DEFAULT_MARGIN
from .rootfinder import RootSet, find_roots, relabel, root_residuals

__all__ = ["main"]


def _load_input_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputSyntaxError(f"cannot read input file {path}: {exc}") from None
    if not isinstance(data, dict) or "poly" not in data:
        raise InputSyntaxError('input file must contain a "poly" entry')
    return data


def _entry_list(data: dict, key: str, kind: type, kinds: str) -> list:
    """The input file's ``data[key]``, which must be a list of ``kind``."""
    value = data.get(key, [])
    if not isinstance(value, list) or any(type(v) is not kind for v in value):
        raise InputSyntaxError(
            f'input file entry "{key}" must be a list of {kinds}, '
            f"got {value!r}")
    return value


def _resolve_inputs(args):
    """Polynomial, generator text list, and optional labeling from the flags."""
    poly = None
    generators = getattr(args, "generators", None)
    root_order = getattr(args, "root_order", None)
    if getattr(args, "input", None):
        data = _load_input_file(args.input)
        poly = data["poly"]
        if generators is None:
            generators = ";".join(_entry_list(data, "generators", str, "strings"))
        lab = data.get("labeling") or {}
        if not isinstance(lab, dict):
            raise InputSyntaxError('input file entry "labeling" must be an '
                                   f'object, got {lab!r}')
        if root_order is None and "root_order" in lab:
            root_order = ",".join(
                map(str, _entry_list(lab, "root_order", int, "integers")))
    if getattr(args, "poly", None) is not None:
        poly = args.poly
    if poly is None:
        raise InputSyntaxError("a polynomial is required (--poly or --input)")
    return poly, generators, root_order


def _write_reduction(reduction, out):
    """The `monic reduction:` line of a non-monic input, which `solve`,
    `roots` and `check` print before any number of the reduction."""
    if reduction.scale != 1:
        out.write(f"monic reduction: {render_polynomial(reduction.monic)} "
                  f"({reduction.note})\n")


def _print_solve_text(report, args, out):
    w = out.write
    w(f"polynomial: {render_polynomial(report.polynomial)}\n")
    _write_reduction(report.reduction, out)
    w(f"group: order {report.series.order}, degree {report.series.degree}\n")
    chain = " ; ".join(f"{sigma} [p={p}]" for sigma, p in report.series.steps)
    w(f"composition series: {chain if chain else '(trivial)'}\n")
    w(f"digits: {report.digits} (required {report.plan.required_digits}, "
      f"margin {DEFAULT_MARGIN})\n")
    w(f"labeling: {','.join(map(str, report.labeling.images))} "
      "(label j takes listed root sigma(j))\n")
    w("labeled roots:\n")
    for i, z in enumerate(report.roots.roots, start=1):
        w(f"  x_{i} = {format_complex(z, report.digits)}\n")
    radices = "x".join(map(str, report.theta.radices)) or "scalar"
    w(f"integer tensor ({radices}): {', '.join(map(str, report.theta.values))}\n")
    w(f"max rounding residual: {mpmath.nstr(report.max_rounding_residual, 4)}\n")
    fmt = "latex" if args.format == "latex" else "text"
    w("roots as radicals:\n")
    for i, expr in enumerate(report.root_exprs, start=1):
        value = report.evaluations[i - 1]
        w(f"  x_{i} = {emit(expr, fmt)}\n")
        w(f"      = {format_complex(value, report.digits)}\n")
    if report.verification is not None:
        w(f"verification: max deviation "
          f"{mpmath.nstr(max(report.verification), 4)}\n")
    if args.stats:
        w(f"stats: multiplications {report.multiplications} / "
          f"budget {report.budget}\n")
    for note in report.notes:
        w(f"note: {note}\n")


def _json_complex(z, digits):
    return {"re": mpmath.nstr(z.real, digits), "im": mpmath.nstr(z.imag, digits)}


def _solve_json_payload(report):
    digits = report.digits
    payload = {
        "polynomial": {
            "coeffs": [str(c) for c in report.polynomial.coeffs],
            "monic_coeffs": [str(c) for c in report.reduction.monic.coeffs],
            "scale": str(report.reduction.scale),
        },
        "group": {
            "degree": report.series.degree,
            "order": report.series.order,
        },
        "series": [{"sigma": str(s), "prime": p} for s, p in report.series.steps],
        "digits": report.digits,
        "plan": {
            "required_digits": report.plan.required_digits,
            "margin": DEFAULT_MARGIN,
            "n_bound": str(report.plan.n_bound),
            "x0_bound": report.plan.x0_bound,
        },
        "labeling": list(report.labeling.images),
        "roots": [_json_complex(z, digits) for z in report.roots.roots],
        "theta": {
            "radices": list(report.theta.radices),
            "values": [str(v) for v in report.theta.values],
            "residuals": [mpmath.nstr(r, 4) for r in report.theta.residuals],
        },
        "expressions": [
            {
                "root": i,
                "ast": json_ast(expr),
                "text": emit(expr, "text"),
                "value": _json_complex(report.evaluations[i - 1], digits),
            }
            for i, expr in enumerate(report.root_exprs, start=1)
        ],
        "stats": {"multiplications": report.multiplications,
                  "budget": report.budget},
        "notes": list(report.notes),
    }
    if report.verification is not None:
        payload["verification"] = {
            "max_deviation": mpmath.nstr(max(report.verification), 4),
            "per_root": [mpmath.nstr(d, 4) for d in report.verification],
        }
    return payload


def _cmd_solve(args, out) -> int:
    poly, generators, root_order = _resolve_inputs(args)
    if not generators:
        raise InputSyntaxError("generators are required (--generators)")
    report = solve(poly, generators, digits=args.digits,
                   labeling="auto" if root_order is None else root_order,
                   run_verification=args.verify)
    if args.format == "json":
        out.write(json.dumps(_solve_json_payload(report), indent=2))
        out.write("\n")
    else:
        _print_solve_text(report, args, out)
    return 0


def _cmd_roots(args, out) -> int:
    poly, _, _ = _resolve_inputs(args)
    polynomial = as_polynomial(poly)
    reduction = to_monic(polynomial)
    # the warnings come first: a repeated root stops the root finding
    _write_reduction(reduction, out)
    for note in sanity_check(reduction.monic).notes:
        out.write(f"warning: {note}\n")
    rs = find_roots(reduction.monic, args.digits)
    if reduction.scale != 1:
        # the input's roots are the monic reduction's divided by the scale
        with mpmath.mp.workdps(rs.digits):
            rs = RootSet(tuple(z / reduction.scale for z in rs.roots),
                         rs.digits)
    for i, z in enumerate(rs.roots, start=1):
        out.write(f"  x_{i} = {format_complex(z, rs.digits)}\n")
    residual = max(root_residuals(polynomial, rs))
    out.write(f"max residual |f(x)|: {mpmath.nstr(residual, 4)}\n")
    return 0


def _cmd_series(args, out) -> int:
    if not args.generators:
        raise InputSyntaxError("generators are required (--generators)")
    group = closure(as_generators(args.generators, args.degree))
    series = composition_series(group)
    out.write(f"group order: {group.order}\n")
    for i, (sigma, p) in enumerate(series.steps, start=1):
        out.write(f"  step {i}: sigma = {sigma}, p = {p}\n")
    out.write("p-chain: " + ", ".join(map(str, series.primes)) + "\n")
    return 0


def _cmd_check(args, out) -> int:
    poly, generators, root_order = _resolve_inputs(args)
    if not generators:
        raise InputSyntaxError("generators are required (--generators)")
    polynomial = as_polynomial(poly)
    reduction = to_monic(polynomial)
    degree = reduction.monic.degree
    group = closure(as_generators(generators, degree))
    rs = find_roots(reduction.monic, args.digits)
    # the invariants and the certificate are those of the monic reduction
    _write_reduction(reduction, out)
    if root_order is not None:
        sigma = as_labeling(root_order, degree)
    else:
        sigma = label_roots(group, rs).permutation
    labeled = relabel(rs, sigma)
    out.write(f"labeling: {','.join(map(str, sigma.images))}\n")
    for monomial, orbit in default_labeling_invariants(group):
        value, residual = invariant_value(orbit, labeled)
        out.write(f"orbit sum of {monomial}: {value} "
                  f"(residual {mpmath.nstr(residual, 4)})\n")
    if degree <= CERTIFICATE_DEGREE_CAP:
        edge = (1, 1) + (0,) * (degree - 2)
        cert = coset_product_certificate(
            group, orbit_sum_invariant(group, edge), labeled)
        out.write(f"certificate degree: {cert.degree}\n")
        out.write("certificate coefficients (ascending): "
                  + ", ".join(map(str, cert.coefficients)) + "\n")
        out.write(f"max coefficient residual: "
                  f"{mpmath.nstr(max(cert.residuals), 4)}\n")
    else:
        out.write(f"certificate skipped: degree above cap "
                  f"{CERTIFICATE_DEGREE_CAP}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radicalroots",
        description="Exact radical expressions for the roots of solvable "
                    "integer polynomials, from numeric roots and a permutation "
                    "presentation of the Galois group.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_generators=True):
        p.add_argument("--poly", help="polynomial text, e.g. \"x^5+20x+32\"")
        p.add_argument("--input", help="JSON input file "
                       '{"poly":[a0,...,an],"generators":[...],"labeling":{...}}')
        if with_generators:
            p.add_argument("--generators",
                           help="cycle notation, ';'-separated, e.g. "
                                "\"(1,2,3,4,5);(1,4)(2,3)\"")
            p.add_argument("--root-order", dest="root_order",
                           help="\"i1,i2,...\": label k takes the i_k-th "
                                "listed root (default: search for a labeling)")

    p_solve = sub.add_parser("solve", help="full radical solution")
    add_common(p_solve)
    p_solve.add_argument("--digits", type=int, default=None,
                         help="override the planned digit budget")
    p_solve.add_argument("--format", choices=("text", "latex", "json"),
                         default="text")
    p_solve.add_argument("--verify", action="store_true",
                         help="print each root's deviation from its radical")
    p_solve.add_argument("--stats", action="store_true",
                         help="print the multiplication count and budget")
    p_solve.set_defaults(func=_cmd_solve)

    p_roots = sub.add_parser("roots", help="numeric roots only")
    add_common(p_roots, with_generators=False)
    p_roots.add_argument("--digits", type=int, default=32)
    p_roots.set_defaults(func=_cmd_roots)

    p_series = sub.add_parser("series", help="composition series of a group")
    p_series.add_argument("--generators", required=True)
    p_series.add_argument("--degree", type=int, required=True)
    p_series.set_defaults(func=_cmd_series)

    p_check = sub.add_parser("check", help="integrality certificates")
    add_common(p_check)
    p_check.add_argument("--digits", type=int, default=20)
    p_check.set_defaults(func=_cmd_check)

    return parser


def _check_ranges(args) -> None:
    """Reject numeric flags outside their documented ranges."""
    if getattr(args, "digits", None) is not None and args.digits < 1:
        raise InputSyntaxError(f"--digits must be at least 1, got {args.digits}")
    if getattr(args, "degree", None) is not None and args.degree < 1:
        raise InputSyntaxError(f"--degree must be at least 1, got {args.degree}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args, sys.stdout)
    except SolverError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
