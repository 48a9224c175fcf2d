"""Command-line surface.

Subcommands: nf, mul, eval, norm, verify, lamperti, report-spatiality,
compare-reps.  Exit codes: 0 on success, 1 on a failed check (with
witnesses), 2 on usage errors.  Given the same arguments and seed the
JSON output is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .grammar import ParseError, element_to_json, format_element, parse_element
from .leavitt import cohn, leavitt, leavitt_infinity
from .measure import FiniteMeasureSpace
from .pnorm import norm_sequence
from .reps import (
    direct_sum_p,
    dual_rep,
    evaluate,
    fourier_twist,
    free_rep,
    interval_rep,
    sequence_rep,
    spatial_condition,
    spatiality_report,
    tensor_identity,
)
from .spatial import (
    DETECT_TOL,
    Rejection,
    detect,
    matrix_from_json,
    matrix_to_json,
    system_to_json,
)
from .verify import SUITES, run_suite


def _kind_of(args):
    if args.kind == "cohn":
        return cohn(args.d)
    if args.kind == "linf":
        return leavitt_infinity()
    return leavitt(args.d)


def rep_from_descriptor(text: str, d: int, p: float):
    """Build a representation from a descriptor such as ``interval``,
    ``sequence``, ``fourier:sequence``, ``free:sequence:8``,
    ``dual:interval``, ``tensor:interval:2`` or ``sum:interval+fourier:sequence``."""
    text = text.strip()
    if text == "interval":
        return interval_rep(d, p)
    if text == "sequence":
        return sequence_rep(d, p)
    head, _, rest = text.partition(":")
    if head == "fourier":
        return fourier_twist(rep_from_descriptor(rest, d, p))
    if head == "dual":
        return dual_rep(rep_from_descriptor(rest, d, p))
    if head == "free":
        base, _, n = rest.rpartition(":")
        return free_rep(rep_from_descriptor(base, d, p), int(n))
    if head == "tensor":
        base, _, k = rest.rpartition(":")
        aux = FiniteMeasureSpace(range(int(k)), [1.0] * int(k))
        return tensor_identity(rep_from_descriptor(base, d, p), aux)
    if head == "sum":
        parts = rest.split("+")
        return direct_sum_p([rep_from_descriptor(part, d, p) for part in parts])
    raise ValueError(f"unknown representation descriptor {text!r}")


def descriptor_json(text: str, args, level: int) -> dict:
    """Structured form of a representation descriptor."""
    head, _, rest = text.strip().partition(":")
    return {
        "constructor": head,
        "parameters": rest,
        "d": args.d,
        "p": args.p,
        "level_max": level,
    }


def _emit(args, payload: dict, pretty_lines, csv_text=None):
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    elif args.format == "csv":
        text = csv_text
    else:
        text = "\n".join(pretty_lines)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_nf(args) -> int:
    kind = _kind_of(args)
    element = parse_element(args.element, kind)
    from .leavitt import normal_form

    canonical = normal_form(element)
    text = format_element(canonical)
    _emit(
        args,
        {"input": args.element, "canonical": text, "json": element_to_json(canonical)},
        pretty_lines=[text],
    )
    return 0


def cmd_mul(args) -> int:
    kind = _kind_of(args)
    from .leavitt import mul

    product = mul(parse_element(args.left, kind), parse_element(args.right, kind))
    text = format_element(product)
    _emit(
        args,
        {"left": args.left, "right": args.right, "product": text,
         "json": element_to_json(product)},
        pretty_lines=[text],
    )
    return 0


def cmd_eval(args) -> int:
    kind = leavitt(args.d)
    rep = rep_from_descriptor(args.rep, args.d, float(args.p))
    element = parse_element(args.element, kind)
    matrix = evaluate(rep, element, args.level)
    payload = {
        "rep": args.rep,
        "rep_descriptor": descriptor_json(args.rep, args, level=args.level),
        "element": args.element,
        "level": args.level,
        "p": args.p,
        "matrix": matrix_to_json(matrix, p_text=args.p),
    }
    shape = f"{len(matrix.target)}x{len(matrix.source)}"
    _emit(args, payload, pretty_lines=[f"matrix {shape} at level {args.level}",
                                       np.array_str(matrix.entries, precision=6)])
    return 0


def _norm_sequence(rep, element, args):
    if args.restarts < 1:
        raise ValueError(f"--restarts must be at least 1, got {args.restarts}")
    return norm_sequence(rep, element, args.nmax, restarts=args.restarts, seed=args.seed)


def cmd_norm(args) -> int:
    element = parse_element(args.element, leavitt(args.d))
    rep = rep_from_descriptor(args.rep, args.d, float(args.p))
    seq = _norm_sequence(rep, element, args)
    rows = [
        {"level": level, "lower_bound": res.estimate, "converged": res.converged}
        for level, res in zip(seq.levels, seq.results)
    ]
    payload = {
        "element": args.element,
        "p": args.p,
        "rep": args.rep,
        "rep_descriptor": descriptor_json(args.rep, args, args.nmax),
        "levels": rows,
    }
    lines = [f"norm lower bounds for {args.element!r} under {args.rep} (p = {args.p})"]
    lines += [
        f"  level {r['level']}: {r['lower_bound']:.12g}"
        + ("" if r["converged"] else "  (not converged)")
        for r in rows
    ]
    csv_lines = ["level,lower_bound,converged"]
    csv_lines += [f"{r['level']},{r['lower_bound']!r},{r['converged']}" for r in rows]
    _emit(args, payload, lines, csv_text="\n".join(csv_lines))
    return 0


def cmd_verify(args) -> int:
    try:
        checks = run_suite(args.suite, args)
    except KeyError:
        print(f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}, all",
              file=sys.stderr)
        return 2
    failed = [c for c in checks if not c.ok]
    lines = [f"{'PASS' if c.ok else 'FAIL'}  {c.name}" for c in checks]
    payload = {
        "suite": args.suite,
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": _jsonable(c.detail)} for c in checks
        ],
    }
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    for c in failed:
        lines.append(
            f"witness[{c.name}]: " + json.dumps(_jsonable(c.detail), sort_keys=True)
        )
    _emit(args, payload, pretty_lines=lines)
    return 0 if not failed else 1


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def cmd_lamperti(args) -> int:
    if args.tol < 0:
        raise ValueError(f"--tol must be nonnegative, got {args.tol}")
    with open(args.matrix) as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "matrix" in data:  # the payload of eval
        data = data["matrix"]
    if not isinstance(data, dict):
        raise ValueError(f"{args.matrix}: matrix JSON must be an object")
    if args.p is not None:
        data["p"] = args.p
    matrix = matrix_from_json(data)
    result = detect(matrix, tol=args.tol)
    if isinstance(result, Rejection):
        payload = {"accepted": False, "reason": result.reason,
                   "witness": _jsonable(result.witness)}
        _emit(args, payload, pretty_lines=[f"rejected: {result.reason}",
                                           json.dumps(_jsonable(result.witness), sort_keys=True)])
        return 1
    payload = {
        "accepted": True,
        "spatial": result.spatial,
        "system": system_to_json(result.system),
        "h": {str(y): result.h[y] for y in result.system.F},
    }
    kind_line = "spatial" if result.spatial else "semispatial, not spatial"
    _emit(args, payload, pretty_lines=[f"accepted: {kind_line}",
                                       json.dumps(payload["system"], sort_keys=True)])
    return 0


def cmd_report_spatiality(args) -> int:
    rep = rep_from_descriptor(args.rep, args.d, float(args.p))
    report = spatiality_report(rep, depth=args.level, seed=args.seed)
    payload = {
        "rep": args.rep,
        "p": args.p,
        "depth": report.depth,
        "seed": report.seed,
        "conditions": {
            name: {"value": cond.value, "note": cond.note, "witness": _jsonable(cond.witness)}
            for name, cond in report.conditions.items()
        },
        "violations": list(report.violations),
    }
    _emit(args, payload, pretty_lines=[report.summary()])
    return 0 if not report.violations else 1


def cmd_compare_reps(args) -> int:
    # every spatial model at exponent p gives the same norm (Phillips), so
    # the largest value of those profiles is a certified lower bound for it
    element = parse_element(args.element, leavitt(args.d))
    p = float(args.p)
    rows, best = [], None
    lines = [f"norm profile of {args.element!r} at p = {args.p}"]
    for descriptor in args.reps:
        rep = rep_from_descriptor(descriptor, args.d, p)
        seq = _norm_sequence(rep, element, args)
        spatial = spatial_condition(rep, 2).value  # report-spatiality's default level
        rows.append({"rep": descriptor, "p": rep.p, "spatial": spatial,
                     "levels": list(seq.levels), "lower_bounds": seq.values})
        for level, value in zip(seq.levels, seq.values):
            if spatial and rep.p == p and (best is None or value > best["value"]):
                best = {"value": value, "rep": descriptor, "level": level}
        shown = "undecided" if spatial is None else spatial
        lines.append(f"  {descriptor:24s} final {seq.values[-1]:.10g}"
                     f"  (p = {rep.p:g}, spatial: {shown})")
    lines.append("lower bound: none" if best is None else
                 f"lower bound: {best['value']:.10g} ({best['rep']}, level {best['level']})")
    payload = {"element": args.element, "p": args.p, "profiles": rows, "lower_bound": best}
    _emit(args, payload, pretty_lines=lines)
    return 0


# every flag a subcommand may take: (option strings, add_argument keywords)
_FLAGS = {
    "d": (("-d", "--d"), {"type": int, "default": 2, "help": "number of generators"}),
    "p": (("-p", "--p"), {"default": "2", "help": "exponent, as a decimal literal"}),
    "kind": (("--kind",), {"choices": ["leavitt", "cohn", "linf"], "default": "leavitt"}),
    "level": (("--level",), {"type": int}),
    "nmax": (("--nmax",), {"type": int, "default": 4}),
    "seed": (("--seed",), {"type": int, "default": 0}),
    "tol": (("--tol",), {"type": float, "default": DETECT_TOL}),
    "restarts": (("--restarts",), {"type": int, "default": 20}),
    "rep": (("--rep",), {"default": "sequence"}),
    "atoms": (("--atoms",), {"type": int}),
    "cases": (("--cases",), {"type": int}),
}


def _subcommand(sub, name, help, flags, formats=("pretty", "json")):
    """A subparser that takes exactly the named flags, plus --format and --out."""
    parser = sub.add_parser(name, help=help)
    for flag in flags:
        options, keywords = _FLAGS[flag]
        parser.add_argument(*options, **keywords)
    parser.add_argument("--format", choices=formats, default="pretty")
    parser.add_argument("--out", default=None)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpcuntz",
        description="Leavitt-algebra normal forms, spatial isometry calculus, "
        "and operator p-norms on weighted sequence spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nf = _subcommand(sub, "nf", "canonical normal form of an element", ["d", "kind"])
    p_nf.add_argument("element")
    p_nf.set_defaults(func=cmd_nf)

    p_mul = _subcommand(sub, "mul", "canonical product of two elements", ["d", "kind"])
    p_mul.add_argument("left")
    p_mul.add_argument("right")
    p_mul.set_defaults(func=cmd_mul)

    p_eval = _subcommand(
        sub, "eval", "matrix of an element at a truncation level", ["d", "p", "level", "rep"]
    )
    p_eval.add_argument("element")
    p_eval.set_defaults(func=cmd_eval, level=2)

    p_norm = _subcommand(
        sub, "norm", "per-level norm lower bounds",
        ["d", "p", "nmax", "seed", "restarts", "rep"], formats=("pretty", "json", "csv"),
    )
    p_norm.add_argument("element")
    p_norm.set_defaults(func=cmd_norm)

    p_verify = _subcommand(
        sub, "verify", "run a verification suite", ["d", "level", "seed", "atoms", "cases"]
    )
    p_verify.add_argument("suite")
    p_verify.set_defaults(func=cmd_verify, d=None)

    p_lamp = _subcommand(
        sub, "lamperti", "semispatial decomposition of a matrix, or rejection", ["p", "tol"]
    )
    p_lamp.add_argument("matrix", help="path to a matrix JSON file")
    p_lamp.set_defaults(func=cmd_lamperti, p=None)

    p_rs = _subcommand(
        sub, "report-spatiality", "representation-class report", ["d", "p", "level", "seed", "rep"]
    )
    p_rs.set_defaults(func=cmd_report_spatiality, level=2)

    p_cmp = _subcommand(
        sub, "compare-reps", "norm profiles across representations",
        ["d", "p", "nmax", "seed", "restarts"],
    )
    p_cmp.add_argument("--rep", dest="reps", action="append", required=True)
    p_cmp.add_argument("element")
    p_cmp.set_defaults(func=cmd_compare_reps)

    return parser


# a negative number in exponent notation, which argparse takes for an
# option flag (it only knows -1 and -0.5 as numbers)
_NEGATIVE_EXPONENT = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][+-]?\d+")


def _attach_negative_values(argv) -> list:
    """Pass '--opt -1e-9' to argparse as '--opt=-1e-9'."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and _NEGATIVE_EXPONENT.fullmatch(arg):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
