"""Command-line surface.

Subcommands: nf, mul, eval, norm, verify, lamperti, report-spatiality,
compare-reps.  Exit codes: 0 on success, 1 on a failed check (with
witnesses), 2 on usage errors.  Given the same arguments and seed the
JSON output is byte-identical.
"""

from __future__ import annotations

import argparse
import json
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
    spatiality_report,
    tensor_identity,
)
from .spatial import Rejection, detect, matrix_from_json, matrix_to_json, system_to_json
from .verify import SUITES, run_suite


def _kind_of(args):
    name = getattr(args, "kind", "leavitt") or "leavitt"
    if name == "cohn":
        return cohn(args.d)
    if name == "linf":
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


def descriptor_json(text: str, args, level=None) -> dict:
    """Structured form of a representation descriptor."""
    head, _, rest = text.strip().partition(":")
    return {
        "constructor": head,
        "parameters": rest,
        "d": args.d,
        "p": args.p,
        "level_max": level if level is not None else getattr(args, "nmax", None),
    }


def _emit(args, payload: dict, pretty_lines=None):
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    elif args.format == "csv" and "csv" in payload:
        text = payload["csv"]
    else:
        text = "\n".join(pretty_lines) if pretty_lines else json.dumps(payload, sort_keys=True, indent=2)
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
    kind = _kind_of(args)
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
    return norm_sequence(
        rep,
        element,
        args.nmax,
        restarts=args.restarts,
        seed=args.seed,
        stall_eps=args.tol if args.tol else 1e-3,
    )


def _norm_rows(rep, element, args):
    seq = _norm_sequence(rep, element, args)
    rows = []
    for level, res in zip(seq.levels, seq.results):
        rows.append(
            {
                "level": level,
                "lower_bound": res.estimate,
                "converged": res.converged,
                "witness_norm": float(np.abs(res.witness).max(initial=0.0)),
            }
        )
    return rows, seq.stabilized


def cmd_norm(args) -> int:
    kind = _kind_of(args)
    element = parse_element(args.element, kind)
    rep = rep_from_descriptor(args.rep, args.d, float(args.p))
    rows, stabilized = _norm_rows(rep, element, args)
    payload = {
        "element": args.element,
        "p": args.p,
        "rep": args.rep,
        "rep_descriptor": descriptor_json(args.rep, args),
        "levels": rows,
        "stabilized": stabilized,
    }
    lines = [f"norm lower bounds for {args.element!r} under {args.rep} (p = {args.p})"]
    lines += [
        f"  level {r['level']}: {r['lower_bound']:.12g}"
        + ("" if r["converged"] else "  (not converged)")
        for r in rows
    ]
    lines.append(f"stabilized: {stabilized}")
    if args.rep2:
        rep2 = rep_from_descriptor(args.rep2, args.d, float(args.p))
        rows2, stab2 = _norm_rows(rep2, element, args)
        payload["rep2"] = args.rep2
        payload["levels2"] = rows2
        payload["stabilized2"] = stab2
        diff = abs(rows[-1]["lower_bound"] - rows2[-1]["lower_bound"])
        payload["final_difference"] = diff
        lines.append(f"{args.rep2} final: {rows2[-1]['lower_bound']:.12g}")
        lines.append(f"final difference: {diff:.3g}")
    csv_lines = ["level,lower_bound,converged,witness_norm"]
    csv_lines += [
        f"{r['level']},{r['lower_bound']!r},{r['converged']},{r['witness_norm']!r}"
        for r in rows
    ]
    payload["csv"] = "\n".join(csv_lines)
    _emit(args, payload, pretty_lines=lines)
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
    with open(args.matrix) as handle:
        data = json.load(handle)
    if args.p is not None:
        data["p"] = args.p
    matrix = matrix_from_json(data)
    result = detect(matrix, tol=args.tol if args.tol else 1e-9)
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
    report = spatiality_report(rep, depth=args.level or 2, seed=args.seed)
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
    kind = _kind_of(args)
    element = parse_element(args.element, kind)
    rows = []
    lines = [f"norm profile of {args.element!r} at p = {args.p}"]
    for descriptor in args.reps:
        rep = rep_from_descriptor(descriptor, args.d, float(args.p))
        seq = _norm_sequence(rep, element, args)
        rows.append(
            {
                "rep": descriptor,
                "levels": list(seq.levels),
                "lower_bounds": [r.estimate for r in seq.results],
                "stabilized": seq.stabilized,
            }
        )
        lines.append(
            f"  {descriptor:24s} final {seq.results[-1].estimate:.10g}"
            + (" (stabilized)" if seq.stabilized else "")
        )
    payload = {"element": args.element, "p": args.p, "profiles": rows}
    _emit(args, payload, pretty_lines=lines)
    return 0


def _add_common(parser, with_rep=False):
    parser.add_argument("-d", "--d", type=int, default=2, help="number of generators")
    parser.add_argument("-p", "--p", default="2", help="exponent, as a decimal literal")
    parser.add_argument("--kind", choices=["leavitt", "cohn", "linf"], default="leavitt")
    parser.add_argument("--level", type=int, default=None)
    parser.add_argument("--nmax", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")
    parser.add_argument("--out", default=None)
    if with_rep:
        parser.add_argument("--rep", default="sequence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpcuntz",
        description="Leavitt-algebra normal forms, spatial isometry calculus, "
        "and operator p-norms on weighted sequence spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", help="canonical normal form of an element")
    _add_common(p_nf)
    p_nf.add_argument("element")
    p_nf.set_defaults(func=cmd_nf)

    p_mul = sub.add_parser("mul", help="canonical product of two elements")
    _add_common(p_mul)
    p_mul.add_argument("left")
    p_mul.add_argument("right")
    p_mul.set_defaults(func=cmd_mul)

    p_eval = sub.add_parser("eval", help="matrix of an element at a truncation level")
    _add_common(p_eval, with_rep=True)
    p_eval.add_argument("element")
    p_eval.set_defaults(func=cmd_eval, level=2)

    p_norm = sub.add_parser("norm", help="per-level norm lower bounds")
    _add_common(p_norm, with_rep=True)
    p_norm.add_argument("--rep2", default=None)
    p_norm.add_argument("element")
    p_norm.set_defaults(func=cmd_norm)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify)
    p_verify.add_argument("suite")
    p_verify.add_argument("--atoms", type=int, default=None)
    p_verify.add_argument("--cases", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify, d=None)

    p_lamp = sub.add_parser(
        "lamperti", help="semispatial decomposition of a matrix, or rejection"
    )
    _add_common(p_lamp)
    p_lamp.add_argument("matrix", help="path to a matrix JSON file")
    p_lamp.set_defaults(func=cmd_lamperti, p=None)

    p_rs = sub.add_parser("report-spatiality", help="representation-class report")
    _add_common(p_rs, with_rep=True)
    p_rs.set_defaults(func=cmd_report_spatiality)

    p_cmp = sub.add_parser("compare-reps", help="norm profiles across representations")
    _add_common(p_cmp)
    p_cmp.add_argument("--rep", dest="reps", action="append", required=True)
    p_cmp.add_argument("element")
    p_cmp.set_defaults(func=cmd_compare_reps)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
