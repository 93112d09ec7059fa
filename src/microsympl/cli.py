"""Command-line front end.

Verbs: compose, lift, tensor, check, germ, operad, selfcheck.  Inputs are
file paths or inline records (anything containing a newline or starting with
a record header is treated as inline text).  Output is deterministic for
fixed inputs and seed.  Exit codes: 0 success, 1 validation failure, 2 usage
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import acceptance, micro, operad, textio
from .errors import (ConvergenceError, FiltrationError, InternalInvariantError,
                     NormalFormError, ParseError, ShapeError,
                     UnsupportedCoreError, ValidityError)
from .micro import MicroObject

_VALIDATION_ERRORS = (ParseError, NormalFormError, ShapeError, FiltrationError,
                      UnsupportedCoreError, ValidityError, OSError)
_INTERNAL_ERRORS = (ConvergenceError, InternalInvariantError)

# upper bounds of the operad flags; they do not bound the work, which also
# grows steeply with --order
MAX_OPERAD_DIM = 8
MAX_OPERAD_ARITY = 8
MAX_OPERAD_SAMPLES = 10_000
MAX_OPERAD_LEVELS = 2


def _int_flag(minimum: int, maximum: int | None = None, name: str = ""):
    def convert(text: str) -> int:
        try:
            value = textio._int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"{name} {value} exceeds the limit of {maximum}")
        return value
    return convert


_order = _int_flag(1, textio.MAX_ORDER, "order")


def _read_input(arg: str) -> str:
    if "\n" in arg or arg.lstrip().startswith(("source=", "domain=")):
        return arg
    try:
        return Path(arg).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{arg} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microsympl",
        description="Exact calculus for symplectic micromorphisms in "
                    "generating-function form.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compose", help="compose OUTER INNER (INNER is applied first)")
    p.add_argument("outer", help="morphism record (file or inline)")
    p.add_argument("inner", help="morphism record (file or inline)")
    p.add_argument("--out", help="write the result to this path")

    p = sub.add_parser("lift", help="cotangent lift of a polynomial core map")
    p.add_argument("map", help="core map record (file or inline)")
    p.add_argument("--order", type=_order, default=3,
                   help="fiber truncation order K (default 3)")
    p.add_argument("--out", help="write the result to this path")

    p = sub.add_parser("tensor", help="tensor product of two morphisms")
    p.add_argument("first", help="morphism record (file or inline)")
    p.add_argument("second", help="morphism record (file or inline)")
    p.add_argument("--out", help="write the result to this path")

    p = sub.add_parser("check", help="validate a morphism record")
    p.add_argument("morphism", help="morphism record (file or inline)")
    p.add_argument("--splitting",
                   help="symmetric matrix (rows ';', entries ','); check "
                        "transversality of the tangent relation against it")
    p.add_argument("--at", help="with --splitting, the target core point: comma-separated "
                                "rationals (default: the origin); use --at=-1/2 for "
                                "values starting with a minus sign")
    p.add_argument("--out", help="write the report to this path")
    # --at without --splitting is reported by this subparser, with its usage line
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("germ", help="extract the forward jet maps of a morphism "
                                    "with affine-invertible core")
    p.add_argument("morphism", help="morphism record (file or inline)")
    p.add_argument("--roundtrip", action="store_true",
                   help="verify that the graph of the germ recovers the input")
    p.add_argument("--out", help="write the result to this path")

    p = sub.add_parser("operad", help="verify the lagrangian operad axioms")
    p.add_argument("--dim", type=_int_flag(0, MAX_OPERAD_DIM, "dim"), default=1,
                   help=f"core dimension (at most {MAX_OPERAD_DIM})")
    p.add_argument("--order", type=_order, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_int_flag(1, MAX_OPERAD_SAMPLES, "samples"),
                   default=50, help=f"at most {MAX_OPERAD_SAMPLES}")
    p.add_argument("--arity", type=_int_flag(0, MAX_OPERAD_ARITY, "arity"), default=3,
                   help="largest diagonal arity enumerated exactly "
                        f"(at most {MAX_OPERAD_ARITY})")
    p.add_argument("--levels", type=_int_flag(1, MAX_OPERAD_LEVELS, "levels"), default=2,
                   help="composition depth (2 adds two-level associativity; "
                        f"at most {MAX_OPERAD_LEVELS})")
    p.add_argument("--out", help="write the report to this path")

    p = sub.add_parser("selfcheck", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", help="write the report to this path")
    return parser


def _run(args: argparse.Namespace) -> int:
    if args.verb == "compose":
        outer = textio.parse_morphism(_read_input(args.outer))
        inner = textio.parse_morphism(_read_input(args.inner))
        result = micro.compose(outer, inner)
        _emit(textio.format_morphism(result), args.out)
        return 0
    if args.verb == "lift":
        core_map = textio.parse_core_map(_read_input(args.map))
        result = micro.cotangent_lift(core_map, args.order)
        _emit(textio.format_morphism(result), args.out)
        return 0
    if args.verb == "tensor":
        first = textio.parse_morphism(_read_input(args.first))
        second = textio.parse_morphism(_read_input(args.second))
        result = micro.tensor(first, second)
        _emit(textio.format_morphism(result), args.out)
        return 0
    if args.verb == "check":
        morphism = textio.parse_morphism(_read_input(args.morphism))
        verdict = micro.is_micromorphism(morphism.gen, morphism.source,
                                         morphism.target)
        lines = [f"morphism {morphism.source.core_dim} -> "
                 f"{morphism.target.core_dim} order={morphism.order}",
                 f"normal form and linear cross-check: {verdict.describe()}"]
        status = 0 if verdict else 1
        if args.splitting is not None:
            n = morphism.target.core_dim
            from .linsympl import Splitting, transverse_to_splitting
            rows = textio.parse_matrix(args.splitting)
            point = textio.parse_vector(args.at) if args.at is not None else (0,) * n
            relation = micro.tangent_relation_at(morphism, point)
            transverse = transverse_to_splitting(relation, Splitting(n, rows))
            shown = ", ".join(str(v) for v in point)
            lines.append(f"transverse to the splitting at ({shown}): "
                         f"{str(transverse).lower()}")
            if not transverse:
                status = 1
        _emit("\n".join(lines) + "\n", args.out)
        return status
    if args.verb == "germ":
        morphism = textio.parse_morphism(_read_input(args.morphism))
        germ = micro.extract_germ(morphism)
        text = textio.format_germ(germ)
        if args.roundtrip:
            exact = micro.graph_of_germ(germ) == morphism
            text += f"roundtrip: {'exact' if exact else 'MISMATCH'}\n"
            if not exact:
                _emit(text, args.out)
                return 3
        _emit(text, args.out)
        return 0
    if args.verb == "operad":
        report = operad.check_operad_axioms(
            MicroObject(args.dim), args.seed, max_arity=args.arity,
            levels=args.levels, samples=args.samples, order=args.order)
        _emit(report.format(), args.out)
        return 0 if report.passed else 1
    if args.verb == "selfcheck":
        text, passed = acceptance.build_report(args.seed)
        _emit(text, args.out)
        return 0 if passed else 1
    raise InternalInvariantError(f"unhandled verb {args.verb!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "check" and args.at is not None and args.splitting is None:
            args.usage_error("--at needs --splitting")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except _INTERNAL_ERRORS as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
