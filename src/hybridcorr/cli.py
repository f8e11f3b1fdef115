"""Command-line surface.

Commands: classify, correspond, translate, verify, axioms-check, corpus.
Exit codes: 0 ok, 1 error, 2 engine failure, 3 input not skeletal.
All commands are thin wrappers: argument handling and report formatting
only, the logic lives in the library modules.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii

from . import alba, corpus
from .axioms import check_schemas
from .classify import (
    OrderType,
    Sign,
    annotate_critical,
    find_order_type,
    inequality_critical_branches,
    inequality_props,
    is_definite,
    is_skeletal_sahlqvist,
    parse_order_type,
    render_tree,
    signed_tree,
)
from .semantics import (
    DEFAULT_LIMITS,
    MAX_WORLDS,
    EnumerationCapError,
    EnumerationLimits,
)
from .syntax import Inequality, ParseError, parse_input, parse_quasi
from .translate import tr_quasi, tr_quasiset, verify_correspondence

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILURE = 2
EXIT_NOT_SKELETAL = 3


def _json(value) -> str:
    """json.dumps(value, indent=2), written directly: the standard library
    indents only in pure Python, through a chain of generators.  Takes
    dicts with str keys, lists, tuples, str, int, bool and None; any other
    type raises TypeError."""
    out: list[str] = []
    _write_json(value, "\n", out.append)
    return "".join(out)


def _write_json(value, newline: str, put) -> None:
    # A str inside a container, the commonest value, is written in the
    # container's loop.
    if isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if type(item) is str:
                put(f"{sep}{encode_basestring_ascii(key)}: {encode_basestring_ascii(item)}")
            else:
                put(f"{sep}{encode_basestring_ascii(key)}: ")
                _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                put(sep + encode_basestring_ascii(item))
            else:
                put(sep)
                _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _eps_argument(args, ineq: Inequality) -> OrderType | None:
    if getattr(args, "eps", None) is None:
        return None
    return parse_order_type(args.eps, inequality_props(ineq))


def cmd_classify(args) -> int:
    ineq = parse_input(args.formula)
    eps = _eps_argument(args, ineq)
    if eps is None:
        eps = find_order_type(ineq)
        skeletal = eps is not None
    else:
        skeletal = is_skeletal_sahlqvist(ineq, eps)
    report = {
        "input": str(ineq),
        "skeletal": skeletal,
        "order_type": eps.to_json() if (eps is not None and skeletal) else None,
        "critical_branches": [],
        "definite": False,
    }
    if skeletal and eps is not None:
        branches = inequality_critical_branches(ineq, eps)
        report["critical_branches"] = [b.node_texts() for b in branches]
        report["definite"] = is_definite(ineq, eps)
    if args.json:
        print(_json(report))
    else:
        print(f"input:      {report['input']}")
        print(f"skeletal:   {report['skeletal']}")
        print(f"order type: {report['order_type']}")
        print(f"definite:   {report['definite']}")
        for b in report["critical_branches"]:
            print(f"critical:   {' -> '.join(b)}")
        if eps is not None and skeletal:
            plus = annotate_critical(signed_tree(ineq.lhs, Sign.PLUS), eps)
            minus = annotate_critical(signed_tree(ineq.rhs, Sign.MINUS), eps)
            print("left tree:")
            print(render_tree(plus, "  "))
            print("right tree:")
            print(render_tree(minus, "  "))
    return EXIT_OK if skeletal else EXIT_NOT_SKELETAL


def cmd_correspond(args) -> int:
    ineq = parse_input(args.formula)
    eps = _eps_argument(args, ineq)
    if args.require_skeletal:
        check = eps if eps is not None else find_order_type(ineq)
        if check is None or not is_skeletal_sahlqvist(ineq, check):
            reason = "input is not skeletal Sahlqvist"
            if args.json:
                report = {"status": "failure", "order_type": None, "reason": reason}
                print(_json(report))
            print(reason, file=sys.stderr)
            return EXIT_NOT_SKELETAL
    result = alba.run(ineq, eps_hint=eps, simplify=args.simplify)
    if args.json:
        print(_json(result.to_json(include_trace=args.trace)))
    else:
        if result.ok:
            print(f"order type: {result.eps.to_json() if result.eps else None}")
            for q in result.quasis:
                print(f"pure:       {q}")
            print(f"translated: {tr_quasiset(list(result.quasis))}")
        else:
            print(f"failure: {result.reason}")
            for i in result.stuck_system.inequalities if result.stuck_system else []:
                print(f"  stuck: {i}")
        if args.trace:
            for t in result.traces:
                print(f"trace [{t.origin}]")
                for s in t.steps:
                    consumed = " ; ".join(str(i) for i in s.consumed)
                    produced = " ; ".join(str(i) for i in s.produced)
                    print(f"  {s.rule}: {consumed}  ==>  {produced}   [{s.justification}]")
    return EXIT_OK if result.ok else EXIT_FAILURE


def cmd_translate(args) -> int:
    quasi = parse_quasi(args.quasi)
    formula = tr_quasi(quasi)
    if args.json:
        from .syntax import formula_to_json

        print(_json({"text": str(formula), "ast": formula_to_json(formula)}))
    else:
        print(str(formula))
    return EXIT_OK


def cmd_verify(args) -> int:
    ineq = parse_input(args.formula)
    limits = EnumerationLimits(args.max_worlds)
    result = alba.run(ineq)
    if not result.ok:
        if args.json:
            print(_json(result.to_json()))
        print(f"failure: {result.reason}", file=sys.stderr)
        return EXIT_FAILURE
    agreement = verify_correspondence(ineq, result.quasis, limits)
    tr_ok = all(r.ok for r in agreement.translations)
    report = {
        "input": str(ineq),
        "frames": agreement.frames,
        "agreements": agreement.agreements,
        "counterexamples": agreement.counterexamples,
        "valid_frames": agreement.valid_in.bit_count(),
        "translation_equivalence_ok": tr_ok,
    }
    if args.json:
        print(_json(report))
    else:
        print(f"input:          {report['input']}")
        print(f"frames checked: {agreement.frames}")
        print(f"agreements:     {agreement.agreements}/{agreement.frames}")
        print(f"valid frames:   {report['valid_frames']}")
        print(f"translation ok: {tr_ok}")
        for c in agreement.counterexamples:
            print(f"disagreement:   {c}")
    return EXIT_OK if (agreement.ok and tr_ok) else EXIT_ERROR


def cmd_axioms_check(args) -> int:
    checks = check_schemas(EnumerationLimits(args.max_worlds))
    failures = [c for c in checks if not c.ok]
    if args.json:
        print(
            _json(
                [
                    {"schema": c.name, "instances": c.instances, "failures": c.failures}
                    for c in checks
                ]
            )
        )
    else:
        for c in checks:
            status = "ok  " if c.ok else "FAIL"
            print(f"{status} {c.name} ({c.instances} instances)")
            for f in c.failures:
                print(f"     {f}")
    return EXIT_OK if not failures else EXIT_ERROR


def cmd_corpus(args) -> int:
    if args.action == "run":
        ok, lines = corpus.run_corpus()
    else:
        ok, lines = corpus.bless_corpus()
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args returns a
    fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="hybridcorr",
        description="Skeletal Sahlqvist classification and pure hybrid correspondents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formula: bool = True) -> None:
        if formula:
            p.add_argument("formula", help="formula text, or an inequality 'phi <= psi'")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def max_worlds(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-worlds",
            type=int,
            default=DEFAULT_LIMITS.max_worlds,
            metavar="N",
            help=f"check every frame with 1..N worlds, N from 1 to {MAX_WORLDS}"
            " (default %(default)s)",
        )

    p = sub.add_parser("classify", help="decide skeletal-Sahlqvist-hood")
    common(p)
    p.add_argument("--eps", help="order type, e.g. p=1,q=d or positional 1,d")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("correspond", help="compute the pure correspondent")
    common(p)
    p.add_argument("--eps", help="order type override")
    p.add_argument("--trace", action="store_true", help="emit the step log")
    p.add_argument("--simplify", action="store_true", help="fold top/bottom in outputs")
    p.add_argument(
        "--require-skeletal",
        action="store_true",
        help="exit 3 instead of attempting non-skeletal inputs",
    )
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("translate", help="translate a quasi-inequality to a formula")
    p.add_argument("quasi", help="text like \"'i <= <>'j => 'i <= ~'j\"")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("verify", help="brute-force frame equivalence of input and output")
    common(p)
    max_worlds(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("axioms-check", help="validate the axiom/derived-theorem schemas")
    p.add_argument("--json", action="store_true")
    max_worlds(p)
    p.set_defaults(func=cmd_axioms_check)

    p = sub.add_parser("corpus", help="golden-file regression over the shipped corpus")
    p.add_argument("action", choices=["run", "bless"])
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, alba.EngineInvariantError, EnumerationCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
