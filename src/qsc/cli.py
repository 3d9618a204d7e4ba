"""Command-line front end: basis expansions, step-by-step insertion and
rapture demos, tableau enumeration, derivation trees, and the exhaustive
verification and conjecture suites.

All output is deterministic; identical invocations print identical bytes.
A run builds only the parsers on its own command path: the top-level one,
then the chosen command's (and, under demo and enumerate, the chosen
kind's) as argparse dispatches to it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .compositions import _parse_int, from_string
from .dirt import enumerate_dirts
from .insertion import insert, insert_word, rapture
from .qsym import (
    DUAL_IMMACULATE,
    FUNDAMENTAL,
    IMMACULATE,
    MONOMIAL,
    YOUNG_NCSCHUR,
    YOUNG_QS,
    BasisExpansion,
    NotUnitriangularError,
    check_conjectures,
    dimm_f_expansion,
    dimm_to_yqs,
    dual_immaculate_mexpr,
    f_to_m,
    yns_to_imm,
    young_qs_mexpr,
    yqs_f_expansion,
    yqs_to_dimm,
)
from .rw import rw_dual, rw_forward, tree_to_dot, tree_to_json
from .tableaux import (
    INF,
    from_json_obj,
    parse_rows,
    render,
    semistandard_tableaux,
    standard_tableaux,
)
from .verify import DEFAULT_MAX_N, SUITES, run_suite

DEGREE_GUARD = 9

TABLEAU_HELP = (
    "tableau as JSON ('{\"shape\": [1,3,2], \"rows\": [[2],[3,4,7],[6,8]]}'"
    " or just the row lists) or as compact text '2/3,4,7/6,8'"
    " (rows separated by '/', bottom row first)"
)


def _check_degree(name: str, n: int, force: bool) -> None:
    """Refuse a degree below 1, or above DEGREE_GUARD unless forced."""
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")
    if n > DEGREE_GUARD and not force:
        raise ValueError(f"{name} {n} exceeds the guard ({DEGREE_GUARD});"
                         " pass --force to run anyway")


def _spell_inf(value):
    """value with each INF, the past-the-row sentinel of the demo traces,
    written "inf"; traces nest a few levels deep, so plain recursion does."""
    if isinstance(value, dict):
        return {key: _spell_inf(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_inf(v) for v in value]
    return "inf" if value is INF else value


def _emit(obj) -> None:
    # json is imported here and in _read_tableau only, so the text commands
    # start without it.  allow_nan=False: a stray INF is an error, not a
    # silent Infinity.
    import json

    print(json.dumps(obj, allow_nan=False))


def integer(text: str) -> int:
    # argparse names a type by __name__: "invalid integer value: 'x'".
    return _parse_int(text)


def _read_tableau(text: str):
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        import json

        try:
            obj = json.loads(stripped)
        except RecursionError:
            raise ValueError("tableau JSON is nested too deeply") from None
        return from_json_obj(obj if isinstance(obj, dict) else {"rows": obj})
    return parse_rows(stripped)


def _print_expansion(expansion: BasisExpansion, fmt: str) -> None:
    obj = expansion.to_json_obj()
    if fmt == "json":
        _emit(obj)
        return
    if not obj["coeffs"]:
        print("0")
        return
    for key, coeff in obj["coeffs"].items():
        print(f"{key}\t{coeff}")


_ROUTES = {
    (DUAL_IMMACULATE, YOUNG_QS): dimm_to_yqs,
    (DUAL_IMMACULATE, FUNDAMENTAL): dimm_f_expansion,
    (DUAL_IMMACULATE, MONOMIAL): dual_immaculate_mexpr,
    (YOUNG_QS, FUNDAMENTAL): yqs_f_expansion,
    (YOUNG_QS, MONOMIAL): young_qs_mexpr,
    (YOUNG_QS, DUAL_IMMACULATE): yqs_to_dimm,
    (YOUNG_NCSCHUR, IMMACULATE): yns_to_imm,
    (FUNDAMENTAL, MONOMIAL): f_to_m,
}


def cmd_expand(args) -> int:
    route = _ROUTES.get((args.source, args.target))
    if route is None:
        supported = ", ".join(f"{s}->{t}" for s, t in _ROUTES)
        print(
            f"error: no expansion route from {args.source} to {args.target}"
            f" (supported: {supported})",
            file=sys.stderr,
        )
        return 2
    _print_expansion(route(from_string(args.alpha)), args.format)
    return 0


def cmd_demo_insert(args) -> int:
    rows = _read_tableau(args.tableau)
    events: list[dict] = []
    result = insert(rows, args.k, events)
    _emit(_spell_inf({
        "input": rows,
        "k": args.k,
        "steps": events,
        "result": result.rows,
        "new_cell": result.new_cell,
        "path": result.path,
    }))
    return 0


def cmd_demo_rapture(args) -> int:
    rows = _read_tableau(args.tableau)
    try:
        cell = from_string(args.cell)
    except ValueError:
        cell = ()
    if len(cell) != 2:
        raise ValueError(f"cell must be 'column,row' with positive integers, got {args.cell!r}")
    events: list[dict] = []
    result = rapture(rows, cell, events)
    _emit(_spell_inf({
        "input": rows,
        "cell": cell,
        "steps": events,
        "result": result.rows,
        "output": result.output,
        "route": result.route,
    }))
    return 0


def cmd_demo_word(args) -> int:
    word = from_string(args.word)
    insertions: list[dict] = []
    p_rows, q_rows = insert_word(word, insertions)
    _emit(_spell_inf({
        "word": word,
        "insertions": insertions,
        "p": p_rows,
        "q": q_rows,
    }))
    return 0


def _print_fillings(payload: dict, items, fmt: str) -> None:
    if fmt == "json":
        _emit(payload)
        return
    print(f"count: {len(items)}")
    for rows in items:
        print()
        print(render(rows))


def cmd_enumerate_tableaux(args) -> int:
    shape = from_string(args.shape)
    if args.standard:
        items = standard_tableaux(shape, args.kind)
    else:
        items = semistandard_tableaux(shape, args.kind, args.max_entry)
    payload = {
        "shape": shape,
        "kind": args.kind,
        "count": len(items),
        "tableaux": items,
    }
    _print_fillings(payload, items, args.format)
    return 0


def cmd_enumerate_dirts(args) -> int:
    shape = from_string(args.shape)
    strips = from_string(args.strips)
    try:
        items = enumerate_dirts(shape, strips)
    except RecursionError:
        raise ValueError(f"the forward tree of {len(strips)} strips"
                         " is nested too deeply") from None
    payload = {
        "shape": shape,
        "strips": strips,
        "count": len(items),
        "dirts": items,
    }
    _print_fillings(payload, items, args.format)
    return 0


def cmd_tree(args) -> int:
    alpha = from_string(args.alpha)
    builder = rw_forward if args.direction == "forward" else rw_dual
    # Building and serializing recurse about once per part; each output
    # text is whole before it is printed.
    try:
        root, expansion = builder(alpha)
        if args.format == "dot":
            sys.stdout.write(tree_to_dot(root))
        else:
            _emit({
                "alpha": alpha,
                "direction": args.direction,
                "expansion": expansion.to_json_obj(),
                "tree": tree_to_json(root, args.direction),
            })
    except RecursionError:
        raise ValueError(f"the {args.direction} tree of {len(alpha)} parts"
                         " is nested too deeply") from None
    return 0


def cmd_verify(args) -> int:
    max_n = args.max_n if args.max_n is not None else DEFAULT_MAX_N[args.suite]
    _check_degree("max-n", max_n, args.force)
    result = run_suite(args.suite, max_n)
    status = "PASS" if result.passed else "FAIL"
    print(f"suite {result.suite}: {status}"
          f" ({result.cases} cases, max_n={result.max_n})")
    for failure in result.failures[:5]:
        print(f"  counterexample: {failure}")
    if len(result.failures) > 5:
        print(f"  ... and {len(result.failures) - 5} more")
    return 0 if result.passed else 1


def _equation(alpha_key: str, coeffs: dict[str, int]) -> str:
    lhs = f"young-qs[{alpha_key}]"
    if not coeffs:
        return f"{lhs} = 0"
    parts: list[str] = []
    for key, c in coeffs.items():
        term = f"dual-immaculate[{key}]"
        if abs(c) != 1:
            term = f"{abs(c)}*{term}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return f"{lhs} = " + " ".join(parts)


def cmd_conjectures(args) -> int:
    _check_degree("n", args.n, args.force)
    report = check_conjectures(args.n)
    if args.format == "json":
        _emit(report)
        return 0
    print(f"conjecture report at degree {report['degree']}")
    checked = ", ".join(f"({lam})" for lam in report["alternating"]["checked"]) or "none"
    for key, title in (
            ("bounded", "coefficients in {-1, 0, 1}"),
            ("sum_rule", "coefficient sums (1 at reversed hooks, else 0)"),
            ("alternating", "signed-permutation formula at distinct-part partitions")):
        part = report[key]
        if part["holds"]:
            suffix = f" (checked: {checked})" if key == "alternating" else ""
            print(f"{title}: no violations{suffix}")
        else:
            print(f"{title}: {len(part['violations'])} violations")
        for item in part["violations"]:
            print("  " + " ".join(f"{k}={v}" for k, v in item.items()))
    print("expansions in the dual immaculate basis:")
    for alpha_key, coeffs in report["expansions"].items():
        print(f"  {_equation(alpha_key, coeffs)}")
    return 0


class _Commands(argparse._SubParsersAction):
    """Subcommands whose parsers are built only when one is chosen.

    add_parser records a command's name and help, all that usage, help and
    the invalid-choice error read, with the fill function that adds its
    arguments; the chosen command's parser is built and filled when argparse
    dispatches to it.  So a run builds the parsers on its own command path
    and no others.  Like argparse's own add_parser, it keeps its state in
    the action's private fields; tests/test_cli_text.py pins the text.
    """

    def add_parser(self, name, *, help, fill):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = fill

    def __call__(self, parser, namespace, values, option_string=None):
        # argparse has already refused a name that is not a choice.
        name = values[0]
        fill = self._name_parser_map[name]
        if not isinstance(fill, argparse.ArgumentParser):
            chosen = self._parser_class(prog=f"{self._prog_prefix} {name}")
            fill(chosen)
            self._name_parser_map[name] = chosen
        super().__call__(parser, namespace, values, option_string)


def _expand_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="source", required=True,
                   choices=[DUAL_IMMACULATE, YOUNG_QS, YOUNG_NCSCHUR, FUNDAMENTAL])
    p.add_argument("--alpha", required=True, help="composition as 'a,b,c'")
    p.add_argument("--to", dest="target", required=True,
                   choices=[YOUNG_QS, DUAL_IMMACULATE, FUNDAMENTAL, MONOMIAL,
                            IMMACULATE])
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_expand)


def _demo_args(p: argparse.ArgumentParser) -> None:
    sub = p.add_subparsers(dest="demo_kind", required=True, action=_Commands)
    sub.add_parser("insert", help="trace one insertion", fill=_demo_insert_args)
    sub.add_parser("rapture", help="trace one rapture", fill=_demo_rapture_args)
    sub.add_parser("word", help="insert a duplicate-free word", fill=_demo_word_args)


def _demo_insert_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tableau", required=True, help=TABLEAU_HELP)
    p.add_argument("--k", type=integer, required=True, help="value to insert")
    p.set_defaults(func=cmd_demo_insert)


def _demo_rapture_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tableau", required=True, help=TABLEAU_HELP)
    p.add_argument("--cell", required=True, help="cell as 'column,row'")
    p.set_defaults(func=cmd_demo_rapture)


def _demo_word_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True, help="letters as 'a,b,c'")
    p.set_defaults(func=cmd_demo_word)


def _enumerate_args(p: argparse.ArgumentParser) -> None:
    sub = p.add_subparsers(dest="what", required=True, action=_Commands)
    sub.add_parser("tableaux", help="tableaux of a given kind",
                   fill=_enumerate_tableaux_args)
    sub.add_parser("dirts", help="recording tableaux by strip shape",
                   fill=_enumerate_dirts_args)


def _enumerate_tableaux_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", required=True, help="composition as 'a,b,c'")
    p.add_argument("--kind", required=True, choices=["ssyct", "immaculate"])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--standard", action="store_true",
                       help="standard fillings (entries 1..n once each)")
    group.add_argument("--max-entry", dest="max_entry", type=integer,
                       help="semistandard fillings with entries at most this")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_enumerate_tableaux)


def _enumerate_dirts_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", required=True, help="composition as 'a,b,c'")
    p.add_argument("--strips", required=True,
                   help="row-strip shape as 'a,b,c'")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_enumerate_dirts)


def _tree_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", required=True, help="composition as 'a,b,c'")
    p.add_argument("--direction", required=True, choices=["forward", "dual"])
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(func=cmd_tree)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--max-n", dest="max_n", type=integer, default=None,
                   help="largest degree to check (suite default otherwise)")
    p.add_argument("--force", action="store_true",
                   help="run past the size guard")
    p.set_defaults(func=cmd_verify)


def _conjectures_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=integer, required=True, help="degree to survey")
    p.add_argument("--force", action="store_true",
                   help="run past the size guard")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_conjectures)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; each command's own parser is built only when
    parsing reaches it."""
    parser = argparse.ArgumentParser(
        prog="qsc",
        description="Exact calculator for Young composition tableau"
        " insertion and the quasisymmetric function expansions it proves.",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Commands)
    sub.add_parser("expand", help="expand one basis element in another basis",
                   fill=_expand_args)
    sub.add_parser("demo", help="step-by-step traces of the procedures",
                   fill=_demo_args)
    sub.add_parser("enumerate", help="list fillings of a shape",
                   fill=_enumerate_args)
    sub.add_parser("tree", help="emit a derivation tree", fill=_tree_args)
    sub.add_parser("verify", help="run an exhaustive verification suite",
                   fill=_verify_args)
    sub.add_parser("conjectures", help="empirical report on the open conjectures",
                   fill=_conjectures_args)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError):
        # A size the standard library cannot index or allocate, such as
        # the compositions of 10**20: bad input, like a ValueError.
        print("error: input too large to compute", file=sys.stderr)
        return 2
    except NotUnitriangularError as exc:
        # A table the package built fails the check its basis changes rely
        # on: a fault in the package, not in the input.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout.  What is still buffered goes to devnull
        # at exit, and 141 is the shell's code for a writer killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
