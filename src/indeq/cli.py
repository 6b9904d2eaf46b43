"""Command-line interface: polynomials, factorizations, classes, screens, checks.

Subcommands:

  poly       independence polynomial of a family spec or graph6 string
  factor     basis factorization of paths, cycles, or arbitrary specs
  class      equivalence class members of even paths / cycles
  roots      root location report for a spec (count below -1/4, etc.)
  screen     admissibility sweep of one family up to a parameter bound
  enumerate  stream non-isomorphic graphs as graph6 lines
  verify     named check batteries with PASS/FAIL lines per claim

Family specs use a small grammar: ``P:10``, ``C:6``, ``Y:3,2,1``,
``K4e``, and ``+`` for disjoint unions (``P:2+K4e``).  All output is
deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import cache
from typing import Iterable, Optional

from . import checks, classify, factorbasis, indpoly, oracle, polyalg
from .classify import QUARTER
from .graphcore import (
    FAMILIES,
    FamilySpec,
    Graph,
    Graph6Error,
    build,
    canonical_form,
    echo,
    echo_number,
    graph6_read,
    graph6_write,
)


class SpecSyntaxError(ValueError):
    """Spec text rejected; message carries the character position."""


def parse_spec_text(text: str) -> tuple[FamilySpec, ...]:
    """Parse the family-spec micro-grammar, unions joined with '+'; each
    parameter is a run of ASCII digits, blanks around it allowed."""
    specs = []
    offset = 0
    for chunk in text.split("+"):
        part = chunk.strip()
        pos = offset + chunk.index(part) if part else offset
        if not part:
            raise SpecSyntaxError(f"empty spec component at position {pos}")
        head, _, tail = part.partition(":")
        family = head.strip()
        if family not in FAMILIES:
            raise SpecSyntaxError(f"unknown family {echo(family)} at position {pos}")
        params: tuple[int, ...] = ()
        if tail or FAMILIES[family].floors:
            if not tail:
                raise SpecSyntaxError(
                    f"{family} needs {len(FAMILIES[family].floors)} parameter(s) at position {pos}"
                )
            items = [item.strip() for item in tail.split(",")]
            if not all(item.isascii() and item.isdigit() for item in items):
                raise SpecSyntaxError(f"non-integer parameter in {echo(part)} at position {pos}")
            try:
                params = tuple(map(int, items))
            except ValueError:  # past Python's int-to-str digit limit
                raise SpecSyntaxError(f"parameter too long in {echo(part)} at position {pos}")
        try:
            specs.append(FamilySpec(family, params))
        except ValueError as exc:
            raise SpecSyntaxError(f"{exc} at position {pos}")
        offset += len(chunk) + 1
    return tuple(specs)


def _graph_from_text(text: str) -> tuple[Graph, str]:
    """Interpret input as a family spec first, then as graph6."""
    try:
        specs = parse_spec_text(text)
        return build(specs), "+".join(str(s) for s in specs)
    except SpecSyntaxError as spec_err:
        try:
            return graph6_read(text), text
        except Graph6Error as g6_err:
            raise SpecSyntaxError(
                f"input is neither a family spec ({spec_err}) nor graph6 ({g6_err})"
            )


def _write_json_list(head: str, items: Iterable, tail: str) -> None:
    """Write head + json.dumps(list(items))[1:-1] + tail to stdout, byte for
    byte, holding one item at a time: each is made after the previous one's
    JSON is written and dropped once its own JSON is made.  head waits for
    the first item, so an item that raises leaves stdout empty."""
    separator = head
    for item in items:
        item = json.dumps(item)
        sys.stdout.write(separator)
        sys.stdout.write(item)
        separator = ", "
        del item
    sys.stdout.write(tail if separator == ", " else head + tail)


# -- subcommand implementations ---------------------------------------------


def _cmd_poly(args) -> int:
    if args.spec == "-":
        graphs = ((graph6_read(line), line) for line in map(str.strip, sys.stdin) if line)
    else:
        graphs = [_graph_from_text(args.spec)]
    for g, label in graphs:
        coefficients = [str(c) for c in indpoly.independence_polynomial(g).coeffs]
        del g  # answered: dropped before the next line is read
        if args.json:
            print(json.dumps({"input": label, "coefficients": coefficients}))
        else:
            print(" ".join(coefficients))
    return 0


def _cmd_factor(args) -> int:
    if args.kind == "path":
        factors = factorbasis.factor_path(args.n)
    elif args.kind == "cycle":
        factors = factorbasis.factor_cycle(args.n)
    else:
        top = args.max_index
        if top is not None:
            if top < 2:
                raise ValueError(f"max index {echo_number(top)} is below 2")
            factorbasis.check_max_index(top)
        g, _ = _graph_from_text(args.spec)
        poly = indpoly.independence_polynomial(g)
        try:
            factors = factorbasis.factor_into_basis(poly, top)
        except factorbasis.FactorizationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps([
            {"kind": f.kind, "index": f.index, "coefficients": [str(c) for c in f.poly.coeffs]}
            for f in factors
        ]))
    else:
        print(" ".join(f.name for f in factors))
    return 0


def _cmd_class(args) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", classify.EvenCycleClassNote)
        if args.kind == "path":
            cls = classify.path_class(args.n, expand_d=args.expand_d)
        else:
            cls = classify.cycle_class(args.n)
    if args.json:
        if args.graph6:
            build(cls.reference)  # every member has its vertex count: refused before any byte
        _write_json_list(f'{{"reference": {json.dumps(str(cls.reference))}, "members": [',
                         ([{"family": s.family, "params": list(s.params)} for s in member]
                          for member in cls.members), "]")
        if args.graph6:
            _write_json_list(', "graph6": [', (graph6_write(build(m)) for m in cls.members), "]")
        print("}")
        return 0
    for line, member in zip(cls.member_lines(), cls.members):
        print(line + "\t" + graph6_write(build(member)) if args.graph6 else line)
    return 0


def _cmd_roots(args) -> int:
    g, label = _graph_from_text(args.spec)
    poly = indpoly.independence_polynomial(g)
    chain = polyalg.SturmChain.of(poly)
    # the counts are of distinct roots, so they need a squarefree chain
    counted = chain if chain.squarefree else polyalg.SturmChain.of(polyalg.squarefree_part(chain))
    at_quarter = counted.poly.sign_at(QUARTER) == 0
    below = polyalg.count_real_roots(counted, None, QUARTER) - int(at_quarter)
    payload = {
        "input": label,
        "degree": poly.degree,
        "squarefree": chain.squarefree,
        "distinct_real_roots": polyalg.count_real_roots(counted, None, None),
        "real_roots_below_-1/4": below,
        "root_at_-1/4": at_quarter,
        # counted is chain when squarefree, so this is chain.all_roots_real_below(QUARTER)
        "all_roots_real_below_-1/4": chain.squarefree and not at_quarter and below == poly.degree,
        "approx_real_roots": polyalg.real_roots_approx(counted),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            if key == "approx_real_roots":
                value = " ".join(f"{r:.12g}" for r in value)
            print(f"{key}: {value}")
    return 0


def _cmd_screen(args) -> int:
    rows = classify.sweep_family(args.family, args.max)
    if args.json:
        _write_json_list("[", ({"spec": str(s), "admissible": v.admissible, "reason": v.reason}
                               for s, v in rows), "]\n")
        return 0
    admitted = total = 0
    for s, verdict in rows:
        tag = "admissible" if verdict.admissible else "eliminated"
        admitted += verdict.admissible
        total += 1
        print(f"{s}\t{tag}\t{verdict.reason}")
    print(f"# {admitted} admissible of {total}", file=sys.stderr)
    return 0


def _cmd_enumerate(args) -> int:
    filt = oracle.EnumFilter(
        vertex_count=args.vertices,
        edge_count=args.edges,
        max_degree=args.max_degree,
        connected_only=args.connected,
    )
    for g in oracle.enumerate_graphs(filt):
        print(canonical_form(g).decode())
    return 0


def _cmd_verify(args) -> int:
    suite = checks.CHECKS if args.suite == "all" else checks.SUITES[args.suite]
    failures = 0
    for name, check in suite.items():
        ok, detail = check(checks.BOUNDS[args.bound])
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 1 if failures else 0


# -- argument parsing -------------------------------------------------------------

def _integer(text: str) -> int:
    """int(text), for every integer option: a refused text is repeated as
    argparse repeats it, cut by echo."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}") from None


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="indeq",
        description="independence polynomials, basis factorizations, and "
                    "equivalence classes of paths and cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="independence polynomial coefficients")
    p.add_argument("spec",
                   help="family spec (P:10, C:6+P:2, K4e), graph6 text, or '-' "
                        "to read graph6 lines from stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("factor", help="basis factorization")
    fsub = p.add_subparsers(dest="kind", required=True)
    fp = fsub.add_parser("path")
    fp.add_argument("n", type=_integer)
    fc = fsub.add_parser("cycle")
    fc.add_argument("n", type=_integer)
    fs = fsub.add_parser("spec")
    fs.add_argument("spec")
    fs.add_argument("--max-index", type=_integer,
                    help="largest basis index to try (default: 2(i_1 + 2))")
    for q in (fp, fc, fs):
        q.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("class", help="independence equivalence class members")
    csub = p.add_subparsers(dest="kind", required=True)
    cp = csub.add_parser("path")
    cp.add_argument("n", type=_integer)
    cc = csub.add_parser("cycle")
    cc.add_argument("n", type=_integer)
    for q in (cp, cc):
        q.add_argument("--json", action="store_true")
        q.add_argument("--graph6", action="store_true")
    cp.add_argument("--no-expand-d", dest="expand_d", action="store_false",
                    help="leave out the triangle-for-cycle (D) substitutions")
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("roots", help="root-location report")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("screen", help="admissibility sweep of one family")
    p.add_argument("family")
    p.add_argument("--max", type=_integer, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("enumerate", help="stream non-isomorphic graphs as graph6")
    p.add_argument("--vertices", type=_integer, required=True)
    p.add_argument("--edges", type=_integer, default=None)
    p.add_argument("--max-degree", type=_integer, default=None)
    p.add_argument("--connected", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a named check battery")
    p.add_argument("suite", choices=sorted(checks.SUITES) + ["all"])
    p.add_argument("--bound", choices=tuple(checks.BOUNDS), default="small")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:  # SpecSyntaxError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (`| head`); point stdout at devnull so
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
