"""The three benchmark workloads: seeded op lists, how each op runs, and checks.

Every workload is a closed loop: one caller runs its op list serially and
each op starts only after the previous one returns.  Each op mix is taken
from the checks of `indeq verify` and from the large-index queries a CLI
user makes.  The seed picks class members, samples specs and moves costly
sizes only within narrow windows, so two seeds give different inputs but
nearly the same amount of work.

Importing this module imports indeq; the worker times that import as
part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import warnings
from typing import Any, Callable, NamedTuple

from indeq import classify, cli, indpoly, oracle
from indeq.graphcore import FamilySpec, Graph, build, canonical_form

import reference as ref


class Op(NamedTuple):
    kind: str
    label: str
    arg: Any


class Workload(NamedTuple):
    make_ops: Callable[[int], list[Op]]
    run: Callable[[Op], Any]
    check: Callable[[Op, Any], bool]


def spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers in [lo, hi], one drawn from each of count equal slices."""
    width = (hi - lo + 1) / count
    return [lo + int(width * (i + rng.random())) for i in range(count)]


def parse_specs(text: str) -> tuple[FamilySpec, ...]:
    """'P:2+C:4' -> FamilySpec tuple (the benchmark's own minimal grammar)."""
    out = []
    for part in text.split("+"):
        family, _, params = part.partition(":")
        out.append(FamilySpec(family, tuple(int(p) for p in params.split(",")) if params else ()))
    return tuple(out)


# -- oracle: classes-vs-oracle traffic ----------------------------------------

# The op mix is the `classes-vs-oracle` suite of `indeq verify` at its
# `small` bounds (cli._bounds): enumeration counts for n <= 6, the path
# classes of P_4, P_6, P_8, the odd paths P_3, P_5, P_7 and the cycle
# classes of C_4, C_5, C_6, in the order verify runs them.  The suite is
# repeated to make at least 100 ops.  Its cover-search check is left out:
# it enumerates no graphs.
ENUM_MAX = 6
CLASS_PATHS, ODD_PATHS, CYCLES = (4, 6, 8), (3, 5, 7), (4, 5, 6)
SUITE_REPEATS = 7
# class members the seed may pass as the reference; a member has the
# vertex and edge counts of the class, so the enumeration is the same
ORACLE_MEMBERS = {
    ("P", 4): ("P:4", "P:1+C:3"),
    ("P", 6): ("P:6", "P:2+C:4", "P:2+D:4"),
    ("P", 8): ("P:8", "P:3+C:5", "P:3+D:5"),
    ("C", 4): ("C:4", "D:4"),
    ("C", 5): ("C:5", "D:5"),
    ("C", 6): ("C:6", "D:6", "P:2+K4e"),
}


def oracle_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    classes = [("P", n) for n in CLASS_PATHS + ODD_PATHS] + [("C", n) for n in CYCLES]
    ops = []
    for _ in range(SUITE_REPEATS):
        ops += [Op("count", f"count:{n}", n) for n in range(1, ENUM_MAX + 1)]
        for kind, n in classes:
            text = rng.choice(ORACLE_MEMBERS.get((kind, n), (f"{kind}:{n}",)))
            ops.append(Op("class", text, (kind, n, build(parse_specs(text)))))
    return ops


def oracle_run(op: Op):
    if op.kind == "count":
        return oracle.count_isomorphism_classes(op.arg)
    return oracle.equivalence_class_bruteforce(op.arg[2])


def oracle_check(op: Op, out) -> bool:
    if op.kind == "count":
        return out == oracle.unlabeled_graph_count(op.arg)
    kind, n, g = op.arg
    if kind == "P" and n % 2:
        expected = [g]  # odd paths are independence unique
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", classify.EvenCycleClassNote)
            cls = classify.path_class(n) if kind == "P" else classify.cycle_class(n)
        expected = cls.graphs()
    got = [canonical_form(m) for m in out]
    return len(set(got)) == len(got) and set(got) == {canonical_form(e) for e in expected}


# -- families: evaluator sweeps over the catalogue -----------------------------

# The op mix follows the `identities` and `eliminations` suites of
# `indeq verify` at its `large` bounds (cli._bounds): each spec below is
# one polynomial those checks evaluate, so a family weighs as much as it
# does in that traffic.  A list takes SPEC_OPS of them, one from each
# equal slice of verify's order, so every seed gets nearly the same mix;
# it runs every screen of the `screens` check and adds ladders and grids.
EQUIV, SPIDER, GRID, RECUR, ELIM, SWEEP = 100, 40, 10, 20, 20, 40
RECURRENCES = (("P", 2, "{}"), ("C", 5, "{}"), ("D", 4, "{}"), ("Y", 3, "{},1,1"), ("B", 2, "{},1,1"),
               ("A", 3, "{},2"), ("F4", 3, "{}"), ("F5", 3, "1,{}"), ("F6", 3, "1,1,{}"))
ELIM_FLOORS = {"Y": (1, 1, 1), "B": (0, 1, 1), "A": (1, 1), "F3": (0,), "F4": (0,), "F5": (0, 1),
               "F6": (0, 0, 1), "F7": (0,), "F8": (0, 0), "F9": (0, 0, 0)}
SPEC_OPS = 1000
# outside the catalogue, about a tenth of the ops, numbered column by
# column: ladders 2 x k (k <= 24; from a cold memo 2 x 30 alone takes
# seconds and would swamp the sweep) and grids 5 x k (k <= 8)
LADDERS, LADDER_MAX = 80, 24
GRIDS = 40
Y_ADMISSIBLE, B_ADMISSIBLE = {2, 5, 10}, {0, 5}


def verify_specs() -> list[str]:
    """The specs the identities and eliminations checks evaluate, with repeats."""
    out = []
    for n in range(4, EQUIV + 1):
        out += [f"C:{n}", f"D:{n}"]
    for n in range(2, EQUIV + 1):
        out += [f"P:{2 * n}", f"P:{n - 1}+C:{n + 1}"]
    for m in range(1, SPIDER + 1):
        out += [f"Y:{m},2,1", f"P:1+C:{m + 3}"]
    for a in range(1, GRID + 1):
        for c in range(1, GRID + 1):
            out += [f"A:{a},{c}", f"E:{a},{c}", f"E:{c},{a}", f"F1:{a},{c}", f"F5:{a},{c}"]
        out += [f"F2:{a}", f"F4:{a}"]
    for family, start, params in RECURRENCES:
        for m in range(start, RECUR + 1):
            out += [f"{family}:{params.format(k)}" for k in (m, m - 1, m - 2)]
    for family, floors in ELIM_FLOORS.items():
        for params in itertools.product(*(range(low, ELIM + 1) for low in floors)):
            out.append(f"{family}:{','.join(map(str, params))}")
    out += [str(entry.spec) for entry in classify.CATALOGUE if entry.spec is not None]
    return out


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid, numbered column by column."""
    edges = []
    for c in range(cols):
        for r in range(rows):
            v = c * rows + r
            if r + 1 < rows:
                edges.append((v, v + 1))
            if c + 1 < cols:
                edges.append((v, v + rows))
    return Graph.from_edges(rows * cols, edges)


def families_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    specs = verify_specs()
    ops = [Op("poly", specs[i], parse_specs(specs[i])) for i in spread(rng, 0, len(specs) - 1, SPEC_OPS)]
    ops += [Op("screen", f"Y:{m},1,1", FamilySpec("Y", (m, 1, 1))) for m in range(1, SWEEP + 1)]
    ops += [Op("screen", f"B:{m},1,1", FamilySpec("B", (m, 1, 1))) for m in range(0, SWEEP + 1)]
    for k in spread(rng, 3, LADDER_MAX, LADDERS):
        ops.append(Op("graph", f"ladder:2x{k}", grid_graph(2, k)))
    for k in spread(rng, 2, 8, GRIDS):
        ops.append(Op("graph", f"grid:5x{k}", grid_graph(5, k)))
    rng.shuffle(ops)
    return ops


def families_run(op: Op):
    if op.kind == "screen":
        return classify.screen_family(op.arg)
    g = build(op.arg) if op.kind == "poly" else op.arg
    return indpoly.independence_polynomial(g)


def families_check(op: Op, out) -> bool:
    if op.kind == "screen":
        m = op.arg.params[0]
        return out.admissible == (m in (Y_ADMISSIBLE if op.arg.family == "Y" else B_ADMISSIBLE))
    g = build(op.arg) if op.kind == "poly" else op.arg
    # bruteforce_counts is the library's own twin and is capped at 40 vertices
    expected = indpoly.bruteforce_counts(g) if g.n <= 40 else ref.indep_counts(g.n, g.adj)
    return tuple(out.coeffs) == tuple(expected)


# -- basis: large-degree exact algebra through the CLI -------------------------

SPORADIC = ("K4e", "E:1,1", "A:1,1", "E:2,1", "E:1,2", "A:2,1", "B:0,1,1", "E:3,1", "E:1,3",
            "A:3,1", "Y:3,2,1", "Y:9,2,1", "Y:4,2,2")
# The op mix is the `factorization` suite of `indeq verify` at its `small`
# bounds (cli._bounds), asked through the CLI once per index: factor path n
# for n < FACTOR - 1, factor cycle n for 3 <= n <= FACTOR, and roots of P_n
# and C_n for n <= ROOTS.  The large-index queries below ride along, one
# op each.
FACTOR, ROOTS = 60, 30
PRIMES = [p for p in range(3, 2100) if ref.is_prime(p)]


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([p for p in PRIMES if lo <= p <= hi])


def _class_n(rng: random.Random, lo: int, hi: int, t: int) -> int:
    """Even n in [lo, hi] with n + 2 = 2^t m for an odd m (m > 15 for lo >= 2^t 16)."""
    return (rng.randrange(lo >> t, hi >> t) | 1) * 2**t - 2


def large_index_queries(rng: random.Random) -> list[list[str]]:
    """One op for each large-index query: factor path n up to ~3000 with a
    prime and a smooth n + 2, factor cycle n up to ~1500, factor spec on
    unions, roots up to ~120 vertices and on Y:m,1,1, class path n up to
    10^6, and poly P:n, which fills the path-polynomial cache up to n.
    The seed moves each size only within a window of a few percent: the
    cost grows as the cube of the largest basis degree or faster.  The
    smooth indices are fixed multiples of 210, whose small Euler phi keeps
    the basis degrees low; a neighbouring multiple differs in phi by up to
    a third, and in cost by more than twice."""
    argvs = [["factor", "path", str(_prime_in(rng, 1000, 1030) - 2)],
             ["factor", "path", str(_prime_in(rng, 2000, 2030) - 2)],
             ["factor", "path", str(1470 - 2)],
             ["factor", "path", str(2940 - 2)],
             ["factor", "cycle", str(_prime_in(rng, 700, 720))],
             ["factor", "cycle", "1470"]]
    for i in range(3):
        argvs.append(["factor", "spec", f"P:{10 + 5 * i}+C:{7 + 3 * i}+D:{8 + 3 * i}+{rng.choice(SPORADIC)}"])
    argvs += [["roots", f"P:{120 + rng.randint(-1, 1)}"], ["roots", f"C:{90 + rng.randint(-1, 1)}"]]
    argvs += [["roots", f"Y:{m + rng.randint(-1, 1)},1,1"] for m in (16, 32)]
    argvs += [["class", "path", str(_class_n(rng, 100_000, 1_000_000, t))] for t in (1, 2, 3, 4)]
    argvs += [["poly", f"P:{n + rng.randint(-10, 10)}"] for n in (1500, 2500)]
    return argvs


def basis_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    argvs = [["factor", "path", str(n)] for n in range(FACTOR - 1)]
    argvs += [["factor", "cycle", str(n)] for n in range(3, FACTOR + 1)]
    argvs += [["roots", f"P:{n}"] for n in range(1, ROOTS + 1)]
    argvs += [["roots", f"C:{n}"] for n in range(3, ROOTS + 1)]
    # the large queries come last, as a user runs them after the sweep;
    # the order matters because ops share lru-cached basis factors
    argvs += large_index_queries(rng)
    return [Op("cli", " ".join(a), a + ["--json"]) for a in argvs]


def basis_run(op: Op) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.arg)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return buf.getvalue()


def basis_check(op: Op, out: str) -> bool:
    data = json.loads(out)
    command, kind = op.arg[:2]
    points = (1, 2, 3)
    if command == "poly":
        n = int(kind.partition(":")[2])
        return [ref.eval_mod(data["coefficients"], x) for x in points] == [ref.path_value(n, x) for x in points]
    target = op.arg[2]
    if command == "factor":
        if kind == "path":
            want = [ref.path_value(int(target), x) for x in points]
        elif kind == "cycle":
            want = [ref.cycle_value(int(target), x) for x in points]
        else:
            g = build(parse_specs(target))
            want = [ref.eval_mod(ref.indep_counts(g.n, g.adj), x) for x in points]
        got = [1] * len(points)
        for factor in data:
            for i, x in enumerate(points):
                got[i] = got[i] * ref.eval_mod(factor["coefficients"], x) % ref.MOD
        return got == want
    if command == "roots":
        roots = data["approx_real_roots"]
        family, _, size = kind.partition(":")
        if family in "PC":
            n = int(size)
            expected = ref.path_roots(n) if family == "P" else ref.cycle_roots(n)
            return len(roots) == data["degree"] == len(expected) and all(
                abs(a - b) <= 1e-9 * max(1, abs(b)) for a, b in zip(sorted(roots), expected))
        # Y:m,1,1 has no cosine closed form: every reported root must be a
        # sign change of the exact polynomial, and non-real roots pair up
        g = build(parse_specs(kind))
        coeffs = ref.indep_counts(g.n, g.adj)
        return (len(coeffs) - 1 == data["degree"] and roots == sorted(set(roots))
                and (data["degree"] - len(roots)) % 2 == 0
                and all(ref.brackets_sign_change(coeffs, r) for r in roots))
    # class path n: n + 2 = 2^t m with m odd and > 15, so the class is P_n plus,
    # for each of t split points, a shorter path and a chain of cycles, each
    # cycle free to become its triangle-tailed twin: 2^(t+1) - 1 members
    n = int(target)
    t = ((n + 2) & -(n + 2)).bit_length() - 1
    members = {tuple((s["family"], tuple(s["params"])) for s in m) for m in data["members"]}
    if len(members) != len(data["members"]) or len(members) != 2 ** (t + 1) - 1:
        return False
    value = {"P": ref.path_value, "C": ref.cycle_value, "D": ref.d_value}
    for member in members:
        if sum(params[0] for _, params in member) != n:
            return False
        for x in points:
            got = 1
            for family, params in member:
                got = got * value[family](params[0], x) % ref.MOD
            if got != ref.path_value(n, x):
                return False
    return True


WORKLOADS = {
    "oracle": Workload(oracle_ops, oracle_run, oracle_check),
    "families": Workload(families_ops, families_run, families_check),
    "basis": Workload(basis_ops, basis_run, basis_check),
}
