"""Memory and time bounds: closed forms allocate little, huge specs,
sweeps, factor indices and evaluations fail fast, and a large prime path
index factors in well under a minute.

The size-guard cases run in a child process under an address-space
limit, so a missing guard fails the test instead of exhausting memory.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

from indeq.classify import MAX_CLASS_COMPONENTS, MAX_SWEEP_SPECS, path_class
from indeq.cli import main
from indeq.factorbasis import MAX_FACTOR_INDEX, basis_ftilde, factor_into_basis, real_cyclotomic
from indeq.graphcore import MAX_BUILD_VERTICES, FamilySpec, Graph, build, graph6_read, graph6_write
from indeq.indpoly import MAX_EVAL_WORK, path_polynomial
from indeq.polyalg import IntPoly

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_LIMIT = 1 << 30  # bytes of address space for the child

# sets the limit before importing indeq; the children then run the CLI on
# argv, the brute-force class search on the spec argv[1], or factor_path
LIMIT = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({CHILD_LIMIT}, {CHILD_LIMIT}))
"""
CHILD = LIMIT + """
from indeq.cli import main
sys.exit(main(sys.argv[1:]))
"""
# runs the CLI on argv and then writes its own seconds as a last stderr line
TIMED_CHILD = LIMIT + """
import time
from indeq.cli import main
start = time.perf_counter()
status = main(sys.argv[1:])
print(f"{time.perf_counter() - start:.3f}", file=sys.stderr)
sys.exit(status)
"""
CLASS_CHILD = LIMIT + """
from indeq.cli import parse_spec_text
from indeq.graphcore import build
from indeq.oracle import equivalence_class_bruteforce
try:
    equivalence_class_bruteforce(build(parse_spec_text(sys.argv[1])))
except ValueError as exc:
    sys.exit(f"error: {exc}")
"""


def _under_limit(child, *argv, timeout=120, stdin=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", child, *argv], input=stdin, capture_output=True,
                          text=True, env=env, timeout=timeout)


def _cli_under_limit(*argv):
    return _under_limit(CHILD, *argv)


@pytest.mark.parametrize("fn,n", [(path_polynomial, 3000), (real_cyclotomic, 2003),
                                  (basis_ftilde, 2003)],
                         ids=["path_polynomial", "real_cyclotomic", "basis_ftilde"])
def test_closed_forms_peak_under_5_mb(fn, n):
    tracemalloc.start()
    try:
        fn.__wrapped__(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak


LARGE_PATH_CHILD = LIMIT + """
from indeq.factorbasis import factor_path
(factor,) = factor_path(10005)
print(factor.name, factor.poly.degree)
for k in map(int, sys.argv[1:]):
    print(hex(factor.poly.coeffs[k]))
"""


def test_large_prime_path_index_factors_fast():
    # n + 2 = 10007 is prime: one factor, f~_10007, with g_k = C(10006 - k, k)
    ks = [round(i * 5003 / 49) for i in range(50)]
    done = _under_limit(LARGE_PATH_CHILD, *map(str, ks), timeout=60)
    assert done.returncode == 0, done.stderr
    head, *coeffs = done.stdout.splitlines()
    assert head == "f~10007 5003"
    assert [int(c, 16) for c in coeffs] == [math.comb(10006 - k, k) for k in ks]


@pytest.mark.parametrize("spec,count", [
    ("P:200000", 200000), ("P:1000000000", 1000000000), ("P:6000+C:5000", 11000),
    (f"Y:{MAX_BUILD_VERTICES},1,1", MAX_BUILD_VERTICES + 3),
])
def test_huge_spec_is_refused_before_building(spec, count):
    done = _cli_under_limit("poly", spec)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == (
        f"error: {spec} has {count} vertices, above the cap of {MAX_BUILD_VERTICES}\n")


NINES = "9" * 4300
HUGE_SPEC = f"{f'P:{NINES}'[:40]!r}... has over 10^40 vertices, above the cap of {MAX_BUILD_VERTICES}"


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "--vertices", NINES], "unfiltered enumeration is capped at 10 vertices"),
    (["poly", f"P:{NINES}+P:{NINES}"], HUGE_SPEC),
    (["poly", f"P:{NINES}"], HUGE_SPEC),
], ids=["enumerate", "poly-union", "poly"])
def test_huge_counts_are_refused_naming_the_cap(argv, message):
    # 4,300 nines parse, but C(n, 2) and the 4,301-digit vertex sum pass
    # Python's int-to-str digit limit, and the spec text is 4,302 characters
    done = _cli_under_limit(*argv)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: {message}\n"
    assert len(done.stderr.encode()) < 200


def test_graph6_above_the_vertex_cap_is_refused_before_its_data():
    # an edgeless graph on 12,000 vertices: "~" and an 18-bit size, then
    # 12 million zero data bytes
    n = MAX_BUILD_VERTICES + 2000
    line = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0)) + "?" * ((n * (n - 1) // 2 + 5) // 6)
    message = f"graph6 header states {n} vertices, above the cap of {MAX_BUILD_VERTICES} (byte offset 0)"
    done = _under_limit(CHILD, "poly", "-", stdin=line + "\n", timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: {message}\n"
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            graph6_read(line)
        seconds.append(time.perf_counter() - start)
        assert str(refused.value) == message
    assert min(seconds) < 0.5, seconds


def test_oversized_screen_sweep_is_refused():
    # 1000^3 spider parameter tuples, counted before any is made
    done = _under_limit(CHILD, "screen", "Y", "--max", "1000", timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: Y up to 1000 has 1000000000 parameter tuples, "
                           f"above the cap of {MAX_SWEEP_SPECS}\n")


def test_negative_sweep_bound_is_refused_before_any_spec(monkeypatch):
    from indeq import classify

    def no_spec(*args):
        raise AssertionError("a spec was built")

    monkeypatch.setattr(classify, "FamilySpec", no_spec)
    for family in ("P", "K4e", "Y"):
        with pytest.raises(ValueError, match="^max parameter must be non-negative, got -1$"):
            classify.sweep_family(family, -1)


@pytest.mark.parametrize("family,json_out,numerator,shift", [("F4", False, -14289, 4), ("F7", True, -1, 5)])
def test_screen_reasons_print_past_the_int_str_digit_limit(family, json_out, numerator, shift):
    # the last reason's denominator, 2^14294 or 2^14295, has more than the
    # 4,300 digits int-to-str conversion allows by default
    done = _cli_under_limit("screen", family, "--max", "14290", *["--json"] * json_out)
    assert done.returncode == 0, done.stderr[-500:]
    if json_out:
        last = json.loads("{" + done.stdout.rpartition(", {")[2].rstrip()[:-1])
        spec, reason = last["spec"], last["reason"]
    else:
        spec, _, reason = done.stdout[:-1].rpartition("\n")[2].split("\t")
    denominator = Decimal(2 ** (14290 + shift))
    assert len(str(denominator)) > 4300
    assert spec == f"{family}:14290"
    assert reason == f"I(-1/4) = {numerator}/{denominator} <= 0 forces a root in [-1/4, 1)"


class _ByteCount(io.TextIOBase):
    """A text sink that keeps only the number of bytes written to it."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return len(text)


@pytest.mark.parametrize("argv", [("F7", "--max", "3000", "--json"), ("F4", "--max", "3000")],
                         ids=["json", "text"])
def test_screen_writes_each_row_as_it_is_screened(argv):
    # a traced peak of 0.28 MB (JSON) and 0.12 MB (text) for 1.66 and
    # 1.56 MB written, against 7.73 and 2.52 MB when the sweep's rows were
    # all held before the first was written
    sink = _ByteCount()
    with contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            status = main(["screen", *argv])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < sink.bytes / 2, (peak, sink.bytes)


def test_poly_stdin_holds_one_line_at_a_time():
    # the traced peak read 0.46 and 0.21 MB for 10 and 40 lines of P_600,
    # against 1.11 and 3.10 MB when every line was parsed before the first
    # answer, and 0.87 and 1.16 MB when each call's memo waited for the
    # cyclic collector, on a 2-vCPU Intel Xeon host under Python 3.11.7
    line = graph6_write(build(FamilySpec("P", (600,)))) + "\n"
    peaks = []
    for count in (10, 40):
        sink = _ByteCount()
        with contextlib.redirect_stdout(sink):
            sys.stdin, stdin = (line for _ in range(count)), sys.stdin
            tracemalloc.start()
            try:
                status = main(["poly", "-"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                sys.stdin = stdin
        assert status == 0 and sink.bytes > 0
        peaks.append(peak)
    assert peaks[1] < 1.2 * peaks[0], peaks


def _grid_edges(rows, cols):
    """The edges of the rows x cols grid, numbered column by column."""
    return ([(v, v + 1) for v in range(rows * cols) if v % rows < rows - 1]
            + [(v, v + rows) for v in range(rows * (cols - 1))])


def _refused_past_the_work_cap(g, vertices):
    """Seconds the CLI took to refuse g on stdin under the child limit, its
    component on the given number of vertices past the work cap."""
    done = _under_limit(TIMED_CHILD, "poly", "-", timeout=60, stdin=graph6_write(g) + "\n")
    *lines, seconds = done.stderr.splitlines()
    assert done.returncode == 2 and done.stdout == ""
    assert lines == [f"error: a component on {vertices} vertices needs more than MAX_EVAL_WORK = "
                     f"{MAX_EVAL_WORK} bytes of evaluator work"]
    return float(seconds)


def test_evaluator_past_its_mask_budget_is_refused():
    # a sparse random graph on 120 vertices whose greedy order's table
    # grows past 10^5 entries: refused once the table carried through the
    # steps left would pass the cap, in 0.2 s and 58 MB in-process on a
    # 2-vCPU Intel Xeon host under Python 3.11.7
    rng = random.Random(1)
    g = Graph.from_edges(120, [e for e in itertools.combinations(range(120), 2) if rng.random() < 0.035])
    assert _refused_past_the_work_cap(g, 118) <= 1


def _rungs(paths, length, every):
    """Parallel paths, numbered path by path, with a rung between
    neighbouring paths at every every-th column."""
    edges = [(p * length + c, p * length + c + 1) for p in range(paths) for c in range(length - 1)]
    edges += [(p * length + c, (p + 1) * length + c) for p in range(paths - 1) for c in range(0, length, every)]
    return Graph.from_edges(paths * length, edges)


@pytest.mark.parametrize("label", ["grid 14 x 70", "ladder 2 x 5000", "12 paths of 80 with rungs"])
def test_evaluator_past_its_work_cap_is_refused_fast(label):
    # refused before the step that would pass the cap, so in well under a
    # second: in-process 13 / 91 / 15 ms on a 2-vCPU Intel Xeon host under
    # Python 3.11.7, where without the cap the grid took 20 s and the
    # ladder ran past a minute
    g = {"grid 14 x 70": lambda: Graph.from_edges(980, _grid_edges(14, 70)),
         "ladder 2 x 5000": lambda: Graph.from_edges(10000, _grid_edges(2, 5000)),
         "12 paths of 80 with rungs": lambda: _rungs(12, 80, 5)}[label]()
    assert _refused_past_the_work_cap(g, g.n) <= 1


def test_ladder_answers_without_a_deep_stack():
    # the 2 x 1650 ladder, which a recursion over its columns refused as
    # too deep, is answered with a recursion limit of 100 frames; its
    # coefficients add up to the ladder's count of independent sets
    child = LIMIT + """
sys.setrecursionlimit(100)
from indeq.cli import main
sys.exit(main(sys.argv[1:]))
"""
    done = _under_limit(child, "poly", "-", stdin=graph6_write(Graph.from_edges(3300, _grid_edges(2, 1650))) + "\n")
    assert done.returncode == 0, done.stderr
    # a column is empty, or holds its top or its bottom vertex
    empty, one = 1, 2
    for _ in range(1649):
        empty, one = empty + one, 2 * empty + one
    assert sum(map(int, done.stdout.split())) == empty + one


def test_the_cap_itself_builds():
    assert build(FamilySpec("P", (MAX_BUILD_VERTICES,))).n == MAX_BUILD_VERTICES


def test_index_only_queries_build_nothing():
    done = _cli_under_limit("class", "path", "1000000")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "P:1000000"


@pytest.mark.parametrize("n,bound", [(262142, 2097153), (1099511627774, 20890720927745)])
def test_class_above_the_component_cap_is_refused(n, bound):
    # n + 2 = 2^t: the D twins double the members with each cycle
    done = _under_limit(CHILD, "class", "path", str(n), timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: the class of P:{n} has up to {bound} components, "
                           f"above the cap of {MAX_CLASS_COMPONENTS}\n")


@pytest.mark.parametrize("t,bound", [(1449, 1049076), (1600, 1279200), (3300, 5443350),
                                     (6000, 17997000)])
def test_class_without_d_twins_above_the_component_cap_is_refused(t, bound):
    # n + 2 = 2^t: rows of up to t - 2 cycles, about t^2/2 components,
    # counted from the cycle chain's prefix sums without building a row
    n = 2**t - 2
    done = _under_limit(CHILD, "class", "path", str(n), "--no-expand-d", timeout=6)
    assert done.returncode == 2 and done.stdout == ""
    # the reference's 400-odd digits are cut to MAX_ECHO characters
    assert done.stderr == (f"error: the class of {f'P:{n}'[:40]!r}... has up to {bound} components, "
                           f"above the cap of {MAX_CLASS_COMPONENTS}\n")


@pytest.mark.parametrize("kind,label", [("cycle", "C"), ("path", "P")])
def test_class_graph6_json_above_the_vertex_cap_writes_nothing(kind, label):
    # every member has the reference's vertex count, so building the
    # reference refuses the class before anything is written
    done = _cli_under_limit("class", kind, "20000", "--json", "--graph6")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: {label}:20000 has 20000 vertices, "
                           f"above the cap of {MAX_BUILD_VERTICES}\n")


def test_class_refusal_is_immediate():
    # t = 6000: the rows would hold 18 million cycle slots, a traced peak of
    # 156 MB; best of three runs, so that a busy host does not fail it
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"has up to 17997000 components, above the cap"):
            path_class(2**6000 - 2, expand_d=False)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.5, seconds
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"has up to 17997000 components, above the cap"):
            path_class(2**6000 - 2, expand_d=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_class_graph6_json_streams_its_members():
    # the graph6 list is written member by member: a traced peak of 0.4 MB,
    # against 3.6 MB when every member graph and code was held before one dump
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["class", "path", "998", "--json", "--graph6"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1.5 * 2**20, peak


def test_graph6_write_encodes_chunk_by_chunk():
    # each 3-byte group is encoded as it is flushed: a traced peak of 2.2
    # times the text, against 3.8 when the whole bit string, its base64
    # and their translation were held at once
    g = build(FamilySpec("P", (1998,)))
    tracemalloc.start()
    try:
        text = graph6_write(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text), (peak, len(text))


def test_class_graph6_json_holds_one_code_at_a_time():
    # the traced peak, most of it graph6_write's working set, is 3.3-3.4
    # times one member's code (3.28-3.30 in the full suite and 3.42-3.44 run
    # alone, on a 2-vCPU Intel Xeon host under Python 3.11.7), against 4.9
    # when graph6_write held its whole text at once and 5.9-6.1 when each
    # code was held while the next member was built
    code = json.dumps(graph6_write(build(FamilySpec("P", (1998,)))))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            status = main(["class", "path", "1998", "--json", "--graph6"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < 5.5 * len(code), (peak, len(code))


def test_class_json_writes_one_member_at_a_time():
    # P_(2^200 - 2) without D twins: 199 members, 19,900 components.  The
    # traced peak read 1.0-1.2 times the 1.4 MB of JSON written, against
    # 6.8-6.9 when the whole payload was one json.dumps string, on a 2-vCPU
    # Intel Xeon host under Python 3.11.7
    sink = _ByteCount()
    with contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            status = main(["class", "path", str(2**200 - 2), "--no-expand-d", "--json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < 2 * sink.bytes, (peak, sink.bytes)


def test_class_refusal_with_d_twins_is_immediate():
    # t = 14,000 with D twins: a row's variant count is a 2^t-sized integer,
    # read off the chain's prefix or suffix products, never divided out
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"has up to over 10\^40 components, above the cap"):
            path_class(2**14000 - 2)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.5, seconds


def test_class_without_d_twins_stays_under_the_cap():
    done = _cli_under_limit("class", "path", "1099511627774", "--no-expand-d")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 39 and lines[0] == "P:1099511627774"


@pytest.mark.parametrize("argv,kind,n", [
    (["factor", "path", str(10**30)], "path", 10**30),
    (["factor", "path", str(MAX_FACTOR_INDEX + 1)], "path", MAX_FACTOR_INDEX + 1),
    (["factor", "cycle", "100003", "--json"], "cycle", 100003),
], ids=["path-10^30", "path-cap+1", "cycle-100003-json"])
def test_factor_index_above_the_cap_is_refused(argv, kind, n):
    done = _under_limit(CHILD, *argv, timeout=20)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: {kind} length {n} is above the cap of {MAX_FACTOR_INDEX}\n"


def test_class_search_above_its_cap_is_refused():
    done = _under_limit(CLASS_CHILD, "P:15")
    assert done.returncode == 1, done.stderr
    assert done.stderr == "error: the brute-force class search is capped at 14 vertices, got 15\n"


REFINE_CHILD = LIMIT + """
from fractions import Fraction
from indeq.polyalg import IntPoly, refine_root
try:
    refine_root(IntPoly((0, 1)), Fraction(0), Fraction(1), Fraction(1, 100))
except ValueError as exc:
    sys.exit(f"error: {exc}")
"""


def test_refining_from_a_root_at_lo_without_a_root_in_the_interval_is_refused():
    # x has its only root at lo = 0, so (0, 1] isolates nothing
    done = _under_limit(REFINE_CHILD, timeout=20)
    assert done.returncode == 1
    assert done.stderr == "error: (0, 1] is not an isolating interval\n"


@pytest.mark.parametrize("n", [MAX_FACTOR_INDEX + 1, 30000])
def test_factor_max_index_above_the_cap_is_refused(n):
    done = _cli_under_limit("factor", "spec", "P:2", "--max-index", str(n))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: max index {n} is above the cap of {MAX_FACTOR_INDEX}\n"


def test_factor_into_basis_refuses_a_max_index_above_the_cap():
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            factor_into_basis(IntPoly((1, 2)), MAX_FACTOR_INDEX + 1)
        seconds.append(time.perf_counter() - start)
        assert str(refused.value) == f"max index {MAX_FACTOR_INDEX + 1} is above the cap of {MAX_FACTOR_INDEX}"
    assert min(seconds) < 0.5, seconds


@pytest.mark.parametrize("n", [0, 1, -5])
def test_factor_max_index_below_2_is_refused(n):
    done = _cli_under_limit("factor", "spec", "P:4", "--max-index", str(n))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: max index {n} is below 2\n"


def test_factor_max_index_at_the_cap_builds_only_what_fits():
    # I(P_2) = 1 + 2x: f_2 is the one candidate built; the other 29,997 up to the
    # cap are described by their degrees and skipped
    done = _under_limit(CHILD, "factor", "spec", "P:2", "--max-index", str(MAX_FACTOR_INDEX), timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "f2\n"


# 4,299 digits: under the int-to-str digit limit, so each parses as an int
LONG = "9" * 4299


@pytest.mark.parametrize("argv,message", [
    (["factor", "path", LONG], f"path length over 10^40 is above the cap of {MAX_FACTOR_INDEX}"),
    (["factor", "cycle", LONG], f"cycle length over 10^40 is above the cap of {MAX_FACTOR_INDEX}"),
    (["factor", "path", "-" + LONG], "path length must be >= 0, got below -10^40"),
    (["screen", "F4", "--max", LONG],
     f"F4 up to over 10^40 has over 10^40 parameter tuples, above the cap of {MAX_SWEEP_SPECS}"),
    (["screen", "F4", "--max", "-" + LONG], "max parameter must be non-negative, got below -10^40"),
    (["factor", "spec", "P:2", "--max-index", LONG],
     f"max index over 10^40 is above the cap of {MAX_FACTOR_INDEX}"),
    (["factor", "spec", "P:2", "--max-index", "-" + LONG], "max index below -10^40 is below 2"),
    (["enumerate", "--vertices", "5", "--edges", LONG], "edge count over 10^40 impossible on 5 vertices"),
    (["class", "path", LONG], "odd paths are independence unique; no class to enumerate for P_n with n over 10^40"),
    # n + 2 = 2^1449: 437 digits, and the D twins give about 2^1449 components
    (["class", "path", str(2**1449 - 2)], f"the class of {f'P:{2**1449 - 2}'[:40]!r}... has up to over 10^40"
                                          f" components, above the cap of {MAX_CLASS_COMPONENTS}"),
], ids=["factor-path", "factor-cycle", "factor-path-negative", "screen-max", "screen-max-negative",
        "max-index", "max-index-negative", "enumerate-edges", "class-odd-path", "class-cap"])
def test_refusals_cut_numbers_past_max_echo_digits(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv,message", [
    (["factor", "cycle", str(MAX_FACTOR_INDEX + 1)],
     f"cycle length {MAX_FACTOR_INDEX + 1} is above the cap of {MAX_FACTOR_INDEX}"),
    (["screen", "F4", "--max", "100001"],
     f"F4 up to 100001 has 100002 parameter tuples, above the cap of {MAX_SWEEP_SPECS}"),
    (["screen", "P", "--max", "-1"], "max parameter must be non-negative, got -1"),
    (["screen", "K4e", "--max", "-1", "--json"], "max parameter must be non-negative, got -1"),
    (["enumerate", "--vertices", "5", "--edges", "11"], "edge count 11 impossible on 5 vertices"),
    (["class", "path", "7"], "odd paths are independence unique; no class to enumerate for P_7"),
    (["class", "path", "9" * 40],
     f"odd paths are independence unique; no class to enumerate for P_{'9' * 40}"),
    (["class", "path", "262142"],
     f"the class of P:262142 has up to 2097153 components, above the cap of {MAX_CLASS_COMPONENTS}"),
], ids=["factor-cycle", "screen-max", "screen-max-negative", "screen-max-negative-no-params",
        "enumerate-edges", "class-odd-path", "class-odd-path-40-digits", "class-cap"])
def test_refusals_repeat_numbers_of_at_most_max_echo_digits(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("text,last_line", [
    ("9" * 4301, f"invalid int value: '{'9' * 40}'..."),
    ("abc", "invalid int value: 'abc'"),
    ("1.5", "invalid int value: '1.5'"),
], ids=["4301-digits", "abc", "1.5"])
def test_integer_options_echo_a_refused_value_cut(capsys, text, last_line):
    # past 4,300 digits int() refuses the text as argparse's own int type
    # does, but the refusal repeats at most MAX_ECHO characters of it
    with pytest.raises(SystemExit) as refused:
        main(["enumerate", "--vertices", text])
    assert refused.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == f"indeq enumerate: error: argument --vertices: {last_line}"
    assert len(err.encode()) < 300


def test_every_integer_option_parses_as_int_does():
    from indeq import cli

    def actions(parser):
        for action in parser._actions:
            yield action
            for sub in (action.choices or {}).values() if isinstance(action.choices, dict) else ():
                yield from actions(sub)

    typed = {action.type for action in actions(cli._build_parser()) if action.type is not None}
    assert typed == {cli._integer}
    for text in ["0", "-5", " 12 ", "1_0", "٣", "+7"]:
        assert cli._integer(text) == int(text)


def test_echo_number_cuts_past_max_echo_digits():
    from indeq.graphcore import MAX_ECHO, echo_number

    assert echo_number(10**MAX_ECHO - 1) == "9" * MAX_ECHO
    assert echo_number(-(10**MAX_ECHO - 1)) == "-" + "9" * MAX_ECHO
    assert echo_number(10**MAX_ECHO) == f"over 10^{MAX_ECHO}"
    assert echo_number(-(10**MAX_ECHO)) == f"below -10^{MAX_ECHO}"
