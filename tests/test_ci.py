import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_tier1_from_the_python_floor():
    yaml = pytest.importorskip("yaml")
    (job,) = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())["jobs"].values()
    runs = [step.get("run") for step in job["steps"]]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())[1]
    assert tier1 in runs
    install = runs.index('python -m pip install ".[test]"')
    # the installed package and its console script, not src on PYTHONPATH
    assert runs[install + 1] == "indeq verify all"
    # importing the installed CLI loads neither dataclasses nor inspect, which cost start-up time
    assert ("""python -c "import sys; before = set(sys.modules); import indeq.cli;"""
            ''' sys.exit(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)) or 0)"'''
            in runs[install + 1:])
    # importing the classifier leaves out the factor basis, which checks its shortlist and the oracle's covers
    assert ("""python -c "import sys; import indeq.classify; sys.exit('indeq.factorbasis' in sys.modules)\""""
            in runs[install + 1:])
    # then at the full bounds, whose root and sweep checks build larger Sturm chains, byte for byte as recorded
    assert runs.index('test "$(indeq verify all --bound full | sha256sum | cut -c1-16)" = f383c6dffb7ca9c6') > install + 1
    # the console script refuses a 4,300-digit vertex count by naming its cap
    assert ("""code=0; indeq enumerate --vertices "$(python -c "print('9' * 4300)")" 2> err.txt || code=$?;"""
            """ test "$code" = 2 && grep -q "capped at" err.txt""") in runs[install + 1:]
    # and refuses a 4,301-digit path index in under 200 bytes of stderr
    assert ("""code=0; indeq factor path "$(python -c "print('9' * 4301)")" 2> err.txt || code=$?;"""
            """ test "$code" = 2 && test "$(wc -c < err.txt)" -lt 200""") in runs[install + 1:]
    # and refuses a class of about 2^1449 components, its reference of 437 digits, in under 200 bytes
    assert ('''code=0; indeq class path "$(python -c 'print(2**1449-2)')" 2> err.txt || code=$?;'''
            ''' test "$code" = 2 && test "$(wc -c < err.txt)" -lt 200''') in runs[install + 1:]
    # the console script refuses a spec parameter that is not ASCII digits
    assert 'code=0; indeq poly P:1_0 > /dev/null 2>&1 || code=$?; test "$code" = 2' in runs[install + 1:]
    # and refuses a class above the vertex cap with exit 2 and empty stdout
    assert ('code=0; out=$(indeq class cycle 20000 --json --graph6) || code=$?;'
            ' test "$code" = 2 && test -z "$out"') in runs[install + 1:]
    # and streams the members of a class of 983,041 components, which fail to fit 256 MB as one dump
    assert ("(ulimit -v 262144; timeout 60 indeq class path 131070 --json > /dev/null)"
            in runs[install + 1:])
    # and factors a spec with --max-index at the index cap, building only what can divide
    assert 'test "$(timeout 60 indeq factor spec P:2 --max-index 20000)" = f2' in runs[install + 1:]
    # and prints the factorizations of paths and cycles with odd and even n + 2 and n in the recorded bytes
    assert ("""timeout 60 bash -c 'indeq factor path 4093 --json; indeq factor path 9998 --json;"""
            """ indeq factor cycle 9999 --json; indeq factor cycle 10000 --json'"""
            ' | sha256sum | grep -q "^f61ae2f23c3c4366"') in runs[install + 1:]
    # and prints a screen's exact reasons past Python's int-to-str digit limit
    assert "timeout 60 indeq screen F4 --max 14290 > /dev/null" in runs[install + 1:]
    # and streams a screen's JSON rows, which fail to fit 64 MB when held at once
    assert ("(ulimit -v 65536; timeout 60 indeq screen F7 --max 14290 --json > /dev/null)"
            in runs[install + 1:])
    # and answers 200 stdin lines of P_2000, which fail to fit 64 MB when held at once
    assert ("""python -c "from indeq.graphcore import FamilySpec, build, graph6_write;"""
            """ print(*[graph6_write(build(FamilySpec('P', (2000,))))] * 200, sep=chr(10))" > p2000.g6"""
            " && (ulimit -v 65536; timeout 60 indeq poly - < p2000.g6 > /dev/null)") in runs[install + 1:]
    # and answers a 13 x 13 grid, whose table a 12-vertex frontier cap refused, in 256 MB
    assert ("""python -c "from indeq.graphcore import Graph, graph6_write;"""
            """ print(graph6_write(Graph.from_edges(169, [(v, v + 1) for v in range(169) if v % 13 < 12]"""
            """ + [(v, v + 13) for v in range(156)])))" > grid13.g6"""
            " && (ulimit -v 262144; timeout 60 indeq poly - < grid13.g6 > /dev/null)") in runs[install + 1:]
    # and answers a 2,000-vertex path hung off a 5 x 8 grid in the bytes recorded before the run entered last
    assert ("""python -c "from indeq.graphcore import Graph, graph6_write;"""
            """ print(graph6_write(Graph.from_edges(2040, [(v, v + 1) for v in range(40) if v % 5 < 4]"""
            """ + [(v, v + 5) for v in range(35)] + [(9, 40)] + [(v, v + 1) for v in range(40, 2039)])))"""
            '" | timeout 20 indeq poly - | sha256sum | grep -q "^b10bee7e21346781"') in runs[install + 1:]
    # and writes the 31 members of the class of P_9998, 9,998 vertices each, as graph6 JSON in the recorded bytes
    assert ('timeout 30 indeq class path 9998 --json --graph6 | sha256sum | grep -q "^88c43aecd227818d"'
            in runs[install + 1:])
    # and enumerates 63 of 66 edges on 12 vertices as the complements of 3; grown, it runs past the timeout
    assert 'test "$(timeout 60 indeq enumerate --vertices 12 --edges 63 | wc -l)" = 5' in runs[install + 1:]
    # and refuses 33 of 66 edges on 12 vertices, whose grown levels hold billions of classes, in under 200 bytes
    assert ("""code=0; timeout 10 indeq enumerate --vertices 12 --edges 33 2> err.txt || code=$?;"""
            """ test "$code" = 2 && test "$(wc -c < err.txt)" -lt 200""") in runs[install + 1:]
    # and lists all 12,346 graphs on 8 vertices, each through the full canonical search
    assert 'test "$(timeout 60 indeq enumerate --vertices 8 | wc -l)" = 12346' in runs[install + 1:]
    # in the same bytes as recorded, whatever automorphisms each canonical search starts from
    assert ('timeout 60 indeq enumerate --vertices 8 | sha256sum | grep -q "^bee25ad2a2950520"'
            in runs[install + 1:])
    # and their polynomials in the bytes the brute-force counter also gives, whatever the evaluator's route
    assert ('test "$(timeout 60 indeq enumerate --vertices 8 | indeq poly - | sha256sum | cut -c1-16)"'
            ' = c099fb8980a72f0a') in runs[install + 1:]
    # the independent cross-check through the class search's cap, which covers its defaults,
    # on the installed package
    assert runs.index("timeout 120 python scripts/exhaustive_crosscheck.py"
                      " --max-path 14 --max-cycle 14") > install
    # and through a real spawn pool, which opens at P_10, from the guarded script
    assert runs.index("INDEQ_WORKERS=2 python scripts/exhaustive_crosscheck.py"
                      " --max-path 10 --max-cycle 8") > install
    # one short pass of every benchmark workload, failing unless each op's output checked out
    assert ("python3 perfbench/run.py --workload all --seed 1 --seconds 1"
            """ | tail -n 1 | grep -F '"correct": true'""") in runs
    assert 0 < job["timeout-minutes"] <= 60
    floor = re.search(r'requires-python = ">=([0-9.]+)"', (ROOT / "pyproject.toml").read_text())[1]
    assert floor == "3.10"
    assert floor in job["strategy"]["matrix"]["python-version"]


# import name -> distribution name, where they differ
DISTRIBUTIONS = {"yaml": "pyyaml"}


def test_test_extra_installs_every_module_a_test_skips_without():
    extra = re.search(r"^test = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M)[1]
    installed = set(re.findall(r'"([^"]+)"', extra))
    skipped = {name.split(".")[0] for path in (ROOT / "tests").glob("*.py")
               for name in re.findall(r'importorskip\("([^"]+)"\)', path.read_text())}
    assert "yaml" in skipped and "networkx" in skipped
    assert {DISTRIBUTIONS.get(m, m) for m in skipped} <= installed


def _private_imports(tree):
    """The underscore names a module imports from an indeq module, and the
    underscore attributes it reads off an indeq module it imported."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "indeq"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.split(".")[0] == "indeq"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def _package_names(tree, relative: bool):
    """The names a module takes from the bare indeq package: `from indeq
    import x` (or `from . import x` inside the package) and `indeq.x` after
    `import indeq`."""
    names, bound = set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "indeq" and not node.level
                or relative and node.level == 1 and node.module is None):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= any(a.name.split(".")[0] == "indeq" and a.asname is None for a in node.names)
    if bound:
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == "indeq"}
    return names


def test_the_package_is_its_modules():
    package = ROOT / "src" / "indeq"
    init = ast.parse((package / "__init__.py").read_text())
    assert not [node for node in ast.walk(init) if isinstance(node, (ast.Import, ast.ImportFrom))]
    submodules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    paths = [path for top in ("src", "scripts", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) >= 25
    found = {str(path.relative_to(ROOT)): names for path in paths
             if (names := _package_names(ast.parse(path.read_text()), path.parent == package)
                 - submodules)}
    assert found == {}


def test_no_module_uses_another_modules_private_names():
    paths = sorted((ROOT / "src" / "indeq").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(paths) >= 10
    found = {path.name: names for path in paths
             if (names := _private_imports(ast.parse(path.read_text())))}
    assert found == {}


def test_readme_states_each_cap_as_the_code_does():
    from indeq import classify, factorbasis, graphcore, indpoly, oracle

    readme = " ".join((ROOT / "README.md").read_text().split())
    caps = {
        r"more than `MAX_BUILD_VERTICES` = ([\d,]+) vertices": graphcore.MAX_BUILD_VERTICES,
        r"`MAX_FACTOR_INDEX` = ([\d,]+)": factorbasis.MAX_FACTOR_INDEX,
        r"`MAX_SWEEP_SPECS` = ([\d,]+)": classify.MAX_SWEEP_SPECS,
        r"`MAX_EVAL_WORK` = ([\d,]+)": indpoly.MAX_EVAL_WORK,
        r"`MAX_CLASS_COMPONENTS` = ([\d,]+)": classify.MAX_CLASS_COMPONENTS,
        r"class search's cap of (\d+) vertices": oracle.CLASS_MAX,
        r"evaluator; capped at (\d+) vertices": oracle.CLASS_MAX,
        r"the brute-force class search at (\d+) vertices": oracle.CLASS_MAX,
        r"Enumeration is capped at (\d+) vertices unfiltered": oracle._UNFILTERED_MAX,
        r"unfiltered / (\d+) with an edge filter": oracle._FILTERED_MAX,
        r"brute-force set counting at (\d+) vertices": indpoly._BRUTE_FORCE_MAX,
    }
    for pattern, value in caps.items():
        stated = {int(number.replace(",", "")) for number in re.findall(pattern, readme)}
        assert stated == {value}, (pattern, stated, value)
