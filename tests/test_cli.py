import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from indeq import checks
from indeq.classify import EvenCycleClassNote, cycle_class, path_class
from indeq.cli import SpecSyntaxError, _build_parser, main, parse_spec_text
from indeq.graphcore import FAMILIES, MAX_ECHO, Family, FamilySpec, Run, build, graph6_write

from conftest import fs


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_spec_text():
    assert parse_spec_text("P:10") == (fs("P", 10),)
    assert parse_spec_text("P:2 + K4e") == (fs("P", 2), fs("K4e"))
    assert parse_spec_text("Y:3,2,1") == (fs("Y", 3, 2, 1),)
    with pytest.raises(SpecSyntaxError, match="position 0"):
        parse_spec_text("Q:1")
    with pytest.raises(SpecSyntaxError, match="position 5"):
        parse_spec_text("P:2 +")
    with pytest.raises(SpecSyntaxError, match="position 6"):
        parse_spec_text("P:2 + C:two")
    with pytest.raises(SpecSyntaxError, match="must be >= 3"):
        parse_spec_text("C:1")
    # blanks around a parameter are fine; anything but ASCII digits is not
    assert parse_spec_text("P: 3") == (fs("P", 3),)
    for text in ("P:1_0", "P:\u0661\u0662", "P:-0", "P:\u00b2", "Y:1, 2,"):
        with pytest.raises(SpecSyntaxError, match="non-integer parameter"):
            parse_spec_text(text)
    # a refused component is echoed cut to MAX_ECHO characters
    for text, refusal in (("P:" + "9" * 5000, "parameter too long in"),
                          ("P:" + "x" * 5000, "non-integer parameter in"),
                          ("Q" * 5000 + ":1", "unknown family")):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec_text(text)
        assert str(err.value) == f"{refusal} {text[:MAX_ECHO]!r}... at position 0"


def test_poly_command(capsys):
    code, out, _ = run(capsys, "poly", "P:10")
    assert code == 0 and out.strip() == "1 10 36 56 35 6"
    code, out, _ = run(capsys, "poly", "C:6", "--json")
    assert json.loads(out) == {"input": "C:6", "coefficients": ["1", "6", "9", "2"]}
    # graph6 input: the canonical bytes of a path decode right back
    code, out, _ = run(capsys, "poly", "DqK")
    assert code == 0
    # the empty graph: I = 1, its constant term, like every polynomial's
    assert run(capsys, "poly", "?") == (0, "1\n", "")
    assert run(capsys, "poly", "?", "--json") == (0, '{"input": "?", "coefficients": ["1"]}\n', "")


def test_poly_rejects_garbage(capsys):
    code, _, err = run(capsys, "poly", "Zz:1")
    assert code == 2 and "neither a family spec" in err
    # a parameter is ASCII digits, and a refusal repeats a bounded part of its input
    assert run(capsys, "poly", "P:1_0")[:2] == (2, "")
    code, _, err = run(capsys, "poly", "P:" + "9" * 5000)
    assert code == 2 and len(err) < 200


def test_poly_reads_graph6_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("DqK\nBw\n"))
    code, out, _ = run(capsys, "poly", "-")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["1 5 5", "1 3"]


def test_poly_stdin_answers_lines_before_a_malformed_one(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("DqK\n!!\nBw\n"))
    code, out, err = run(capsys, "poly", "-")
    assert (code, out, err) == (2, "1 5 5\n", "error: invalid graph6 byte 0x21 (byte offset 0)\n")


def test_factor_commands(capsys):
    code, out, _ = run(capsys, "factor", "cycle", "6")
    assert code == 0 and out.strip() == "f2 f6"
    code, out, _ = run(capsys, "factor", "path", "10")
    assert out.strip() == "f2 f3 f6 f~3"
    code, out, _ = run(capsys, "factor", "spec", "Y:4,2,2")
    assert out.strip() == "f12 f~3"
    code, out, _ = run(capsys, "factor", "path", "10", "--json")
    payload = json.loads(out)
    assert [item["kind"] for item in payload] == ["f", "f", "f", "ftilde"]
    # repeated factors divide out fine
    code, out, _ = run(capsys, "factor", "spec", "P:1+K4e+K4e")
    assert code == 0 and out.strip() == "f6 f6 f~3"
    # -1/4 is never a basis root, so this one cannot factor
    code, _, err = run(capsys, "factor", "spec", "F3:0")
    assert code == 1 and "remainder" in err


# sha256 of `factor ... --json` stdout, recorded while the basis factors were
# still built by a triangular solve, a Taylor shift and reverse-negate
GOLDEN_FACTOR_DIGESTS = [
    (("path", "2027"), "881c4b1e2fcee9e8ca93ed5a9b8493a5277537570c32380e13be556e79443a36"),
    (("path", "2938"), "971c35fc0415a2b59dd1e8299e38b288dfb8bf87b91a6ea938b97ec3e3c82c6f"),
    (("path", "4095"), "b7a6ea6c348c6ee34869cf332c696bed3489981bee95f828823b4421f011cead"),
    (("cycle", "1470"), "088d2a9ecc1ea0419a865380d0fa03be22fbb8b756f560b6735555a3d6cbe5b7"),
    (("cycle", "701"), "6676ea81eb8a3dcfdd3dfb5f988ecea54905440461ec8103bb562bb05d9a21ca"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_FACTOR_DIGESTS,
                         ids=["-".join(a) for a, _ in GOLDEN_FACTOR_DIGESTS])
def test_factor_json_matches_golden(capsys, argv, digest):
    code, out, _ = run(capsys, "factor", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


# sha256 of `poly ... --json` stdout, recorded while the closed forms were
# built from math.comb and every product was schoolbook; the last two take
# the large-product route
GOLDEN_POLY_DIGESTS = [
    ("P:2500", "2213b5c95b8ce864bb70f667a1c8d435c4904a5f2b3c25666763cd2655fa45e3"),
    ("C:1500", "a0dbd7bbae5de603e32203c65712a4be10f0ae9631e3e9cfe568ddf05005b455"),
    ("P:1200+P:1200", "332862360ed18836b2a69628e87e8df0632dec31d21eb84b65f7bc71fd686d69"),
    ("Y:600,600,600", "f7596b67595ecda6e927765b406fa7610c79ae0197af356194bedaa5fc5aa62b"),
]


@pytest.mark.parametrize("spec,digest", GOLDEN_POLY_DIGESTS, ids=[s for s, _ in GOLDEN_POLY_DIGESTS])
def test_poly_json_matches_golden(capsys, spec, digest):
    code, out, _ = run(capsys, "poly", spec, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_parser_survives_an_argparse_exit(capsys):
    """The parser is built once; a call that argparse exits leaves it usable."""
    for bad in (["factor", "path", "ten"], ["factor", "path"], ["bogus"]):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
        assert "usage: indeq" in capsys.readouterr().err
        code, out, _ = run(capsys, "factor", "path", "10")
        assert (code, out) == (0, "f2 f3 f6 f~3\n")
        code, out, _ = run(capsys, "factor", "cycle", "6", "--json")
        assert code == 0 and [f["index"] for f in json.loads(out)] == [2, 6]
    assert _build_parser() is _build_parser()


def test_class_commands(capsys):
    code, out, _ = run(capsys, "class", "path", "10")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 10 and lines[0] == "P:10"
    code, out, _ = run(capsys, "class", "path", "10", "--no-expand-d")
    assert len(out.strip().splitlines()) == 8
    code, out, _ = run(capsys, "class", "cycle", "9", "--json")
    payload = json.loads(out)
    assert payload["reference"] == "C:9" and len(payload["members"]) == 6
    code, out, _ = run(capsys, "class", "path", "4", "--graph6")
    assert all("\t" in line for line in out.strip().splitlines())


def test_equiv_class_json(capsys):
    code, out, _ = run(capsys, "class", "path", "4", "--json", "--graph6")
    back = json.loads(out)
    assert code == 0 and back["reference"] == "P:4"
    assert back["members"][0] == [{"family": "P", "params": [4]}]
    assert len(back["graph6"]) == len(back["members"]) == 2


CLASS_SWEEP = ([("path", n, expand_d) for expand_d in (True, False) for n in range(2, 121, 2)]
               + [("cycle", n, True) for n in range(3, 61)])


@pytest.mark.parametrize("graph6", [False, True], ids=["members", "graph6"])
def test_class_json_is_the_dump_of_its_payload(capsys, graph6):
    # members and codes are written one at a time, byte for byte the one
    # json.dumps of the whole payload
    for kind, n, expand_d in CLASS_SWEEP:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvenCycleClassNote)
            cls = path_class(n, expand_d) if kind == "path" else cycle_class(n)
        payload = {"reference": str(cls.reference),
                   "members": [[{"family": s.family, "params": list(s.params)} for s in member]
                               for member in cls.members]}
        if graph6:
            payload["graph6"] = [graph6_write(build(member)) for member in cls.members]
        argv = ["class", kind, str(n), *["--no-expand-d"] * (not expand_d), "--json",
                *["--graph6"] * graph6]
        assert run(capsys, *argv) == (0, json.dumps(payload) + "\n", ""), argv


def test_multiset_json(capsys):
    code, out, _ = run(capsys, "factor", "path", "10", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload[0] == {"kind": "f", "index": 2, "coefficients": ["1", "2"]}
    assert payload[-1]["kind"] == "ftilde"


@pytest.mark.parametrize("argv", [["class", "cycle", "9", "--no-expand-d"],
                                  ["class", "path", "10", "--expand-d"]])
def test_class_rejects_removed_expand_flags(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "Y:2,1,1", "--json")
    payload = json.loads(out)
    assert payload["all_roots_real_below_-1/4"] is True
    assert payload["distinct_real_roots"] == 3
    code, out, _ = run(capsys, "roots", "K4e")
    assert "squarefree: True" in out


# sha256 of `roots ... --json` stdout, recorded while the refinement probed
# the points of the bisection grid itself; C:9+C:9+P:4 is not squarefree, so
# its roots come from the squarefree part
GOLDEN_ROOTS_DIGESTS = [
    ("P:200", "e1bb55d408e59483503be193451702e987abfbae769189d82d502d1669e6ecf6"),
    ("C:150", "85bdf58ea3c1250c94710a96f61fc412414ec56f71bcfd4692ccab35884661e0"),
    ("Y:64,1,1", "61c1864f0f27db537876423b71230588fce078f31276a7bf47540307eb6ea096"),
    ("C:9+C:9+P:4", "eabb7689890d025d01569491b8e202b56ff193eaa4a4a768cd2c748d9109a7f5"),
]


@pytest.mark.parametrize("spec,digest", GOLDEN_ROOTS_DIGESTS, ids=[s for s, _ in GOLDEN_ROOTS_DIGESTS])
def test_roots_json_matches_golden(capsys, spec, digest):
    code, out, _ = run(capsys, "roots", spec, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_screen_command(capsys):
    code, out, _ = run(capsys, "screen", "B", "--max", "6", "--json")
    payload = json.loads(out)
    admissible = {row["spec"] for row in payload if row["admissible"]}
    assert admissible == {"B:0,1,1", "B:5,1,1"}
    # an empty sweep still prints the empty list
    code, out, _ = run(capsys, "screen", "Y", "--max", "0", "--json")
    assert (code, out) == (0, "[]\n")
    code, _, err = run(capsys, "screen", "Zf", "--max", "3")
    assert (code, err) == (2, "error: unknown family 'Zf'\n")


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--vertices", "4")
    assert code == 0 and len(out.strip().splitlines()) == 11
    code, out, _ = run(capsys, "enumerate", "--vertices", "6", "--edges", "6",
                       "--max-degree", "2", "--connected")
    assert out.strip().splitlines() == ["EBj?"]
    code, _, err = run(capsys, "enumerate", "--vertices", "40")
    assert code == 2 and "capped" in err
    code, out, err = run(capsys, "enumerate", "--vertices", "3", "--max-degree", "-1")
    assert (code, out, err) == (2, "", "error: max degree must be non-negative, got -1\n")


def test_enumerate_byte_determinism(capsys):
    _, out1, _ = run(capsys, "enumerate", "--vertices", "5", "--edges", "5")
    _, out2, _ = run(capsys, "enumerate", "--vertices", "5", "--edges", "5")
    assert out1 == out2


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--bound", "small")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    assert len(lines) == 3


def test_recurrence_check_fails_when_a_parameter_is_drawn_twice(monkeypatch):
    # Y's third arm drawn from parameter 1 as well: parameter 1 then
    # lengthens two paths at once, so no two-term recurrence holds along it
    floors, moves = FAMILIES["Y"]
    monkeypatch.setitem(FAMILIES, "Y", Family(floors, moves[:3] + (Run(0, 0, 0),)))
    ok, detail = checks.CHECKS["recurrences"](checks.BOUNDS["small"])
    assert not ok
    assert detail == "two-term recurrence fails for Y parameter 1 at m=3"


def test_recurrence_check_varies_every_parameter_of_every_family(monkeypatch):
    seen = []
    poly_of = checks._poly_of
    monkeypatch.setattr(checks, "_poly_of", lambda *specs: seen.extend(specs) or poly_of(*specs))
    bounds = checks.BOUNDS["small"]
    assert checks.CHECKS["recurrences"](bounds)[0]
    varied = set()
    for name, (floors, _) in FAMILIES.items():
        for i, floor in enumerate(floors):
            at_floors = {s.params[i] for s in seen if s.family == name
                         and s.params[:i] + s.params[i + 1:] == floors[:i] + floors[i + 1:]}
            if at_floors == set(range(floor, bounds["recur"] + 1)):
                varied.add((name, i))
    assert varied == {(name, i) for name, family in FAMILIES.items() for i in range(len(family.floors))}
    assert len(varied) == 29


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(capsys, name):
    """stdout, stderr and exit code match the recorded corpus byte for byte."""
    case = GOLDEN_CASES[name]
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == (GOLDEN / f"{name}.stdout").read_text()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_pipe_ends_quietly(unbuffered):
    # 86 kB of output, more than a pipe and the stdout buffer hold, so the
    # writer meets the closed pipe whatever its buffering
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen([sys.executable, "-m", "indeq", "enumerate", "--vertices", "8"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert child.stdout.readline() == b"G?????\n"
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 141, err
    finally:
        child.kill()
        child.wait()
    assert "Traceback" not in err and "Exception ignored" not in err, err
