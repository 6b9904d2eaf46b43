"""The scripts under scripts/, run as their users run them."""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def _script(name, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_reproduce_tables_matches_golden():
    done = _script("reproduce_tables.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "reproduce_tables.stdout").read_text()


def test_crosscheck_refuses_sizes_above_the_class_cap_up_front():
    start = time.perf_counter()
    done = _script("exhaustive_crosscheck.py", "--max-path", "15")
    assert time.perf_counter() - start < 10
    assert done.returncode == 2
    assert "--max-path 15 is above the class search's cap of 14 vertices" in done.stderr
    assert "P_3" not in done.stdout


def test_crosscheck_confirms_small_sizes():
    done = _script("exhaustive_crosscheck.py", "--max-path", "6", "--max-cycle", "5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "P_3", "P_4", "P_5", "P_6", "cover search", "C_3", "C_4", "C_5"]
    assert all(line.endswith(" ok") for line in lines), done.stdout
    assert "all confirmations passed" in done.stderr
