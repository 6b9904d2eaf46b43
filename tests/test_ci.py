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
    assert 'python -m pip install ".[test]"' in runs
    floor = re.search(r'requires-python = ">=([0-9.]+)"', (ROOT / "pyproject.toml").read_text())[1]
    assert floor == "3.10"
    assert floor in job["strategy"]["matrix"]["python-version"]
