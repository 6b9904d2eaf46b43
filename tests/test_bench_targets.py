"""The benchmark's traced functions must exist in the library it traces."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GROUPS = _load_spans().GROUPS


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_traced_targets_resolve(group):
    """Each ``name`` is a module attribute and each ``Class.name`` is defined
    on the class itself, which is where ``perfbench/spans.py`` looks."""
    module_name, targets = GROUPS[group]
    home = importlib.import_module("indeq." + module_name)
    for target in targets:
        owner_name, _, attr = target.rpartition(".")
        if owner_name:
            assert attr in vars(getattr(home, owner_name)), f"{group}: {target}"
        else:
            assert hasattr(home, attr), f"{group}: {target}"
