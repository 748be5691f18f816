"""The README's library layout names only what its modules define."""

import importlib
import re
from functools import reduce
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parent.parent / "README.md"


def _layout_rows():
    text = _README.read_text()
    table = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`paretotrack"):
            rows.append((cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])))
    return rows


_ROWS = _layout_rows()


def test_layout_table_has_a_row_per_module():
    assert len(_ROWS) == 10


@pytest.mark.parametrize("module,names", _ROWS, ids=[module for module, _ in _ROWS])
def test_layout_names_are_attributes_of_their_module(module, names):
    mod = importlib.import_module(module)
    missing = []
    for name in names:
        try:
            reduce(getattr, name.split("."), mod)
        except AttributeError:
            missing.append(name)
    assert not missing, f"{module} has no {missing}"
