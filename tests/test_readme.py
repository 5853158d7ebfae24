"""The README's python examples run as written, and its config key table is the CLI's."""

import json
import re
from pathlib import Path

import pytest

from gaussmin.cli import KEYS

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_key_table_lists_the_config_schema():
    # one row per key: its name first and its default last, a JSON value,
    # "none" (KEYS has no default) or "retired" (KEYS refuses every value)
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| key | commands | type or range | default |"):].split("\n\n")[0]
    rows = {m[1]: m[2] for m in re.finditer(r"^\| `(\w+)` \|.*\| ([^|]+) \|$", table, re.M)}
    assert sorted(rows) == sorted(KEYS)
    for key, default in rows.items():
        if default == "retired":
            assert "retired" in KEYS[key].must and not KEYS[key].ok(0), key
        else:
            assert KEYS[key].default == (None if default == "none"
                                         else json.loads(default.strip("`"))), key
