"""Library invariants raise ValidationFailed, never `assert`: `python -O`
strips assert statements, and a check that vanishes under -O certifies
nothing."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ellt").glob("*.py"))


def test_library_has_no_assert_statements():
    assert any(path.name == "sheafside.py" for path in SOURCES)
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"
