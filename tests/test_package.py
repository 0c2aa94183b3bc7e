import ast
from pathlib import Path

import ofdmsync


def _referenced_names(path: Path) -> set[str]:
    """Names a module's code reads: loaded names and attributes, not definitions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package():
    # A public helper that no module uses is a second entry point that only
    # tests call; its job belongs to the one path the package runs.
    used = set().union(*(_referenced_names(path)
                         for path in Path(ofdmsync.__file__).parent.glob("*.py")
                         if path.name != "__init__.py"))
    assert sorted(set(ofdmsync.__all__) - used) == []
