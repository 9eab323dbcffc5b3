"""Every public module-level function and class of the package, and every
public method and property of a public class, is used by the program: by
code in `src/`, `demos/` or `perfbench/`, not by tests alone.  A public
name that only tests reach is an entry point no stage runs, a second copy
of a job the program does another way.

Names are matched as written, not by module: a use is a bare name, an
attribute or an imported name anywhere in those trees.  `perfbench/` is
only parsed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def public_definitions():
    """(module, qualified name, name) of each public module-level def and
    class, and of each public method and property of a public class."""
    for path in sorted((ROOT / "src" / "driftwatch").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for method in public(node.body, ast.FunctionDef):
                    yield (path.stem, f"{node.name}.{method.name}",
                           method.name)


def used_names():
    """Every bare name, attribute and imported name the program's code uses."""
    names = set()
    for pattern in ("src/**/*.py", "demos/*.py", "perfbench/**/*.py"):
        for path in ROOT.glob(pattern):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_is_used_outside_the_tests():
    used = used_names()
    unused = [f"{module}.{qualname}"
              for module, qualname, name in public_definitions()
              if name not in used]
    assert unused == [], f"public names only tests use: {unused}"
