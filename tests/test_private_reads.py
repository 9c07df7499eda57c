"""No module of the package reads another module's private names.

Each src/cdsort/*.py is parsed with ast.  A read of ``<alias>._name``, where
the alias names a package module (``from . import ops``, ``from . import
graph as graphmod``), and an import ``from .mod import _name`` are private
reads.  Attributes of classes and instances, such as SignedPermutation._of,
are out of scope, and so are dunder names."""
import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "cdsort"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list[str]:
    """``<file>:<line>`` of each private read across modules in one file,
    in line order."""
    tree = ast.parse(path.read_text(), str(path))
    modules = set()   # the names the file binds to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "cdsort"
            if not package:
                continue
            if node.module is None or node.module == "cdsort":  # from . import mod
                modules.update(alias.asname or alias.name for alias in node.names)
            elif any(_private(alias.name) for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("cdsort."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_no_module_reads_another_modules_private_names():
    reads = [read for path in sorted(SRC.glob("*.py")) for read in private_reads(path)]
    assert reads == []


def test_the_guard_sees_both_forms_of_private_read(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("\n".join([
        "from . import ops",
        "from . import graph as g",
        "from .perm import SignedPermutation, _x",
        "import cdsort.games as games",
        "ops._a",
        "g._b(1)",
        "games._c = 1",
        "ops.public, ops.__name__, SignedPermutation._of",
        "import random",
        "random._inst",
    ]))
    assert private_reads(source) == ["mod.py:3", "mod.py:5", "mod.py:6", "mod.py:7"]
