"""No module of the package reads another module's private names, and only
ops decides where its bytes states end.

Each src/cdsort/*.py is parsed with ast.  A read of ``<alias>._name``, where
the alias names a package module (``from . import ops``, ``from . import
graph as graphmod``), and an import ``from .mod import _name`` are private
reads.  Attributes of classes and instances, such as SignedPermutation._of,
are out of scope, and so are dunder names.

A cdr state is bytes up to n = 127 entries and the entries tuple from
n = 128 on; ops.cdr_states and ops.CdrOrbits decide which, so a comparison
with the literal 127 or 128 (0x80) in any other module restates that
threshold."""
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


BYTES_THRESHOLDS = {127, 128}


def bytes_thresholds(path: Path) -> list[str]:
    """``<file>:<line>`` of each comparison with the literal 127 or 128 in
    one file, in line order."""
    tree = ast.parse(path.read_text(), str(path))
    found = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                   and any(isinstance(operand, ast.Constant) and type(operand.value) is int
                           and operand.value in BYTES_THRESHOLDS
                           for operand in (node.left, *node.comparators)))
    return [f"{path.name}:{line}" for line in found]


def test_only_ops_compares_with_the_bytes_state_threshold():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "ops.py"
             for hit in bytes_thresholds(path)]
    assert found == []
    assert bytes_thresholds(SRC / "ops.py") != []


def test_the_guard_sees_each_form_of_the_threshold(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("\n".join([
        "n <= 127",
        "0x80 > n",
        "0 < n < 128",
        "n == 0x7F",
        "n < 129",
        "x = 128",
        "range(0x80)",
        "n < 127.0",
    ]))
    assert bytes_thresholds(source) == ["mod.py:1", "mod.py:2", "mod.py:3", "mod.py:4"]
