"""The pinned `cdsort` outputs of tests/pins.txt, each run through cli.main in
process.  Run from outside the checkout with no PYTHONPATH, as CI does after
`pip install .`, this test checks the installed package on every pin."""
import hashlib
import shlex
from pathlib import Path

from cdsort.cli import main

PINS = Path(__file__).parent / "pins.txt"
GOLDEN = Path(__file__).parent / "golden"

# the graph-file inputs of the game rows: four vertices with far-apart labels,
# and a 1,500-vertex path oriented only at one end
LABELS = "".join(f"{line}\n" for line in (
    "vertex (2,3) oriented",
    "vertex (7,8) unoriented",
    "vertex (40,41) oriented",
    "vertex (1000000000,1000000001) oriented",
    "edge (2,3) (7,8)",
    "edge (7,8) (40,41)",
    "edge (40,41) (1000000000,1000000001)",
))
LONG_PATH = (
    "vertex (1,2) oriented\n"
    + "".join(f"vertex ({v},{v + 1}) unoriented\n" for v in range(2, 1501))
    + "".join(f"edge ({v},{v + 1}) ({v + 1},{v + 2})\n" for v in range(1, 1500))
)


def pins():
    """(expected, name, argv) for each row of the table, in file order."""
    for line in PINS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            expected, name, *rest = line.split(None, 2)
            yield expected, name, shlex.split(rest[0]) if rest else []


def test_pins(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "labels.txt").write_text(LABELS)
    (tmp_path / "path.txt").write_text(LONG_PATH)
    differ = []
    for expected, name, argv in pins():
        if argv:
            code = main(argv)
            out, err = capsys.readouterr()
            (tmp_path / name).write_bytes(out.encode())
            if code != 0 or err:
                differ.append(f"{name}: exit {code}, stderr {err!r}")
                continue
        data = (tmp_path / name).read_bytes()
        if expected == "=":
            if data != (GOLDEN / name).read_bytes():
                differ.append(f"{name}: differs from tests/golden/{name}")
        elif (actual := hashlib.md5(data).hexdigest()) != expected:
            differ.append(f"{name}: md5 {actual}, pinned {expected}")
    assert not differ, "pinned outputs differ:\n" + "\n".join(differ)
