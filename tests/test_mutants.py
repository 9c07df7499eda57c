"""The faults the suite must catch, one row per mutant.

Each row names a function (``module.name``, or ``module.Class.method``), a
fragment of its source that occurs there exactly once, the fragment's
replacement, the check that must fail on the mutant, and the check's exact
failure count on it: every check here is deterministic.  The test execs each
mutant in its module's namespace, monkeypatches it in, runs the row's check
and names every mutant that survives or fails a different number of times.
A fast path adds its row in the change that adds it, and a row replaces any
ad-hoc test of the same fault.
"""
import importlib
import inspect
import textwrap
from typing import NamedTuple

import pytest

from cdsort import analysis, games, ops, perm, verify
from cdsort.perm import all_signed_permutations

from oracles import (
    cds_children,
    format_entries_by_generator,
    parity_by_playout,
    plain_sweep_records,
)


class Mutant(NamedTuple):
    target: str        # the function, as module.name or module.Class.method
    fragment: str      # occurs exactly once in its source
    replacement: str
    check: str         # a key of CHECKS
    failures: int      # the check's failures on the mutant, exactly


MUTANTS = [
    # the bytes cdr kernel with its cut flank inverted: 3,600 of the 3,840
    # inputs, though the exhaustive sweep shares each position across inputs
    Mutant("ops._cdr_children_bytes", "pos = lo < 0x80", "pos = lo >= 0x80",
           "commutation n=5", 3_600),
    # the bytes cdr kernel's pointer walk stops one magnitude short, so no
    # state has a child at the last pointer (n - 1, n)
    Mutant("ops._cdr_children_bytes", "at[2:n + 1]", "at[2:n]", "commutation n=5", 1_920),
    # the kernel cdr_states hands out drops each state's last child: every
    # input with a pointer fails, all but the 12 fixed points
    Mutant("ops.cdr_states", "_cdr_children_bytes, _decode",
           "lambda state: list(_cdr_children_bytes(state))[:-1], _decode",
           "commutation n=3", 36),
    # the commutation memo shares one position among all states with the
    # same orientation mask
    Mutant("verify._SweepContext.overlap_masks", "self.positions.setdefault(position, position)",
           "self.positions.setdefault(position[1], position)", "commutation n=5", 3_190),
    # value i+1's tail on the wrong flank
    Mutant("ops._arcs", "k2 = 2 * hi_at + (hi < 0)", "k2 = 2 * hi_at + (hi > 0)",
           "cds children n=5", 2_160),
    # cds moves the last segment to the front and keeps the other two in order
    Mutant("ops._swap", "entries[g2:g3] + entries[g1:g2]", "entries[g1:g2] + entries[g2:g3]",
           "cds children n=5", 1_222),
    # pointers whose arcs cross only with the lower pointer's arc first
    Mutant("ops._cds_pairs", "if k1 < l1 < k2 < l2 or l1 < k1 < l2 < k2:",
           "if k1 < l1 < k2 < l2:", "cds children n=5", 923),
    # the orbits' CN map reverses the state as well, so a fixed point found
    # through CN is taken back to the wrong state
    Mutant("ops.CdrOrbits.__init__", "lambda state: state.translate(cn),",
           "lambda state: state[::-1].translate(cn),", "rescue records n=5", 384),
    # the orbits' R map negates the state without reversing it
    Mutant("ops.CdrOrbits.__init__", "lambda state: state[::-1].translate(_NEG),",
           "lambda state: state.translate(_NEG),", "rescue records n=5", 384),
    # the orbits' CNR map complements the state without reversing it
    Mutant("ops.CdrOrbits.__init__",
           "state.translate(cn),\n" + " " * 21 + "lambda state: state[::-1].translate(cnr))",
           "state.translate(cn),\n" + " " * 21 + "lambda state: state.translate(cnr))",
           "rescue records n=5", 586),
    # locate forgets the map, so every state reads its orbit's fixed points
    # as its own
    Mutant("ops.CdrOrbits.__init__", "return low, images.index(low)", "return low, 0",
           "rescue records n=5", 1_227),
    # locate lists the images out of step with the maps, CN before R: the
    # records cannot see it (R and CN differ by CNR, which keeps every sign
    # and takes the identity to itself), the orbit contract can
    Mutant("ops.CdrOrbits.__init__",
           "images = (state, back.translate(_NEG), state.translate(cn), back.translate(cnr))",
           "images = (state, state.translate(cn), back.translate(_NEG), back.translate(cnr))",
           "locate n=5", 1_888),
    # gcdr at an isolated vertex leaves its flag set
    Mutant("graph.move", "return rows, ori ^ (1 << i)", "return rows, ori",
           "commutation n=5", 990),
    # the orientation flags off the diagonal, all on column 0
    Mutant("graph.gf2_rank", "row |= (ori >> k & 1) << k", "row |= ori >> k & 1",
           "parity n=5", 1_650),
    # the subject template without the space after each comma
    Mutant("perm.format_entries", '"%s, " * (len(entries) - 1)', '"%s," * (len(entries) - 1)',
           "format n=4", 384),
    # the verdict cache never hits, so each record builds its own detail: all
    # but the first record of each of the 7 distinct details
    Mutant("verify._SweepContext.verdict", "hit = self.verdicts.get(key)", "hit = None",
           "shared details n=5", 3_833),
    # the verdict words swapped
    Mutant("verify.CheckRecord.line", "'PASS' if self.ok else 'FAIL'",
           "'FAIL' if self.ok else 'PASS'", "record lines n=4", 384),
    # a second space after the ply number
    Mutant("games.PlyRecord.line", 'f"ply {self.ply} {self.player}',
           'f"ply {self.ply}  {self.player}', "ply lines n=4", 704),
]


def _commutation(n: int) -> int:
    return verify.run_sweep("commutation", n, exhaustive=True).failures


def _cds_children(n: int) -> int:
    """Inputs whose cds children differ from those read off the pointer
    occurrences."""
    return sum(list(ops._cds_children(entries)) != cds_children(entries)
               for entries in all_signed_permutations(n))


def _rescue_records(n: int) -> int:
    """Records of the exhaustive rescue sweep, which folds over CdrOrbits,
    that differ from those of the plain fold."""
    records = verify.run_sweep("rescue", n, exhaustive=True).records
    return sum(a != b for a, b in zip(records, plain_sweep_records("rescue", n)))


def _locate(n: int) -> int:
    """States of length n whose map from locate does not take them to the
    least image, or that image back to them."""
    orbits = ops.CdrOrbits(n)
    bad = 0
    for entries in all_signed_permutations(n):
        state = ops.cdr_states(entries)[0]
        least, k = orbits.locate(state)
        bad += orbits.maps[k](state) != least or orbits.maps[k](least) != state
    return bad


def _format(n: int) -> int:
    """Inputs whose text form differs from the generator form."""
    return sum(perm.format_entries(entries) != format_entries_by_generator(entries)
               for entries in all_signed_permutations(n))


def _record_lines(n: int) -> int:
    """Records of the exhaustive parity sweep whose line is not their
    fields, tab-separated, with the verdict word for ok."""
    return sum(record.line().split("\t")
               != [record.prop, "PASS" if record.ok else "FAIL", record.subject, record.detail]
               for record in verify.run_sweep("parity", n, exhaustive=True).records)


def _shared_details(n: int) -> int:
    """Records of the exhaustive parity sweep whose detail is not the first
    string seen with its text."""
    first: dict = {}
    return sum(first.setdefault(record.detail, record.detail) is not record.detail
               for record in verify.run_sweep("parity", n, exhaustive=True).records)


def _ply_lines(n: int) -> int:
    """Plies of the greedy playout on each input's overlap graph whose line,
    split on single spaces, is not its five fields."""
    return sum(record.line().split(" ")
               != ["ply", str(record.ply), record.player,
                   f"({record.vertex},{record.vertex + 1})", f"remaining={record.remaining}"]
               for entries in all_signed_permutations(n)
               for record in games.playout(games.state_from_permutation(entries)))


def _parity(n: int) -> int:
    """Inputs whose parity by rank differs from that of a playout."""
    return sum(analysis.parity(entries) != parity_by_playout(entries)
               for entries in all_signed_permutations(n))


CHECKS = {
    "commutation n=3": lambda: _commutation(3),
    "commutation n=5": lambda: _commutation(5),
    "cds children n=5": lambda: _cds_children(5),
    "parity n=5": lambda: _parity(5),
    "rescue records n=5": lambda: _rescue_records(5),
    "locate n=5": lambda: _locate(5),
    "format n=4": lambda: _format(4),
    "record lines n=4": lambda: _record_lines(4),
    "shared details n=5": lambda: _shared_details(5),
    "ply lines n=4": lambda: _ply_lines(4),
}

def _mutate(monkeypatch, mutant: Mutant) -> None:
    module_name, *path = mutant.target.split(".")
    module = importlib.import_module(f"cdsort.{module_name}")
    owner = module
    for name in path[:-1]:
        owner = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(getattr(owner, path[-1])))
    assert source.count(mutant.fragment) == 1, mutant
    namespace = dict(vars(module))
    exec(source.replace(mutant.fragment, mutant.replacement), namespace)
    monkeypatch.setattr(owner, path[-1], namespace[path[-1]])


def test_every_check_passes_unmutated():
    assert {name: check() for name, check in CHECKS.items()} == dict.fromkeys(CHECKS, 0)


def test_every_mutant_is_caught():
    wrong = []
    for mutant in MUTANTS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            _mutate(monkeypatch, mutant)
            failures = CHECKS[mutant.check]()
        if failures != mutant.failures:
            wrong.append(f"{mutant.target}: {mutant.replacement!r} fails {mutant.check} "
                         f"{failures} times, expected {mutant.failures}")
    assert wrong == []
