"""Shared containers for assembled supercharacter theories.

A theory is a list of characters and a partition of the group.  Character
values are interned: each character stores a compact id array over the
group's packed element ids plus a shared pool of exact cyclotomic values,
so equality, constancy, and table emission are integer-array operations
and every exact value is stored once.  The builders compute on integer
coefficient rows and hand them to `ValuePool.intern`, which keeps each
value as its canonical (row, den) pair (`CycField.reduce_rows`, called
nowhere else); for arithmetic the pool hands its values back as one
integer numerator matrix over a common denominator.  A `SuperTheory` drops
repeated characters and classes and puts the rest in canonical order when
it is made, so every builder ends by constructing one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .algebra import int_dtype, serialize
from .errors import ValidationError
from .orbits import sorted_unique


class ValuePool:
    """Interning pool of exact values, each a canonical (row, den) pair of a
    tuple of ints and a positive int coprime to it; id 0 is always zero."""

    def __init__(self, cfield):
        self.field = cfield
        zero = ((0,) * cfield.dim, 1)
        self.values = [zero]
        self.index = {zero: 0}
        self._rows = None

    def numerators(self):
        """All values as one integer matrix over a common denominator:
        (num, den) with values[i] == num[i] / den and num of shape
        (len, dim); rebuilt whenever the pool has grown since the last call."""
        if self._rows is None or len(self._rows[0]) != len(self.values):
            den = lcm(*(d for _, d in self.values))
            num = [[c * (den // d) for c in row] for row, d in self.values]
            big = max((abs(c) for row in num for c in row), default=0)
            self._rows = np.array(num, dtype=int_dtype(big)), den
        return self._rows

    def id_of(self, value):
        """The id of a canonical (row, den) pair, interned if it is new."""
        got = self.index.get(value)
        if got is None:
            got = len(self.values)
            self.values.append(value)
            self.index[value] = got
        return got

    def intern(self, local_ids, rows, den):
        """Pool ids of a function given as local ids into integer coefficient
        rows over a positive rational den: the value at element i is
        rows[local_ids[i]] / den.  Values enter the pool in local-id order,
        which is printed output (see sort_canonical)."""
        rows, dens = self.field.reduce_rows(rows, den)
        mapping = np.array([self.id_of((tuple(r), d))
                            for r, d in zip(rows.tolist(), dens.tolist())], dtype=np.int32)
        return mapping[local_ids]

    def serialize(self, vid):
        return serialize(*self.values[vid])

    def __len__(self):
        return len(self.values)


@dataclass
class SuperChar:
    """One supercharacter: interned values over packed group ids."""
    label: str
    ids: np.ndarray               # int32 pool ids, one per group element
    pool: ValuePool
    provenance: dict = field(default_factory=dict)

    def value_at(self, gid):
        return self.pool.values[int(self.ids[gid])]

    def degree(self, ident_id):
        """The value at the identity, which must be an integer."""
        row, den = self.value_at(ident_id)
        if den != 1 or any(row[1:]):
            raise ValidationError("cyc-not-integer",
                                  "value %s is not an integer" % (serialize(row, den),))
        return row[0]

    def key(self):
        return self.ids.tobytes()


@dataclass
class SuperClass:
    """One superclass: a sorted array of packed member ids."""
    label: str
    members: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.members = sorted_unique(np.asarray(self.members, dtype=np.int64))

    @property
    def rep(self):
        return int(self.members[0])

    @property
    def size(self):
        return int(self.members.size)

    def key(self):
        return self.members.tobytes()


@dataclass
class SuperTheory:
    """An assembled (characters, partition) pair over one finite group,
    without repeats (first labels kept) and in canonical order."""
    kind: str                     # "U-on-U", "Ub-on-G", "Gb-on-G"
    group_size: int
    ident_id: int
    chars: list
    classes: list
    pool: ValuePool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.chars = dedup_chars(self.chars)
        self.classes = dedup_classes(self.classes)
        sort_canonical(self)

    def class_of_element(self):
        """Array mapping each element id to its class index; -1 if uncovered."""
        out = np.full(self.group_size, -1, dtype=np.int64)
        for idx, kl in enumerate(self.classes):
            out[kl.members] = idx
        return out


def dedup_chars(chars):
    """Drop characters with identical value vectors, preserving first labels."""
    seen = set()
    out = []
    for ch in chars:
        k = ch.key()
        if k not in seen:
            seen.add(k)
            out.append(ch)
    return out


def dedup_classes(classes):
    seen = set()
    out = []
    for kl in classes:
        k = kl.key()
        if k not in seen:
            seen.add(k)
            out.append(kl)
    return out


def sort_canonical(theory):
    """Deterministic presentation: classes by (size, members), characters by
    (identity value id, value bytes).  Pool ids follow first appearance, so
    the order in which each builder interns its local values is printed output.
    """
    theory.classes.sort(key=lambda kl: (kl.size, kl.members.tolist()))
    theory.chars.sort(key=lambda ch: (int(ch.ids[theory.ident_id]), ch.key()))
    return theory
