"""Free 2-step nilpotent evaluation: endpoint plus pairwise signed areas.

For d = 2 this is the discrete Heisenberg group. A word folds to its
endpoint together with the discrete line integrals of x_i against dx_j for
i < j; on closed words those integrals are the signed areas of the
coordinate-plane projections of the path.
"""

from __future__ import annotations

from itertools import compress
from operator import index
from typing import Mapping

from .lattice import Vector, _accumulate, _json_ints, _json_rows, _rows, _vec_text, _vector, vec_add, vec_neg
from .words import GroupElement, RankMismatchError, Word


class HeisenbergElement(GroupElement):
    """Element as (endpoint, strictly upper-triangular integer area matrix).

    Trusted input: ``endpoint`` is a tuple of ints and ``_areas`` maps pairs
    (i, j) with 1 <= i < j <= d to nonzero ints.
    """

    __slots__ = ("endpoint", "_areas")

    def __init__(self, endpoint: Vector, areas=()):
        endpoint = _vector(endpoint)
        d = len(endpoint)
        entries: dict[tuple[int, int], int] = {}
        pairs = areas.items() if isinstance(areas, Mapping) else areas
        for (i, j), value in pairs:
            i, j = index(i), index(j)
            if not 1 <= i < j <= d:
                raise ValueError(f"area index ({i}, {j}) out of range for rank {d}")
            _accumulate(entries, (i, j), index(value))
        self.endpoint = endpoint
        self._areas = entries

    @property
    def d(self) -> int:
        return len(self.endpoint)

    @classmethod
    def identity(cls, d: int) -> "HeisenbergElement":
        return cls((0,) * d)

    @classmethod
    def from_word(cls, word: Word) -> "HeisenbergElement":
        """Fold unit steps: a step of sign s along axis j adds v_i * s to every
        area entry (i, j) with i < j, at the pre-step position v.

        The running areas are a list with one slot per pair (i, j) of the
        word's own axes, so a letter hashes no key; the dict of the nonzero
        slots is built once, at the end."""
        position = [0] * word.d
        # For each axis j of the word, the pairs (i - 1, slot of (i, j)) for
        # the word's own axes i < j, built once per call: a letter does no
        # index arithmetic, and reads no coordinate the path never moves along.
        pairs: dict[int, list] = {}
        slots = 0
        for axis in sorted({axis for axis, _ in dict.fromkeys(word.letters)}):
            pairs[axis] = [(i - 1, slot) for slot, i in enumerate(pairs, slots)]
            slots += len(pairs[axis])
        running = [0] * slots
        for axis, sign in word.letters:
            for at, slot in pairs[axis]:
                running[slot] += position[at] * sign
            position[axis - 1] += sign
        # Slots were assigned in the order of the pairs, so this reads their keys.
        keys = ((at + 1, axis) for axis, row in pairs.items() for at, _ in row)
        return cls._of(tuple(position), dict(compress(zip(keys, running), running)))

    def area(self, i: int, j: int) -> int:
        return self._areas.get((i, j), 0)

    def areas(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._areas.items())

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        if not isinstance(other, HeisenbergElement):
            return NotImplemented
        if self.d != other.d:
            raise RankMismatchError(f"element ranks differ: {self.d} vs {other.d}")
        entries = dict(self._areas)
        for key, value in other._areas.items():
            _accumulate(entries, key, value)
        _add_products(entries, self.endpoint, other.endpoint)
        return HeisenbergElement._of(vec_add(self.endpoint, other.endpoint), entries)

    def inverse(self) -> "HeisenbergElement":
        v = self.endpoint
        entries = {key: -value for key, value in self._areas.items()}
        _add_products(entries, v, v)
        return HeisenbergElement._of(vec_neg(v), entries)

    def is_identity(self) -> bool:
        return not self._areas and all(coord == 0 for coord in self.endpoint)

    def __repr__(self) -> str:
        return f"HeisenbergElement(endpoint={self.endpoint}, areas={dict(self.areas())!r})"

    def as_json(self) -> str:
        """The canonical JSON text:
        ``{"areas":[{"i":i,"j":j,"value":v},...],"endpoint":[...]}``."""
        areas = self._areas
        keys = sorted(areas)
        rows = _json_rows('{"i":%d,"j":%d,"value":%d}', (*zip(*keys), map(areas.__getitem__, keys)))
        return '{"areas":' + rows + ',"endpoint":' + _json_ints(self.endpoint) + "}"

    def __str__(self) -> str:
        areas = ", ".join(_rows("(%d,%d):%+d", self._areas))
        return f"endpoint={_vec_text(self.endpoint)} areas=[{areas}]"


def _add_products(entries: dict, u: Vector, w: Vector) -> None:
    """Add u_i * w_j to every area entry (i, j) with i < j."""
    for j in range(2, len(u) + 1):
        if w[j - 1]:
            for i in range(1, j):
                _accumulate(entries, (i, j), u[i - 1] * w[j - 1])


def word_is_trivial(word: Word) -> bool:
    """Whether the word's path closes up with zero signed area in every
    coordinate-plane projection."""
    return HeisenbergElement.from_word(word).is_identity()
