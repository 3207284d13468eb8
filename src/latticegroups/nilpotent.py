"""Free 2-step nilpotent evaluation: endpoint plus pairwise signed areas.

For d = 2 this is the discrete Heisenberg group. A word folds to its
endpoint together with the discrete line integrals of x_i against dx_j for
i < j; on closed words those integrals are the signed areas of the
coordinate-plane projections of the path.
"""

from __future__ import annotations

from operator import index
from typing import Mapping

from .lattice import Vector, _accumulate, _json_ints, _vec_text, vec_add, vec_neg
from .words import GroupElement, RankMismatchError, Word


class HeisenbergElement(GroupElement):
    """Element as (endpoint, strictly upper-triangular integer area matrix).

    Trusted input: ``endpoint`` is a tuple of ints and ``_areas`` maps pairs
    (i, j) with 1 <= i < j <= d to nonzero ints.
    """

    __slots__ = ("endpoint", "_areas")

    def __init__(self, endpoint: Vector, areas=()):
        endpoint = tuple(map(index, endpoint))
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
        area entry (i, j) with i < j, at the pre-step position v."""
        position = [0] * word.d
        areas: dict[tuple[int, int], int] = {}
        for axis, sign in word.letters:
            for i in range(1, axis):
                if position[i - 1]:
                    _accumulate(areas, (i, axis), position[i - 1] * sign)
            position[axis - 1] += sign
        return cls._of(tuple(position), areas)

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
        rows = ['{"i":%d,"j":%d,"value":%d}' % (i, j, value) for (i, j), value in self.areas()]
        return '{"areas":[' + ",".join(rows) + '],"endpoint":' + _json_ints(self.endpoint) + "}"

    def __str__(self) -> str:
        areas = ", ".join(f"({i},{j}):{value:+d}" for (i, j), value in self.areas())
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
