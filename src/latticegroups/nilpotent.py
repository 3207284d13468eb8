"""Free 2-step nilpotent evaluation: endpoint plus pairwise signed areas.

For d = 2 this is the discrete Heisenberg group. A word folds to its
endpoint together with the discrete line integrals of x_i against dx_j for
i < j; on closed words those integrals are the signed areas of the
coordinate-plane projections of the path.
"""

from __future__ import annotations

from .lattice import Vector, _accumulate, _json_ints, vec_add
from .words import GroupElement, RankMismatchError, Word


class HeisenbergElement(GroupElement):
    """Element as (endpoint, strictly upper-triangular integer area matrix)."""

    __slots__ = ("endpoint", "_areas")

    def __init__(self, endpoint: Vector, areas=()):
        endpoint = tuple(endpoint)
        d = len(endpoint)
        entries: dict[tuple[int, int], int] = {}
        pairs = areas.items() if isinstance(areas, dict) else areas
        for (i, j), value in pairs:
            if not 1 <= i < j <= d:
                raise ValueError(f"area index ({i}, {j}) out of range for rank {d}")
            _accumulate(entries, (i, j), int(value))
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
        return cls(tuple(position), areas)

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
        for j in range(2, self.d + 1):
            if other.endpoint[j - 1]:
                for i in range(1, j):
                    _accumulate(entries, (i, j), self.endpoint[i - 1] * other.endpoint[j - 1])
        return HeisenbergElement(vec_add(self.endpoint, other.endpoint), entries)

    def inverse(self) -> "HeisenbergElement":
        v = self.endpoint
        entries: dict[tuple[int, int], int] = {}
        for (i, j), value in self._areas.items():
            _accumulate(entries, (i, j), -value)
        for j in range(2, self.d + 1):
            if v[j - 1]:
                for i in range(1, j):
                    _accumulate(entries, (i, j), v[i - 1] * v[j - 1])
        return HeisenbergElement(tuple(-c for c in v), entries)

    def is_identity(self) -> bool:
        return not self._areas and all(coord == 0 for coord in self.endpoint)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HeisenbergElement)
            and self.endpoint == other.endpoint
            and self._areas == other._areas
        )

    def __repr__(self) -> str:
        return f"HeisenbergElement(endpoint={self.endpoint}, areas={dict(self.areas())!r})"

    def as_json(self) -> str:
        """The canonical JSON text:
        ``{"areas":[{"i":i,"j":j,"value":v},...],"endpoint":[...]}``."""
        rows = ['{"i":%d,"j":%d,"value":%d}' % (i, j, value) for (i, j), value in self.areas()]
        return '{"areas":[' + ",".join(rows) + '],"endpoint":' + _json_ints(self.endpoint) + "}"


def word_is_trivial(word: Word) -> bool:
    """Whether the word's path closes up with zero signed area in every
    coordinate-plane projection."""
    return HeisenbergElement.from_word(word).is_identity()
