"""Integer chains on the grid of unit lattice edges, and word evaluation.

The grid has one vertex per integer point of Z^d and one edge per unit step
along a coordinate axis. Every edge is keyed in its positive orientation;
traversals against the orientation contribute negative multiplicity.
"""

from __future__ import annotations

from operator import add, index
from typing import Iterable, Mapping, NamedTuple

from .words import Letter, RankMismatchError, Word, WordSyntaxError

Vector = tuple[int, ...]


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise RankMismatchError(f"vector ranks differ: {len(u)} vs {len(v)}")
    return tuple(map(add, u, v))


def vec_neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def basis_vector(d: int, axis: int) -> Vector:
    return tuple(1 if index == axis - 1 else 0 for index in range(d))


class Edge(NamedTuple):
    """A grid edge in positive orientation: from ``base`` to ``base + e_axis``."""

    base: Vector
    axis: int


def _json_ints_template(n: int) -> str:
    """A ``%`` template for a JSON array of ``n`` integers: ``[%d,%d]``."""
    return "[" + ",".join(["%d"] * n) + "]"


def _json_ints(values) -> str:
    """The canonical JSON text of a sequence of integers."""
    return _json_ints_template(len(values)) % tuple(values)


def _vec_text(values) -> str:
    """The human text of a vector: ``(1, -2)``, and ``(5)`` in rank 1."""
    return "(" + ", ".join(map(str, values)) + ")"


def _accumulate(entries: dict, key, coeff: int) -> None:
    # Keeps the support exact: a zero total removes the key outright.
    if coeff == 0:
        return
    total = entries.get(key, 0) + coeff
    if total:
        entries[key] = total
    else:
        del entries[key]


class Chain:
    """Finitely supported integer coefficients on one kind of grid cell.

    Values are exact arbitrary-precision integers and zero entries are never
    stored, so equality of chains is plain map equality. Each kind names its
    cell keys through ``_key``, which checks and normalises one key.
    Coordinates, axes and coefficients are read through ``operator.index``:
    a float or a string is refused, not truncated, and a bool reads as 0/1.
    """

    __slots__ = ("d", "_entries")

    def __init__(self, d: int, items=()):
        entries: dict = {}
        key_of = self._key
        for key, coeff in items.items() if isinstance(items, Mapping) else items:
            _accumulate(entries, key_of(key, d), index(coeff))
        self.d = d
        self._entries = entries

    @classmethod
    def _of(cls, d: int, entries: dict):
        """Trusted constructor for results that are valid by construction:
        ``entries`` maps normalised rank-``d`` keys to nonzero ints, and is
        adopted without a copy or a check."""
        chain = object.__new__(cls)
        chain.d = d
        chain._entries = entries
        return chain

    def entries(self) -> list:
        """Entries sorted on their keys."""
        # Keys are unique, so sorting them alone gives the order of sorting
        # the pairs, without comparing pairs through their nested tuples.
        entries = self._entries
        return [(key, entries[key]) for key in sorted(entries)]

    def _check_rank(self, other: "Chain") -> None:
        if self.d != other.d:
            raise RankMismatchError(
                f"{type(self).__name__} ranks differ: {self.d} vs {other.d}"
            )

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_rank(other)
        entries = dict(self._entries)
        for key, coeff in other._entries.items():
            _accumulate(entries, key, coeff)
        return self._of(self.d, entries)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_rank(other)
        entries = dict(self._entries)
        for key, coeff in other._entries.items():
            _accumulate(entries, key, -coeff)
        return self._of(self.d, entries)

    def __neg__(self):
        return self._of(self.d, {key: -coeff for key, coeff in self._entries.items()})

    def __mul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        if not scalar:  # zero entries are never stored
            return self._of(self.d, {})
        return self._of(self.d, {key: scalar * coeff for key, coeff in self._entries.items()})

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.d == other.d
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.d}, {dict(self.entries())!r})"


class VertexChain(Chain):
    """Finitely supported integer weights on lattice vertices."""

    __slots__ = ()

    @staticmethod
    def _key(vertex, d: int) -> Vector:
        vertex = tuple(map(index, vertex))
        if len(vertex) != d:
            raise RankMismatchError(f"vertex {vertex} does not have rank {d}")
        return vertex

    def value(self, vertex: Vector) -> int:
        return self._entries.get(tuple(vertex), 0)

    def translate(self, v: Vector) -> "VertexChain":
        if len(v) != self.d:
            raise RankMismatchError(f"vector {v} does not have rank {self.d}")
        return VertexChain._of(
            self.d,
            {tuple(map(add, vertex, v)): coeff for vertex, coeff in self._entries.items()},
        )


class EdgeFlow(Chain):
    """Finitely supported integer multiplicities on positively oriented edges."""

    __slots__ = ()

    # perfbench/spans.py finds traced methods in vars(EdgeFlow), which holds
    # only names bound in this class body, so the inherited ones are bound here.
    __init__, __add__, __sub__, __neg__, __mul__, __rmul__ = (
        Chain.__init__, Chain.__add__, Chain.__sub__, Chain.__neg__, Chain.__mul__, Chain.__rmul__
    )

    @staticmethod
    def _key(key, d: int) -> Edge:
        base, axis = key
        edge = Edge(tuple(map(index, base)), index(axis))
        if len(edge.base) != d:
            raise RankMismatchError(f"edge base {edge.base} does not have rank {d}")
        if not 1 <= edge.axis <= d:
            raise ValueError(f"edge axis {edge.axis} out of range 1..{d}")
        return edge

    def value(self, edge: Edge | tuple[Vector, int]) -> int:
        base, axis = edge
        return self._entries.get(Edge(tuple(base), axis), 0)

    def support(self) -> list[Edge]:
        return sorted(self._entries)

    def translate(self, v: Vector) -> "EdgeFlow":
        if len(v) != self.d:
            raise RankMismatchError(f"vector {v} does not have rank {self.d}")
        return EdgeFlow._of(
            self.d,
            {
                Edge(tuple(map(add, base, v)), axis): coeff
                for (base, axis), coeff in self._entries.items()
            },
        )

    def boundary(self) -> VertexChain:
        # Unit vectors only for the axes in use: building all d of them costs d^2.
        units = {axis: basis_vector(self.d, axis) for axis in {axis for _, axis in self._entries}}
        chain: dict[Vector, int] = {}
        for (base, axis), coeff in self._entries.items():
            _accumulate(chain, tuple(map(add, base, units[axis])), coeff)
            _accumulate(chain, base, -coeff)
        return VertexChain._of(self.d, chain)

    def is_cycle(self) -> bool:
        return not self.boundary()

    def as_json(self) -> str:
        """The canonical JSON text of the sorted entries:
        ``[{"axis":a,"base":[...],"mult":m},...]``."""
        row = '{"axis":%d,"base":' + _json_ints_template(self.d) + ',"mult":%d}'
        rows = [row % (axis, *base, coeff) for (base, axis), coeff in self.entries()]
        return "[" + ",".join(rows) + "]"

    def __str__(self) -> str:
        """The human text of the sorted entries: ``[(x, y):axis:+m, ...]``."""
        rows = [f"{_vec_text(base)}:{axis}:{coeff:+d}" for (base, axis), coeff in self.entries()]
        return "[" + ", ".join(rows) + "]"


class _PathFields(NamedTuple):
    endpoint: Vector
    flow: EdgeFlow


class PathEvaluation(_PathFields):
    """Endpoint and net edge flow of the lattice path read off a word."""

    __slots__ = ()

    def __new__(cls, endpoint: Vector, flow: EdgeFlow):
        return tuple.__new__(cls, (tuple(map(index, endpoint)), flow))

    def as_json(self) -> str:
        return '{"endpoint":' + _json_ints(self.endpoint) + ',"flow":' + self.flow.as_json() + "}"


def evaluate_letters(letters: Iterable[Letter | tuple[int, int]], d: int) -> PathEvaluation:
    """Trace unit steps from the origin, one per letter.

    Each positive letter adds +1 to the edge it walks along; each negative
    letter subtracts 1 from the positively oriented key of the edge walked
    backwards. The result does not depend on free reduction of the input.
    """
    position = [0] * d
    entries: dict[Edge, int] = {}
    get = entries.get
    # Edge keys are built by tuple.__new__: the named tuple's own __new__ is
    # a Python-level call per letter.
    new = tuple.__new__
    for axis, sign in letters:
        if not 1 <= axis <= d:
            raise WordSyntaxError(f"generator index {axis} out of range 1..{d}")
        if sign == 1:
            key = new(Edge, (tuple(position), axis))
            entries[key] = get(key, 0) + 1
            position[axis - 1] += 1
        elif sign == -1:
            position[axis - 1] -= 1
            key = new(Edge, (tuple(position), axis))
            entries[key] = get(key, 0) - 1
        else:
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
    # Edges walked both ways cancel to zero; they leave the support here, once.
    if 0 in entries.values():
        entries = {key: coeff for key, coeff in entries.items() if coeff}
    # The endpoint is ints by construction: skip the public check.
    return new(PathEvaluation, (tuple(position), EdgeFlow._of(d, entries)))


def evaluate_path(word: Word) -> PathEvaluation:
    return evaluate_letters(word.letters, word.d)


def is_loop(word: Word) -> bool:
    """Whether the word's path returns to the origin (kernel of abelianization)."""
    return all(coord == 0 for coord in evaluate_path(word).endpoint)
