"""Plaquette coordinates for grid cycles: decomposition, area, cube relations.

A plaquette is the oriented boundary of a unit square in a coordinate plane.
Plaquettes span all cycles of the grid; for d = 2 they do so freely, so a
planar cycle has unique plaquette coefficients and a well-defined total,
its algebraic area.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice import Chain, Edge, EdgeFlow, Vector, _accumulate, basis_vector, vec_add
from .words import RankMismatchError


class NotACycleError(ValueError):
    """A flow with nonzero boundary was passed where a cycle is required."""


class _PlaquetteFields(NamedTuple):
    base: Vector
    i: int
    j: int


class Plaquette(_PlaquetteFields):
    """Unit square at ``base`` in the (i, j) coordinate plane, 1 <= i < j <= d."""

    __slots__ = ()

    def __new__(cls, base: Vector, i: int, j: int):
        if not 1 <= i < j <= len(base):
            raise ValueError(f"bad plaquette axes ({i}, {j}) for rank {len(base)}")
        return super().__new__(cls, base, i, j)

    @property
    def d(self) -> int:
        return len(self.base)


def plaquette_boundary(p: Plaquette) -> EdgeFlow:
    """Oriented boundary of ``p``.

    The orientation is anchored so that this equals the flow of the
    commutator loop x_i x_j x_i^-1 x_j^-1 based at ``p.base``; every other
    sign convention in the package hangs off this choice.
    """
    return EdgeFlow(p.d, _boundary_edges(p))


def _boundary_edges(p: Plaquette) -> tuple[tuple[Edge, int], ...]:
    """The four signed edges of :func:`plaquette_boundary`."""
    ei = basis_vector(p.d, p.i)
    ej = basis_vector(p.d, p.j)
    return (
        (Edge(p.base, p.i), 1),
        (Edge(vec_add(p.base, ei), p.j), 1),
        (Edge(vec_add(p.base, ej), p.i), -1),
        (Edge(p.base, p.j), -1),
    )


class PlaquetteSum(Chain):
    """Finitely supported integer combination of plaquettes."""

    __slots__ = ()

    @staticmethod
    def _key(key, d: int) -> Plaquette:
        base, i, j = key
        plaquette = Plaquette(tuple(base), int(i), int(j))
        if plaquette.d != d:
            raise RankMismatchError(f"plaquette {plaquette} does not have rank {d}")
        return plaquette

    def coefficient(self, plaquette: Plaquette) -> int:
        return self._entries.get(plaquette, 0)

    def total(self) -> int:
        return sum(self._entries.values())

    def boundary_flow(self) -> EdgeFlow:
        """The edge flow spanned by the combination, in one pass over its plaquettes."""
        entries: dict[Edge, int] = {}
        for plaquette, coeff in self._entries.items():
            for edge, sign in _boundary_edges(plaquette):
                _accumulate(entries, edge, sign * coeff)
        return EdgeFlow._of(self.d, entries)

    def as_json(self) -> list[dict]:
        return [
            {"base": list(p.base), "i": p.i, "j": p.j, "mult": coeff}
            for p, coeff in self.entries()
        ]


def decompose_cycle(flow: EdgeFlow) -> PlaquetteSum:
    """A plaquette combination spanning a cycle.

    For d = 2 the decomposition is unique and has a closed form: the
    coefficient of the plaquette at (a, b) is the column prefix sum
    ``c(a, b) = sum over b' <= b of f((a, b'), 1)`` of the horizontal edges.
    Each column's sum is the net flux across a vertical line, which is zero
    for a cycle, so the prefix sums vanish below and above the support. For
    d >= 3 a greedy peel (:func:`_peel`) gives one valid decomposition.
    """
    if not flow.is_cycle():
        raise NotACycleError("flow has nonzero boundary")
    if flow.d != 2:
        return _peel(flow)
    columns: dict[int, list[tuple[int, int]]] = {}
    for ((a, b), axis), coeff in flow.entries():
        if axis == 1:
            columns.setdefault(a, []).append((b, coeff))
    coeffs: dict[Plaquette, int] = {}
    for a, runs in columns.items():
        running = 0
        for (b, coeff), (b_next, _) in zip(runs, runs[1:]):
            running += coeff
            if running:
                for row in range(b, b_next):
                    coeffs[Plaquette((a, row), 1, 2)] = running
    return PlaquetteSum._of(2, coeffs)


def _peel(flow: EdgeFlow) -> PlaquetteSum:
    """Peel a cycle into a plaquette combination spanning it.

    Repeatedly cancel the lexicographically least supported edge against the
    plaquette spanned by that edge's axis and the least other axis carried at
    the same base vertex. Zero boundary at the least vertex guarantees such a
    partner axis exists, every plaquette used stays inside the bounding box
    of the support, and the least edge strictly increases, so the sweep
    terminates. For d = 2 the choice of plaquette is forced and the result
    is the unique decomposition; for d >= 3 it is one valid decomposition.
    The caller checks that ``flow`` is a cycle.
    """
    d = flow.d
    work = dict(flow.entries())
    coeffs: dict[Plaquette, int] = {}
    while work:
        base, axis = min(work)
        mult = work[Edge(base, axis)]
        partner = next(
            (j for j in range(axis + 1, d + 1) if Edge(base, j) in work), None
        )
        assert partner is not None, "cycle support must close at its least vertex"
        plaquette = Plaquette(base, axis, partner)
        _accumulate(coeffs, plaquette, mult)
        for edge, sign in plaquette_boundary(plaquette).entries():
            _accumulate(work, edge, -mult * sign)
    return PlaquetteSum._of(d, coeffs)


def decompose_cycle_2d(flow: EdgeFlow) -> PlaquetteSum:
    """Unique plaquette coefficients of a planar cycle."""
    _check_planar(flow)
    return decompose_cycle(flow)


def algebraic_area(flow: EdgeFlow) -> int:
    """Sum of the plaquette coefficients of a planar cycle.

    Computed without decomposing, as the line integral
    ``-sum of b * f((a, b), 1)`` over the horizontal edges: summing the
    column prefix sums of :func:`decompose_cycle` over b gives exactly this.
    """
    _check_planar(flow)
    if not flow.is_cycle():
        raise NotACycleError("flow has nonzero boundary")
    return -sum(base[1] * coeff for (base, axis), coeff in flow.entries() if axis == 1)


def _check_planar(flow: EdgeFlow) -> None:
    if flow.d != 2:
        raise ValueError(f"planar decomposition needs rank 2, got {flow.d}")


def cube_relation(base: Vector, i: int, j: int, k: int) -> PlaquetteSum:
    """The six-face plaquette combination around a unit 3-cube that spans zero.

    Signs are fixed by the requirement that the boundary flows of the six
    faces cancel edge by edge under this package's plaquette orientation.
    """
    d = len(base)
    if d < 3:
        raise ValueError(f"cube relation needs rank >= 3, got {d}")
    if not 1 <= i < j < k <= d:
        raise ValueError(f"axes must satisfy 1 <= i < j < k <= {d}, got ({i}, {j}, {k})")
    base = tuple(base)
    ei = basis_vector(d, i)
    ej = basis_vector(d, j)
    ek = basis_vector(d, k)
    return PlaquetteSum(
        d,
        [
            (Plaquette(base, i, j), 1),
            (Plaquette(vec_add(base, ek), i, j), -1),
            (Plaquette(base, i, k), -1),
            (Plaquette(vec_add(base, ej), i, k), 1),
            (Plaquette(base, j, k), 1),
            (Plaquette(vec_add(base, ei), j, k), -1),
        ],
    )


def project_flow(flow: EdgeFlow, i: int, j: int) -> EdgeFlow:
    """Project onto the (i, j) coordinate plane as a rank-2 flow.

    Edges along other axes are dropped; surviving edges are re-keyed by their
    (i, j) coordinates, with axis i becoming 1 and axis j becoming 2, and
    colliding keys are summed.
    """
    if not 1 <= i < j <= flow.d:
        raise ValueError(f"axes must satisfy 1 <= i < j <= {flow.d}, got ({i}, {j})")
    pairs = []
    for (base, axis), coeff in flow.entries():
        if axis == i:
            pairs.append((Edge((base[i - 1], base[j - 1]), 1), coeff))
        elif axis == j:
            pairs.append((Edge((base[i - 1], base[j - 1]), 2), coeff))
    return EdgeFlow(2, pairs)


def plaquette_sum_from_json(obj, d: int) -> PlaquetteSum:
    """Decode the JSON array form: [{"base": [...], "i": i, "j": j, "mult": k}, ...]."""
    pairs = []
    for item in obj:
        pairs.append(
            (Plaquette(tuple(item["base"]), int(item["i"]), int(item["j"])), int(item["mult"]))
        )
    return PlaquetteSum(d, pairs)
