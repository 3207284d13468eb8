"""Plaquette coordinates for grid cycles: decomposition, area, cube relations.

A plaquette is the oriented boundary of a unit square in a coordinate plane.
Plaquettes span all cycles of the grid; for d = 2 they do so freely, so a
planar cycle has unique plaquette coefficients and a well-defined total,
its algebraic area. A plaquette sum stores each key flat, as ``(*base, i,
j)``; :class:`Plaquette` is only the view that ``entries()`` returns.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from . import words
from .lattice import (
    Chain,
    EdgeFlow,
    Vector,
    _accumulate,
    _json_ints_template,
    _json_rows,
    _rows,
    _vec_text,
    _vector,
    basis_vector,
    vec_add,
)
from .words import InputTooLargeError, RankMismatchError, _new


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
        base, i, j = _vector(base), index(i), index(j)
        if not 1 <= i < j <= len(base):
            raise ValueError(f"bad plaquette axes ({i}, {j}) for rank {len(base)}")
        return tuple.__new__(cls, (base, i, j))

    @property
    def d(self) -> int:
        return len(self.base)


def plaquette_boundary(p: Plaquette) -> EdgeFlow:
    """Oriented boundary of ``p``.

    The orientation is anchored so that this equals the flow of the
    commutator loop x_i x_j x_i^-1 x_j^-1 based at ``p.base``; every other
    sign convention in the package hangs off this choice.
    """
    # Four distinct edges with nonzero signs: valid by construction.
    return EdgeFlow._of(p.d, dict(_boundary_edges((*p.base, p.i, p.j))), True)


def _boundary_edges(key: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The four signed flat edge keys of :func:`plaquette_boundary`, for the
    flat plaquette key ``(*base, i, j)``. The two shifted bases are sliced
    out of the key, so no vector is built to add."""
    base, i, j = key[:-2], key[-2], key[-1]
    return (
        ((*base, i), 1),
        ((*base[: i - 1], base[i - 1] + 1, *base[i:], j), 1),
        ((*base[: j - 1], base[j - 1] + 1, *base[j:], i), -1),
        ((*base, j), -1),
    )


class PlaquetteSum(Chain):
    """Finitely supported integer combination of plaquettes."""

    __slots__ = ()

    @staticmethod
    def _key(key, d: int) -> tuple[int, ...]:
        base, i, j = key
        plaquette = Plaquette(base, i, j)
        if plaquette.d != d:
            raise RankMismatchError(f"plaquette {plaquette} does not have rank {d}")
        return (*plaquette.base, plaquette.i, plaquette.j)

    @staticmethod
    def _view(key) -> Plaquette:
        return _new(Plaquette, (key[:-2], key[-2], key[-1]))

    coefficient = Chain.value

    def total(self) -> int:
        return sum(self._entries.values())

    def boundary_flow(self) -> EdgeFlow:
        """The edge flow spanned by the combination, in one pass over its plaquettes."""
        entries: dict[tuple[int, ...], int] = {}
        for plaquette, coeff in self._entries.items():
            for edge, sign in _boundary_edges(plaquette):
                _accumulate(entries, edge, sign * coeff)
        return EdgeFlow._of(self.d, entries, True)

    def as_json(self) -> str:
        """The canonical JSON text of the sorted entries:
        ``[{"base":[...],"i":i,"j":j,"mult":m},...]``."""
        entries = self._entries
        keys = sorted(entries)
        row = '{"base":' + _json_ints_template(self.d) + ',"i":%d,"j":%d,"mult":%d}'
        return _json_rows(row, (*zip(*keys), map(entries.__getitem__, keys)), len(keys))

    def __str__(self) -> str:
        """The human text of the sorted entries: ``[(x, y):(i,j):+m, ...]``."""
        return "[" + ", ".join(_rows(_vec_text(["%d"] * self.d) + ":(%d,%d):%+d", self._entries)) + "]"


def decompose_cycle(flow: EdgeFlow) -> PlaquetteSum:
    """A plaquette combination spanning a cycle.

    For d = 2 the decomposition is unique and has a closed form: the
    coefficient of the plaquette at (a, b) is the column prefix sum
    ``c(a, b) = sum over b' <= b of f((a, b'), 1)`` of the horizontal edges.
    Each column's sum is the net flux across a vertical line, which is zero
    for a cycle, so the prefix sums vanish below and above the support. For
    d >= 3 a greedy peel (:func:`_peel`) gives one valid decomposition.

    The output is area-sized, not text-sized, so a decomposition with more
    than MAX_LETTERS nonzero plaquettes is refused with InputTooLargeError.
    In d = 2 the runs are counted before any plaquette is built; for d >= 3
    a lower bound on the count (:func:`_least_plaquettes`) is checked
    before the peel.
    """
    if not flow.is_cycle():
        raise NotACycleError("flow has nonzero boundary")
    if flow.d != 2:
        if _least_plaquettes(flow) > words.MAX_LETTERS:
            raise _too_many_plaquettes()
        return _peel(flow)
    runs = list(_column_runs(flow))
    if sum(high - low for _, low, high, _ in runs) > words.MAX_LETTERS:
        raise _too_many_plaquettes()
    return PlaquetteSum._of(
        2, {(a, row, 1, 2): running for a, low, high, running in runs for row in range(low, high)}
    )


def _too_many_plaquettes() -> InputTooLargeError:
    return InputTooLargeError(f"decomposition has more than {words.MAX_LETTERS} plaquettes")


def _column_runs(flow: EdgeFlow):
    """The nonzero column prefix sums of a planar cycle, as runs.

    Yields ``(a, low, high, c)``: the plaquettes at (a, b) for low <= b <
    high all have coefficient c in :func:`decompose_cycle`. Each column's
    sum is constant between consecutive horizontal edges, so the runs cost
    the flow's support, not the area they cover.
    """
    columns: dict[int, list[tuple[int, int]]] = {}
    # Axis-1 keys differ in (a, b), so the triples sort on (a, b) alone.
    horizontal = [(a, b, coeff) for (a, b, axis), coeff in flow._entries.items() if axis == 1]
    for a, b, coeff in sorted(horizontal):
        columns.setdefault(a, []).append((b, coeff))
    for a, runs in columns.items():
        running = 0
        for (b, coeff), (b_next, _) in zip(runs, runs[1:]):
            running += coeff
            if running:
                yield a, b, b_next, running


def _least_plaquettes(flow: EdgeFlow) -> int:
    """At most the count of nonzero plaquettes in any decomposition of a
    cycle: the sum, over the planes (i, j) of two axes the flow carries, of
    the count in the unique decomposition of its projection onto (i, j).

    Projection commutes with the boundary. A plaquette of the (i, j) plane
    projects onto one plaquette of that plane and onto zero in every other
    plane, so each plane's count is at most the decomposition's count of
    (i, j) plaquettes (plaquettes that land on the same square merge). Each
    plane reads the whole support, so this costs the support times the
    number of planes of carried axes.
    """
    axes = {key[-1] for key in flow._entries}
    return sum(
        high - low
        for i in axes
        for j in axes
        if i < j
        for _, low, high, _ in _column_runs(project_flow(flow, i, j))
    )


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

    Each least edge is peeled once, so each plaquette is added once and the
    count of nonzero ones only grows: the peel stops as soon as it passes
    MAX_LETTERS.
    """
    # Imported here, not at module level: only d >= 3 decomposition peels,
    # so no other CLI launch pays for loading it.
    import heapq

    d = flow.d
    limit = words.MAX_LETTERS
    work = dict(flow._entries)
    # The least supported edge is the least live heap entry. An entry goes
    # stale when its edge cancels out of ``work``; it is skipped when popped.
    heap = list(work)
    heapq.heapify(heap)
    coeffs: dict[tuple[int, ...], int] = {}
    while heap:
        least = heapq.heappop(heap)
        mult = work.get(least)
        if mult is None:
            continue
        base, axis = least[:-1], least[-1]
        partner = next(
            (j for j in range(axis + 1, d + 1) if (*base, j) in work), None
        )
        assert partner is not None, "cycle support must close at its least vertex"
        plaquette = (*base, axis, partner)
        _accumulate(coeffs, plaquette, mult)
        if len(coeffs) > limit:
            raise _too_many_plaquettes()
        for edge, sign in _boundary_edges(plaquette):
            if edge not in work:
                heapq.heappush(heap, edge)
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
    return -sum(b * coeff for (a, b, axis), coeff in flow._entries.items() if axis == 1)


def _check_planar(flow: EdgeFlow) -> None:
    if flow.d != 2:
        raise ValueError(f"needs a planar flow of rank 2, got rank {flow.d}")


def cube_relation(base: Vector, i: int, j: int, k: int) -> PlaquetteSum:
    """The six-face plaquette combination around a unit 3-cube that spans zero.

    Signs are fixed by the requirement that the boundary flows of the six
    faces cancel edge by edge under this package's plaquette orientation.
    """
    base, i, j, k = _vector(base), index(i), index(j), index(k)
    d = len(base)
    if d < 3:
        raise ValueError(f"cube relation needs rank >= 3, got {d}")
    if not 1 <= i < j < k <= d:
        raise ValueError(f"axes must satisfy 1 <= i < j < k <= {d}, got ({i}, {j}, {k})")
    ei, ej, ek = (basis_vector(d, axis) for axis in (i, j, k))
    # Six distinct faces with nonzero coefficients: valid by construction.
    return PlaquetteSum._of(
        d,
        {
            (*base, i, j): 1,
            (*vec_add(base, ek), i, j): -1,
            (*base, i, k): -1,
            (*vec_add(base, ej), i, k): 1,
            (*base, j, k): 1,
            (*vec_add(base, ei), j, k): -1,
        },
    )


def project_flow(flow: EdgeFlow, i: int, j: int) -> EdgeFlow:
    """Project onto the (i, j) coordinate plane as a rank-2 flow.

    Edges along other axes are dropped; surviving edges are re-keyed by their
    (i, j) coordinates, with axis i becoming 1 and axis j becoming 2, and
    colliding keys are summed.
    """
    if not 1 <= i < j <= flow.d:
        raise ValueError(f"axes must satisfy 1 <= i < j <= {flow.d}, got ({i}, {j})")
    entries: dict[tuple[int, int, int], int] = {}
    for key, coeff in flow._entries.items():
        axis = key[-1]
        if axis == i or axis == j:
            _accumulate(entries, (key[i - 1], key[j - 1], 1 if axis == i else 2), coeff)
    # Projection commutes with the boundary: a cycle projects onto a cycle.
    return EdgeFlow._of(2, entries, flow._closed)


def plaquette_sum_from_json(obj, d: int) -> PlaquetteSum:
    """Decode the JSON array form: [{"base": [...], "i": i, "j": j, "mult": k}, ...]."""
    return PlaquetteSum(
        d, [((item["base"], item["i"], item["j"]), item["mult"]) for item in obj]
    )
