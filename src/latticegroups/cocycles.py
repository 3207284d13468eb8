"""Cycle-valued 2-cocycles on Z^d from the monomial section.

The monomial section lifts a lattice vector to the straight word that walks
axis 1 first, then axis 2, and so on. Its failure to be multiplicative is a
cycle-valued 2-cocycle; for d = 2 the algebraic area of the commutator
defect of the induced extension is an integer that is invariant under
coboundary perturbation and classifies such cocycles completely.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Mapping

from .homology import algebraic_area
from .lattice import EdgeFlow, Vector, _accumulate, _vector, vec_add
from .words import Letter, RankMismatchError, Word


def monomial_word(vec: Vector) -> Word:
    """The straight word x1^{v1} x2^{v2} ... xd^{vd} reaching ``vec``."""
    vec = _vector(vec)
    letters: list[Letter] = []
    for axis, coord in enumerate(vec, start=1):
        sign = 1 if coord > 0 else -1
        letters.extend(Letter(axis, sign) for _ in range(abs(coord)))
    return Word(letters, len(vec))


def monomial_flow(vec: Vector) -> EdgeFlow:
    """Flow of :func:`monomial_word`, emitted as its axis-parallel runs.

    The run along axis i starts at (v1, ..., v_{i-1}, 0, ..., 0) and covers
    the edges with i-th base coordinate in [min(0, vi), max(0, vi)), each
    with multiplicity sign(vi). The path never revisits an edge, so every
    multiplicity is +-1.
    """
    return _monomial_flow(_vector(vec))


def _monomial_flow(vec: Vector) -> EdgeFlow:
    """:func:`monomial_flow` of a vector already read."""
    d = len(vec)
    if d < 1:
        raise ValueError(f"rank must be positive, got {d}")
    entries: dict[tuple[int, ...], int] = {}
    for index, coord in enumerate(vec):
        prefix = vec[:index]
        suffix = (0,) * (d - index - 1) + (index + 1,)
        sign = 1 if coord > 0 else -1
        for t in range(min(coord, 0), max(coord, 0)):
            entries[prefix + (t,) + suffix] = sign
    return EdgeFlow._of(d, entries)


def canonical_cocycle(g1: Vector, g2: Vector) -> EdgeFlow:
    """Cycle of the loop: monomial path to g1, shifted monomial path onward
    to g1+g2, then the monomial path from g1+g2 reversed.

    That is ``m(g1) + T_{g1} m(g2) - m(g1 + g2)`` with ``m`` the
    :func:`monomial_flow`, emitted in closed form as a sum of rectangle
    boundaries. The first two paths walk the runs g1_1 ... g1_d g2_1 ...
    g2_d; bubble-sorting each run g2_i leftward past g1_d, ..., g1_{i+1}
    turns them into the runs of m(g1 + g2). The swap of g2_i with g1_j
    (i < j) changes the path by the boundary of one rectangle in the
    (i, j) plane, with coefficient ``-sign(g2_i) * sign(g1_j)``. It spans
    [g1_i, g1_i + g2_i) along axis i and [0, g1_j) along axis j, and its
    other coordinates are where the swap happens: g1_t + g2_t for t < i,
    g1_t for i < t < j, and 0 for t > j. Each rectangle's boundary is
    emitted as four runs of unit edges.
    """
    g1, g2 = _vector(g1), _vector(g2)
    if len(g1) != len(g2):
        raise RankMismatchError(f"vector ranks differ: {len(g1)} vs {len(g2)}")
    return _canonical_cocycle(g1, g2)


def _canonical_cocycle(g1: Vector, g2: Vector) -> EdgeFlow:
    """:func:`canonical_cocycle` of two vectors already read at one rank."""
    d = len(g1)
    if d < 1:
        raise ValueError(f"rank must be positive, got {d}")
    entries: dict[tuple[int, ...], int] = {}
    for i in range(d):
        if not g2[i]:
            continue
        lo_i, hi_i = sorted((g1[i], g1[i] + g2[i]))
        for j in range(i + 1, d):
            if not g1[j]:
                continue
            lo_j, hi_j = sorted((0, g1[j]))
            sign = -1 if (g2[i] > 0) == (g1[j] > 0) else 1
            corner = [a + b for a, b in zip(g1[:i], g2[:i])] + list(g1[i:j]) + [0] * (d - j)
            corner[j] = lo_j
            _run(entries, corner, i, lo_i, hi_i, sign)
            corner[j] = hi_j
            _run(entries, corner, i, lo_i, hi_i, -sign)
            corner[i] = hi_i
            _run(entries, corner, j, lo_j, hi_j, sign)
            corner[i] = lo_i
            _run(entries, corner, j, lo_j, hi_j, -sign)
    return EdgeFlow._of(d, entries, True)


def _rectangle_edges(g1: Vector, g2: Vector) -> int:
    """The unit edges :func:`canonical_cocycle` emits before any cancel, for
    vectors of one rank: 2(|g2_i| + |g1_j|) for each rectangle, that is each
    i < j with g2_i and g1_j nonzero. One pass keeps the count and the
    summed length of the nonzero g2_i met so far."""
    edges = count = length = 0
    for a, b in zip(g1, g2):
        if a:
            edges += 2 * (abs(a) * count + length)
        if b:
            count += 1
            length += abs(b)
    return edges


def _run(entries: dict, corner: list[int], index: int, lo: int, hi: int, sign: int) -> None:
    """Add ``sign`` on the edges along axis ``index + 1`` whose coordinate
    ``index`` lies in [lo, hi), the other coordinates taken from ``corner``."""
    head, tail = tuple(corner[:index]), (*corner[index + 1:], index + 1)
    for t in range(lo, hi):
        _accumulate(entries, head + (t,) + tail, sign)


def coboundary(shifts: Mapping[Vector, EdgeFlow], g1: Vector, g2: Vector) -> EdgeFlow:
    """u(g1) + (u(g2) shifted by g1) - u(g1+g2), for finitely supported cycle-valued u."""
    g1 = _vector(g1)
    return _coboundary(shifts, g1, _vector(g2, len(g1)))


def _coboundary(shifts: Mapping[Vector, EdgeFlow], g1: Vector, g2: Vector) -> EdgeFlow:
    """:func:`coboundary` at two vectors already read at one rank."""
    d = len(g1)

    def lookup(vec: Vector) -> EdgeFlow:
        flow = shifts.get(vec)
        if flow is None:
            return EdgeFlow._of(d, {}, True)
        if not flow.is_cycle():
            raise ValueError(f"coboundary value at {vec} is not a cycle")
        return flow

    return lookup(g1) + lookup(g2)._translated(g1) - lookup(vec_add(g1, g2))


class Cocycle:
    """k times the canonical cocycle plus the coboundary of a cycle assignment; callable.

    Every cocycle the package builds has this form, and the index of
    :func:`cocycle_index` classifies them by k. ``shifts`` maps lattice
    vectors to cycles, as a mapping or as (vector, cycle) pairs. This is
    the one place shifts are checked: each pair must have rank d, its value
    must be a cycle, and a nonzero value may not sit at the origin, so that
    the rule stays normalized (zero whenever either argument is zero). The
    values of a repeated vector are summed and zero sums are dropped. Level
    0 with no shifts is the split case.
    """

    def __init__(self, d: int, k: int = 1, shifts: Mapping[Vector, EdgeFlow] | Iterable = ()):
        summed: dict[Vector, EdgeFlow] = {}
        origin = (0,) * d
        for vec, flow in shifts.items() if isinstance(shifts, Mapping) else shifts:
            vec = _vector(vec, d, "shift vector")
            if flow.d != d:
                raise RankMismatchError(f"shift value at {vec} does not have rank {d}")
            if not flow.is_cycle():
                raise ValueError(f"shift value at {vec} is not a cycle")
            if flow and vec == origin:
                raise ValueError("a nonzero shift at the origin breaks normalization")
            summed[vec] = summed[vec] + flow if vec in summed else flow
        self.d = d
        self.k = index(k)
        self.shifts = {vec: flow for vec, flow in summed.items() if flow}

    def value(self, g1: Vector, g2: Vector) -> EdgeFlow:
        g1, g2 = _vector(g1), _vector(g2)
        if not len(g1) == len(g2) == self.d:
            raise RankMismatchError(f"vector ranks {len(g1)}, {len(g2)} do not match cocycle rank {self.d}")
        return self._value(g1, g2)

    def _value(self, g1: Vector, g2: Vector) -> EdgeFlow:
        """:meth:`value` at two vectors already read at the cocycle's rank."""
        flow = _canonical_cocycle(g1, g2) * self.k
        if self.shifts:
            flow = flow + _coboundary(self.shifts, g1, g2)
        return flow

    def __call__(self, g1: Vector, g2: Vector) -> EdgeFlow:
        return self.value(g1, g2)


CanonicalCocycle = ScaledCocycle = Cocycle


def PerturbedCocycle(base: Cocycle, shifts: Mapping[Vector, EdgeFlow]) -> Cocycle:
    """``base`` plus the coboundary of ``shifts``.

    The coboundary is linear in the assignment, so this is the cocycle of
    ``base``'s level whose shifts are ``base.shifts`` and ``shifts``,
    summed per vector.
    """
    return Cocycle(base.d, base.k, [*base.shifts.items(), *shifts.items()])


def check_cocycle_identity(table: Cocycle, g1: Vector, g2: Vector, g3: Vector) -> bool:
    """Whether the alternating four-term sum of table values vanishes at (g1, g2, g3)."""
    g1, g2, g3 = (_vector(g, table.d) for g in (g1, g2, g3))
    # A subclass's own value is called as it is; Cocycle's reads no vector again.
    value = table._value if type(table).value is Cocycle.value else table.value
    total = (
        value(g1, g2)
        + value(vec_add(g1, g2), g3)
        - value(g1, vec_add(g2, g3))
        - value(g2, g3)._translated(g1)
    )
    return not total


def commutator_defect(table: Cocycle) -> EdgeFlow:
    """Cycle part of the commutator of the generator lifts x~ = ((1,0), 0), y~ = ((0,1), 0).

    Only defined for d = 2, where the defect pins down the extension: the
    lifts commute exactly when it vanishes.

    In the extension twisted by a cocycle c the product is
    (v, h)(v', h') = (v + v', h + (h' shifted by v) + c(v, v')), so
    x~y~ = (x + y, c(x, y)) and y~x~ = (x + y, c(y, x)). Two elements over
    the same vector v satisfy (v, h)(v, h')^-1 = (0, h - h'), hence
    [x~, y~] = (x~y~)(y~x~)^-1 = (0, c(x, y) - c(y, x)).
    """
    if table.d != 2:
        raise ValueError(f"commutator defect needs rank 2, got {table.d}")
    return table((1, 0), (0, 1)) - table((0, 1), (1, 0))


def cocycle_index(table: Cocycle) -> int:
    """Algebraic area of the commutator defect.

    This integer is invariant under coboundary perturbation and separates
    the extension classes of planar cycles by Z^2: the monomial-section
    cocycle has index 1 and its k-th multiple has index k.
    """
    return algebraic_area(commutator_defect(table))
