import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from latticegroups import (
    Edge,
    EdgeFlow,
    HeisenbergElement,
    InputTooLargeError,
    NotACycleError,
    Plaquette,
    PlaquetteSum,
    algebraic_area,
    cube_relation,
    decompose_cycle,
    decompose_cycle_2d,
    evaluate_letters,
    evaluate_path,
    plaquette_boundary,
    plaquette_sum_from_json,
    project_flow,
)
from latticegroups import words
from latticegroups.homology import _least_plaquettes, _peel
from latticegroups.lattice import _accumulate
from helpers import flow_of, random_loop_flow, random_loop_word, random_word, shuffled_copy, w


def area_by_line_integral(flow):
    """Independent area oracle: the discrete integral of x1 against dx2."""
    return sum(coeff * base[0] for (base, axis), coeff in flow.entries() if axis == 2)


def scan_peel(flow):
    """The greedy peel as first written: a full ``min`` scan of the remaining
    support per step. Reference for the heap-driven :func:`_peel`."""
    d = flow.d
    work = dict(flow.entries())
    coeffs = {}
    while work:
        base, axis = min(work)
        mult = work[Edge(base, axis)]
        partner = next(j for j in range(axis + 1, d + 1) if Edge(base, j) in work)
        plaquette = Plaquette(base, axis, partner)
        _accumulate(coeffs, plaquette, mult)
        for edge, sign in plaquette_boundary(plaquette).entries():
            _accumulate(work, edge, -mult * sign)
    return PlaquetteSum(d, coeffs)


def planar_loops():
    """Seeded random d = 2 loops of up to 200 letters, and [x1^a, x2^b] for
    a, b up to 70 in size."""
    rng = random.Random(59)
    loops = [random_loop_word(rng, 2, 100) for _ in range(60)]
    sizes = (1, -4, 29, 70)
    loops += [w(f"x1^{a} x2^{b} x1^{-a} x2^{-b}") for a in sizes for b in (1, 13, -50, 70)]
    return loops


class TestPlaquette:
    def test_boundary_matches_commutator_word(self):
        assert plaquette_boundary(Plaquette((0, 0), 1, 2)) == flow_of("x1 x2 x1^-1 x2^-1")

    def test_boundary_translated(self):
        assert plaquette_boundary(Plaquette((5, -3), 1, 2)) == flow_of(
            "x1 x2 x1^-1 x2^-1"
        ).translate((5, -3))

    def test_boundary_is_closed(self):
        rng = random.Random(3)
        for _ in range(25):
            d = rng.randint(2, 4)
            i = rng.randint(1, d - 1)
            j = rng.randint(i + 1, d)
            base = tuple(rng.randint(-5, 5) for _ in range(d))
            assert plaquette_boundary(Plaquette(base, i, j)).is_cycle()

    def test_validation(self):
        with pytest.raises(ValueError):
            Plaquette((0, 0), 2, 1)
        with pytest.raises(ValueError):
            Plaquette((0, 0), 1, 3)
        with pytest.raises(ValueError):
            Plaquette((0, 0, 0), 0, 2)


class TestDecompose2d:
    def test_commutator(self):
        ps = decompose_cycle_2d(flow_of("x1 x2 x1^-1 x2^-1"))
        assert ps == PlaquetteSum(2, {Plaquette((0, 0), 1, 2): 1})

    def test_empty(self):
        assert not decompose_cycle_2d(EdgeFlow(2))

    def test_two_plaquettes(self):
        ps = decompose_cycle_2d(flow_of("x1^2 x2 x1^-2 x2^-1"))
        assert ps == PlaquetteSum(
            2, {Plaquette((0, 0), 1, 2): 1, Plaquette((1, 0), 1, 2): 1}
        )

    def test_not_a_cycle(self):
        with pytest.raises(NotACycleError):
            decompose_cycle_2d(flow_of("x1"))

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            decompose_cycle_2d(EdgeFlow(3))

    def test_reconstruction_random(self):
        rng = random.Random(17)
        for _ in range(120):
            flow = random_loop_flow(rng, 2, 10)
            assert decompose_cycle_2d(flow).boundary_flow() == flow

    def test_unique_under_input_reordering(self):
        rng = random.Random(23)
        for _ in range(60):
            flow = random_loop_flow(rng, 2, 10)
            assert decompose_cycle_2d(shuffled_copy(flow, rng)) == decompose_cycle_2d(flow)

    def test_prefix_sums_match_peel(self):
        for word in planar_loops():
            flow = evaluate_path(word).flow
            ps = decompose_cycle_2d(flow)
            assert ps == _peel(flow)
            assert ps.boundary_flow() == flow

    def test_linearity(self):
        rng = random.Random(29)
        for _ in range(40):
            f = random_loop_flow(rng, 2, 8)
            g = random_loop_flow(rng, 2, 8)
            assert decompose_cycle_2d(f + g) == decompose_cycle_2d(f) + decompose_cycle_2d(g)


class TestArea:
    def test_examples(self):
        assert algebraic_area(flow_of("x1 x2 x1^-1 x2^-1")) == 1
        assert algebraic_area(EdgeFlow(2)) == 0
        assert algebraic_area(flow_of("x2 x1 x2^-1 x1^-1")) == -1

    def test_translation_invariant(self):
        rng = random.Random(31)
        for _ in range(40):
            flow = random_loop_flow(rng, 2, 8)
            shift = (rng.randint(-6, 6), rng.randint(-6, 6))
            assert algebraic_area(flow.translate(shift)) == algebraic_area(flow)

    def test_homomorphism(self):
        rng = random.Random(37)
        for _ in range(40):
            f = random_loop_flow(rng, 2, 8)
            g = random_loop_flow(rng, 2, 8)
            assert algebraic_area(f + g) == algebraic_area(f) + algebraic_area(g)

    def test_against_line_integral_oracle(self):
        rng = random.Random(41)
        for _ in range(120):
            flow = random_loop_flow(rng, 2, 10)
            assert algebraic_area(flow) == area_by_line_integral(flow)

    def test_closed_form_matches_every_oracle(self):
        for word in planar_loops():
            flow = evaluate_path(word).flow
            area = algebraic_area(flow)
            assert area == area_by_line_integral(flow)
            assert area == decompose_cycle_2d(flow).total()
            assert area == HeisenbergElement.from_word(word).area(1, 2)

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            algebraic_area(EdgeFlow(3))


class TestCubeRelation:
    def test_boundary_vanishes_at_origin(self):
        assert not cube_relation((0, 0, 0), 1, 2, 3).boundary_flow()

    def test_translated(self):
        base = cube_relation((0, 0, 0), 1, 2, 3)
        moved = cube_relation((1, 1, 1), 1, 2, 3)
        assert moved.boundary_flow() == base.boundary_flow()  # both zero
        assert {p.base for p, _ in moved.entries()} == {
            tuple(c + 1 for c in p.base) for p, _ in base.entries()
        }

    def test_random_bases_and_axes(self):
        rng = random.Random(43)
        for _ in range(40):
            d = rng.choice((3, 4))
            axes = sorted(rng.sample(range(1, d + 1), 3))
            base = tuple(rng.randint(-5, 5) for _ in range(d))
            assert not cube_relation(base, *axes).boundary_flow()

    def test_rank_too_small(self):
        with pytest.raises(ValueError):
            cube_relation((0, 0), 1, 2, 3)

    def test_unordered_axes(self):
        with pytest.raises(ValueError):
            cube_relation((0, 0, 0), 2, 1, 3)


class TestGeneralDecompose:
    def test_d3_commutator(self):
        flow = flow_of("x1 x2 x1^-1 x2^-1", d=3)
        ps = decompose_cycle(flow)
        assert ps == PlaquetteSum(3, {Plaquette((0, 0, 0), 1, 2): 1})

    def test_empty(self):
        assert not decompose_cycle(EdgeFlow(3))

    def test_reconstruction_random(self):
        rng = random.Random(47)
        for _ in range(80):
            d = rng.choice((2, 3, 4))
            flow = random_loop_flow(rng, d, 10)
            assert decompose_cycle(flow).boundary_flow() == flow

    @pytest.mark.parametrize("d", [3, 4])
    def test_heap_peel_matches_scan_peel(self, d):
        rng = random.Random(53 + d)
        for _ in range(150):
            flow = random_loop_flow(rng, d, 25)
            assert decompose_cycle(flow) == scan_peel(flow)
        flow = flow_of("x1^9 x3^7 x2^-4 x1^-9 x3^-7 x2^4", d=d)
        assert decompose_cycle(flow) == scan_peel(flow)

    def test_mixed_plane_combination(self):
        combo = (
            plaquette_boundary(Plaquette((0, 0, 0), 1, 2))
            + plaquette_boundary(Plaquette((0, 0, 0), 1, 3))
            - 2 * plaquette_boundary(Plaquette((1, 0, -1), 2, 3))
        )
        assert decompose_cycle(combo).boundary_flow() == combo


class TestPlaquetteLimit:
    """A decomposition with more than MAX_LETTERS nonzero plaquettes is refused."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_at_and_over_the_limit(self, d, monkeypatch):
        # A 3 x 4 rectangle is exactly 12 plaquettes; 3 x 5 is one row more.
        at = flow_of("x1^3 x2^4 x1^-3 x2^-4", d=d)
        over = flow_of("x1^3 x2^5 x1^-3 x2^-5", d=d)
        monkeypatch.setattr(words, "MAX_LETTERS", 12)
        assert len(decompose_cycle(at)) == 12
        with pytest.raises(InputTooLargeError, match="more than 12 plaquettes"):
            decompose_cycle(over)

    @pytest.mark.parametrize("d", [2, 3])
    def test_counts_nonzero_plaquettes_not_area(self, d, monkeypatch):
        # Two 2 x 2 squares of opposite orientation that touch at a corner:
        # 8 nonzero plaquettes, net area 0, bounding box 4 x 4.
        flow = flow_of("x1^2 x2^2 x1^-2 x2^-2 x1^4 x2^-2 x1^-2 x2^2 x1^-2", d=d)
        monkeypatch.setattr(words, "MAX_LETTERS", 8)
        assert len(decompose_cycle(flow)) == 8
        monkeypatch.setattr(words, "MAX_LETTERS", 7)
        with pytest.raises(InputTooLargeError):
            decompose_cycle(flow)

    @staticmethod
    def refusal_peak_bytes(flow):
        """Peak bytes allocated while decompose_cycle refuses ``flow``.
        Plaquette keys are plain tuples, so no constructor can be watched;
        the 1000 x 1001 plaquettes of the refused answer would take over
        100 MB, the count of a 4002-edge flow well under 1 MB."""
        tracemalloc.start()
        try:
            with pytest.raises(InputTooLargeError):
                decompose_cycle(flow)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_planar_count_comes_before_any_plaquette(self):
        flow = flow_of("x1^1000 x2^1001 x1^-1000 x2^-1001")
        assert self.refusal_peak_bytes(flow) < 2**21

    def test_d3_count_comes_before_any_plaquette(self):
        flow = flow_of("x1^1000 x2^1001 x1^-1000 x2^-1001", d=3)
        assert self.refusal_peak_bytes(flow) < 2**21

    @pytest.mark.parametrize("d", [3, 4])
    def test_d3_bound_never_passes_the_peel(self, d):
        # The bound refuses only what the peel would refuse: it is at most
        # the peel's count, and equal to it for a loop in one plane.
        rng = random.Random(61 + d)
        for _ in range(150):
            flow = random_loop_flow(rng, d, 25)
            assert _least_plaquettes(flow) <= len(decompose_cycle(flow))
        flow = flow_of("x1^2 x3^3 x1^-2 x3^-3", d=d)
        assert _least_plaquettes(flow) == len(decompose_cycle(flow)) == 6


def _walk_home(d: int, steps) -> EdgeFlow:
    """The flow of a walk of unit steps ``(axis, sign)`` in Z^d, closed by the
    straight way home: back along axis 1, then axis 2, and so on."""
    letters = [(axis, sign) for axis, sign in steps if axis <= d]
    end = evaluate_letters(letters, d).endpoint
    for axis, coord in enumerate(end, 1):
        letters += [(axis, -1 if coord > 0 else 1)] * abs(coord)
    return evaluate_letters(letters, d).flow


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([3, 4]),
    st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, -1])), max_size=14),
)
def test_least_plaquettes_is_its_definition(d, steps):
    # The sum over every plane of the count in the unique decomposition of
    # the projection, and at most the count in any decomposition.
    flow = _walk_home(d, steps)
    assert flow.is_cycle()
    planes = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    least = sum(len(decompose_cycle(project_flow(flow, i, j))) for i, j in planes)
    assert _least_plaquettes(flow) == least
    assert least <= len(decompose_cycle(flow))


class TestProjection:
    def test_d3_commutator_to_12(self):
        flow = flow_of("x1 x2 x1^-1 x2^-1", d=3)
        assert project_flow(flow, 1, 2) == flow_of("x1 x2 x1^-1 x2^-1", d=2)

    def test_d3_commutator_to_13(self):
        flow = flow_of("x1 x2 x1^-1 x2^-1", d=3)
        assert not project_flow(flow, 1, 3)

    def test_empty(self):
        assert not project_flow(EdgeFlow(3), 2, 3)

    def test_cycle_projects_to_cycle(self):
        rng = random.Random(53)
        for _ in range(40):
            flow = random_loop_flow(rng, 3, 10)
            for i, j in ((1, 2), (1, 3), (2, 3)):
                assert project_flow(flow, i, j).is_cycle()

    def test_axis_guard(self):
        with pytest.raises(ValueError):
            project_flow(EdgeFlow(3), 2, 2)


def test_plaquette_sum_json_round_trip():
    ps = PlaquetteSum(2, {Plaquette((0, 0), 1, 2): 2, Plaquette((-1, 3), 1, 2): -1})
    assert plaquette_sum_from_json(json.loads(ps.as_json()), d=2) == ps


def test_non_loop_word_flow_rejected_by_area():
    with pytest.raises(NotACycleError):
        algebraic_area(flow_of("x1 x2"))


@pytest.mark.parametrize("d", [2, 3])
def test_decomposition_survives_public_rebuild(d):
    # decompose_cycle adopts its coefficients without a check; rebuilding them
    # through the public constructor must change nothing.
    rng = random.Random(f"rebuild-{d}")
    for _ in range(40):
        flow = random_loop_flow(rng, d, 12)
        ps = decompose_cycle(flow)
        assert ps == PlaquetteSum(flow.d, ps.entries())
        assert ps.boundary_flow() == flow
