"""Each type's as_json() text against json.dumps of the structure it encodes,
each CLI answer's str() text against the benchmark's reference formatting,
and the integer reading of the public constructors whose values they print."""

import gc
import inspect
import sys
from itertools import count
from types import MappingProxyType

import pytest
from hypothesis import example, given, strategies as st

from latticegroups import (
    Cocycle,
    EdgeFlow,
    FoxImage,
    HeisenbergElement,
    Letter,
    MetabelianElement,
    PathEvaluation,
    Plaquette,
    PlaquetteSum,
    RankMismatchError,
    VertexChain,
    Word,
    canonical_cocycle,
    check_cocycle_identity,
    coboundary,
    commutator,
    cube_relation,
    evaluate_letters,
    fox_image,
    monomial_flow,
    monomial_word,
    plaquette_boundary,
    plaquette_sum_from_json,
)
from latticegroups import lattice
from latticegroups.cli import _Endpoint
from latticegroups.lattice import _vector
from latticegroups.satellite import GENERATOR_NAMES, SatelliteElement, from_word, generator
from helpers import load_reference, reference_json


ref = load_reference()

# Small and negative values, and values past 2^64.
COEFFS = st.one_of(
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -(2**64)),
)
RANKS = st.integers(1, 4)


COORDS = st.integers(-5, 5)
# Ints on both sides of the edges of the writers' table of small int texts
# (-512..512), and of tables half and twice its size, and past 2^64.
TABLE_EDGES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([sign * n for n in (256, 257, 512, 513, 1024, 1025, 2**70) for sign in (1, -1)]),
)


def _vectors(d, coords=COORDS):
    return st.tuples(*[coords] * d)


@st.composite
def flows(draw, coords=COORDS, coeffs=COEFFS, max_size=8):
    d = draw(RANKS)
    edges = st.tuples(_vectors(d, coords), st.integers(1, d))
    return EdgeFlow(d, draw(st.lists(st.tuples(edges, coeffs), max_size=max_size)))


@st.composite
def plaquette_sums(draw, ranks=RANKS, coords=COORDS, coeffs=COEFFS, max_size=8):
    d = draw(ranks)
    if d == 1:  # no plaquette has rank 1
        return PlaquetteSum(1)
    axes = st.tuples(st.integers(1, d - 1), st.integers(2, d)).filter(lambda ij: ij[0] < ij[1])
    keys = st.tuples(_vectors(d, coords), axes).map(lambda key: Plaquette(key[0], *key[1]))
    return PlaquetteSum(d, draw(st.lists(st.tuples(keys, coeffs), max_size=max_size)))


@st.composite
def words(draw, d=None):
    d = draw(RANKS) if d is None else d
    letters = st.tuples(st.integers(1, d), st.sampled_from((1, -1))).map(lambda t: Letter(*t))
    return Word(draw(st.lists(letters, max_size=30)), d)


@st.composite
def loop_powers(draw, element):
    """``element`` of a random word times a power of a commutator's element:
    the commutator's flow or areas scaled by a coefficient of up to 2^70."""
    d = draw(RANKS)
    word, a, b = (draw(words(d)) for _ in range(3))
    return element.from_word(word) * element.from_word(commutator(a, b)) ** draw(COEFFS)


@st.composite
def satellite_elements(draw):
    k = draw(st.integers(-4, 4))
    text = " ".join(draw(st.lists(st.sampled_from(GENERATOR_NAMES + ("x^-1", "y^-1", "z^-1")))))
    return from_word(text, k) * generator("z", k) ** draw(COEFFS)


@st.composite
def fox_images(draw, coords=COORDS, coeffs=COEFFS, max_size=5):
    d = draw(RANKS)
    components = st.dictionaries(_vectors(d, coords), coeffs, max_size=max_size)
    derivatives = draw(st.lists(components, min_size=d, max_size=d))
    return FoxImage(draw(_vectors(d, coords)), tuple(derivatives))


ENDPOINTS = RANKS.flatmap(_vectors).map(_Endpoint)

VALUES = st.one_of(
    words(),
    ENDPOINTS,
    flows(),
    plaquette_sums(),
    words().map(lambda word: evaluate_letters(word.letters, word.d)),
    loop_powers(MetabelianElement),
    loop_powers(HeisenbergElement),
    satellite_elements(),
    words().map(fox_image),
    fox_images(),
)


@given(VALUES)
def test_as_json_is_canonical_json(value):
    assert value.as_json() == reference_json(value)


def _ref_flow(flow):
    return ref.fmt_flow(dict(flow.entries()))


# The human text of each CLI answer type, by the reference's formatting, put
# together as perfbench/workloads.py puts together the answers it expects.
TEXT_REFERENCE = {
    Word: lambda word: ref.word_text(word.letters),
    _Endpoint: ref.fmt_vec,
    EdgeFlow: _ref_flow,
    # The reference writes the plaquettes of d = 2, all in the plane (1, 2).
    PlaquetteSum: lambda ps: ref.fmt_plaquettes({p.base: coeff for p, coeff in ps.entries()}),
    MetabelianElement: lambda elem: (
        f"endpoint={ref.fmt_vec(elem.endpoint)} flow={_ref_flow(elem.flow)}"
    ),
    HeisenbergElement: lambda elem: (
        f"endpoint={ref.fmt_vec(elem.endpoint)} areas={ref.fmt_areas(dict(elem.areas()))}"
    ),
    SatelliteElement: lambda elem: (
        f"k={elem.k} vec={ref.fmt_vec(elem.vec)} cycle={_ref_flow(elem.cycle)}"
    ),
    FoxImage: lambda image: ref.fmt_fox(
        image.monomial,
        {
            (point, axis): coeff
            for axis, component in enumerate(image.derivatives, 1)
            for point, coeff in component.items()
        },
        len(image.derivatives),
    ),
}

ANSWERS = st.one_of(
    words(),
    ENDPOINTS,
    flows(),
    plaquette_sums(st.integers(1, 2)),
    loop_powers(MetabelianElement),
    loop_powers(HeisenbergElement),
    satellite_elements(),
    words().map(fox_image),
    fox_images(),
)


@given(ANSWERS)
def test_str_is_the_reference_text(value):
    assert str(value) == TEXT_REFERENCE[type(value)](value)


# Up to 40 entries: the writers join the rows of an answer of 16 or more.
@given(
    st.one_of(
        flows(TABLE_EDGES, TABLE_EDGES, max_size=40),
        plaquette_sums(coords=TABLE_EDGES, coeffs=TABLE_EDGES, max_size=40),
        fox_images(TABLE_EDGES, TABLE_EDGES, max_size=40),
    )
)
@example(FoxImage((1025,), ({},)))
@example(EdgeFlow(2, {((n, -n), 1 + n % 2): -n for n in (*range(500, 530), 1024, 1025, 2**70)}))
@example(FoxImage((0, 1), ({}, {(n, n % 3): 1 - n for n in range(1010, 1030)})))
@example(FoxImage((-513, 0, 2**70), ({}, {(512, -1025, 0): -513}, {})))
@example(EdgeFlow(4, {((512, -512, 513, -513), 4): 1024, ((1025, -1025, 2**70, -(2**70)), 1): -1025}))
def test_writers_on_both_sides_of_the_int_table(value):
    assert value.as_json() == reference_json(value)
    if not isinstance(value, PlaquetteSum):
        assert str(value) == TEXT_REFERENCE[type(value)](value)


# Ints just inside and just outside the writers' table of texts, and far past it.
SIDES = (-(2**70), -1025, -513, -512, -1, 0, 1, 511, 512, 513, 1025, 2**70)


def _both_sides(d):
    """At least 16 distinct points of rank d, each with a nonzero value:
    across the rows, every coordinate and the value take ints inside and
    outside -512..512."""
    rows = {}
    for n in range(36):
        scale = 2 * (n // len(SIDES)) + 1
        *point, value = (SIDES[(n + t) % len(SIDES)] * scale for t in range(d + 1))
        rows[tuple(point)] = value or 7
    for column in zip(*(point + (value,) for point, value in rows.items())):
        assert any(abs(n) <= 512 for n in column) and any(abs(n) > 512 for n in column)
    return rows


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_joined_rows_match_json_dumps_on_both_sides_of_every_table(d):
    rows = _both_sides(d)
    planes = [(i, j) for j in range(2, d + 1) for i in range(1, j)]
    entries = list(zip(count(), rows, rows.values()))
    flow = EdgeFlow(d, {(point, 1 + n % d): value for n, point, value in entries})
    values = [flow, MetabelianElement._of(next(iter(rows)), flow), FoxImage(next(iter(rows)), [rows] * d)]
    if d > 1:
        values.append(PlaquetteSum(d, {(point, *planes[n % len(planes)]): value for n, point, value in entries}))
    for value in values:
        assert value.as_json() == reference_json(value)
    assert len(flow) == len(values[2].derivatives[0]) == len(rows) >= 16


def test_int_text_tables_fill_lazily_and_stay_bounded():
    lattice._int_texts.cache_clear()
    # 10^4 distinct ints past the table on every column but the axis, and
    # the 40 ints of -20..19: only those are kept, each in each table it met.
    flow = EdgeFlow(2, {((n, -n), 1): 3 * n for n in range(lattice._TEXT_MAX + 1, lattice._TEXT_MAX + 10_001)})
    small = EdgeFlow(2, {((n, -n), 2): n or 40 for n in range(-20, 20)})
    for value in (flow, small, flow + small):
        assert value.as_json() == reference_json(value)
    tables = [table for table in gc.get_objects() if type(table) is lattice._IntTexts]
    assert len(tables) == 4  # after the axis, each base coordinate, the mult
    for table in tables:
        assert len(table) <= 2 * lattice._TEXT_MAX + 1
        assert all(abs(n) <= lattice._TEXT_MAX and text == str(n) + table.suffix for n, text in table.items())
    assert sorted(len(table) for table in tables) == [2, 40, 40, 40]


def test_empty_values():
    for d in (1, 2, 3):
        assert EdgeFlow(d).as_json() == "[]"
        assert PlaquetteSum(d).as_json() == "[]"
        assert str(EdgeFlow(d)) == str(PlaquetteSum(d)) == "[]"
        for value in (
            Word.identity(d),
            _Endpoint((0,) * d),
            MetabelianElement.identity(d),
            HeisenbergElement.identity(d),
            fox_image(Word.identity(d)),
        ):
            assert value.as_json() == reference_json(value)
            assert str(value) == TEXT_REFERENCE[type(value)](value)
    assert str(SatelliteElement.identity(2)) == "k=2 vec=(0, 0) cycle=[]"


@given(st.sampled_from((1, 4)).flatmap(lambda d: words(d)))
@example(Word.identity(1))
@example(Word.identity(4))
def test_flow_and_fox_json_at_rank_one_and_four(word):
    flow, image = evaluate_letters(word.letters, word.d).flow, fox_image(word)
    assert flow.as_json() == reference_json(flow)
    assert image.as_json() == reference_json(image)


def test_rank_one_vectors_have_no_trailing_comma():
    flow = EdgeFlow(1, [(((5,), 1), 2), (((-1,), 1), -3)])
    assert str(flow) == _ref_flow(flow) == "[(-1):1:-3, (5):1:+2]"
    elem = MetabelianElement.from_word(Word([Letter(1, 1)] * 2, 1))
    assert str(elem) == "endpoint=(2) flow=[(0):1:+1, (1):1:+1]"
    assert str(_Endpoint((5,))) == "(5)"
    assert str(fox_image(Word([Letter(1, -1)], 1))) == "monomial=(-1) d1=[(-1):-1]"


def _as_given(vec):
    return vec


# constructor slot -> the value built with n in that slot; n = 1 is valid in each.
# A slot that reads a lattice vector also takes ``vec``, applied to that vector:
# the "iter" column passes ``iter``, the "rank" column repeats its last coordinate.
UNIT = plaquette_boundary(Plaquette((0, 0), 1, 2))
INTEGER_SLOTS = {
    "EdgeFlow-base": lambda n, vec=_as_given: EdgeFlow(2, [((vec((n, 0)), 1), 1)]),
    "EdgeFlow-axis": lambda n: EdgeFlow(2, [(((0, 0), n), 1)]),
    "EdgeFlow-mult": lambda n: EdgeFlow(2, {((0, 0), 1): n}),
    "VertexChain-vertex": lambda n, vec=_as_given: VertexChain(2, [(vec((0, n)), 1)]),
    "VertexChain-mult": lambda n: VertexChain(2, [((0, 0), n)]),
    "PlaquetteSum-base": lambda n, vec=_as_given: PlaquetteSum(2, [((vec((0, n)), 1, 2), 1)]),
    "PlaquetteSum-i": lambda n: PlaquetteSum(2, [(((0, 0), n, 2), 1)]),
    "PlaquetteSum-mult": lambda n: PlaquetteSum(2, [(((0, 0), 1, 2), n)]),
    "from_json-base": lambda n, vec=_as_given: plaquette_sum_from_json(
        [{"base": vec([n, 0]), "i": 1, "j": 2, "mult": 2}], d=2
    ),
    "from_json-i": lambda n: plaquette_sum_from_json([{"base": [0, 0], "i": n, "j": 2, "mult": 2}], d=2),
    "from_json-mult": lambda n: plaquette_sum_from_json([{"base": [0, 0], "i": 1, "j": 2, "mult": n}], d=2),
    "Metabelian-endpoint": lambda n, vec=_as_given: MetabelianElement(
        vec((n, 0)), EdgeFlow(2, [(((0, 0), 1), 1)])
    ),
    "Heisenberg-endpoint": lambda n, vec=_as_given: HeisenbergElement(vec((n, 2))),
    "Heisenberg-i": lambda n: HeisenbergElement((0, 0), {(n, 2): 3}),
    "Heisenberg-area": lambda n: HeisenbergElement((0, 0), {(1, 2): n}),
    "Heisenberg-mapping": lambda n: HeisenbergElement((0, 0), MappingProxyType({(1, 2): n})),
    "Satellite-vec": lambda n, vec=_as_given: SatelliteElement(1, vec((n, 0)), EdgeFlow(2)),
    "Satellite-k": lambda n: SatelliteElement(n, (0, 0), EdgeFlow(2)),
    "PathEvaluation-endpoint": lambda n, vec=_as_given: PathEvaluation(vec((n, 0)), EdgeFlow(2)),
    "FoxImage-monomial": lambda n, vec=_as_given: FoxImage(vec((n, 0)), ({}, {})),
    "FoxImage-point": lambda n, vec=_as_given: FoxImage((0, 0), ({vec((0, n)): 2}, {})),
    "FoxImage-coeff": lambda n: FoxImage((0, 0), ({}, {(0, 0): n})),
    # One derivative per axis: "rank" adds a third.
    "FoxImage-derivatives": lambda n, vec=_as_given: FoxImage((0, 0), vec(({}, {(n, 0): 3}))),
    "Plaquette-base": lambda n, vec=_as_given: Plaquette(vec((0, n)), 1, 2),
    "Plaquette-i": lambda n: Plaquette((0, 0), n, 2),
    "cube_relation-base": lambda n, vec=_as_given: cube_relation(vec((0, n, 0)), 1, 2, 3),
    "cube_relation-i": lambda n: cube_relation((0, 0, 0), n, 2, 3),
    "section": lambda n, vec=_as_given: MetabelianElement.section(vec((n, 2))),
    "monomial_flow": lambda n, vec=_as_given: monomial_flow(vec((n, -2))),
    "monomial_word": lambda n, vec=_as_given: monomial_word(vec((n, 2))),
    "canonical_cocycle": lambda n, vec=_as_given: canonical_cocycle(vec((n, 2)), (0, 1)),
    "coboundary": lambda n, vec=_as_given: coboundary({(1, 0): UNIT}, vec((n, 0)), (0, 1)),
    "Cocycle-shift": lambda n, vec=_as_given: Cocycle(2, 1, [(vec((n, 0)), UNIT)]).shifts,
    "Cocycle.value": lambda n, vec=_as_given: Cocycle(2, 1, {(1, 0): UNIT}).value(vec((n, 2)), (0, 1)),
    "check_cocycle_identity": lambda n, vec=_as_given: check_cocycle_identity(
        Cocycle(2, 1, {(1, 0): UNIT}), vec((n, 0)), (0, 1), (1, 1)
    ),
    "translate": lambda n, vec=_as_given: EdgeFlow(2, [(((0, 0), 1), 1)]).translate(vec((n, -1))),
}
# Vector slots whose rank is the vector's own: no other argument fixes it.
OWN_RANK = {
    "Heisenberg-endpoint", "Plaquette-base", "cube_relation-base", "section", "monomial_flow", "monomial_word"
}
NOT_INTEGERS = {"half": 0.5, "float": 1.0, "str": "1"}


def _columns():
    for slot, build in INTEGER_SLOTS.items():
        columns = [*NOT_INTEGERS, "bool"]
        if "vec" in inspect.signature(build).parameters:
            columns += ["iter"] if slot in OWN_RANK else ["iter", "rank"]
        for column in columns:
            yield pytest.param(build, column, id=f"{slot}-{column}")


def _shown(value):
    return repr(value), str(value)


@pytest.mark.parametrize("build, column", _columns())
def test_constructors_read_integers(build, column):
    # The %d writers would print 0.5 as 0 and 2.7 as 2: a non-integer is
    # refused, and a bool is read as the int it stands for. A vector is read
    # once, so an iterator gives the tuple's value, and its rank is checked.
    if column == "bool":
        assert _shown(build(True)) == _shown(build(1))
    elif column == "iter":
        assert _shown(build(1, vec=iter)) == _shown(build(1))
    elif column == "rank":
        with pytest.raises(RankMismatchError):
            build(1, vec=lambda vec: (*vec, vec[-1]))
    else:
        with pytest.raises(TypeError):
            build(NOT_INTEGERS[column])


TABLE = Cocycle(2, 3, {(1, 0): UNIT})
# public call -> the vectors it takes, each read once however it is computed.
VECTOR_READS = {
    "section": (lambda: MetabelianElement.section((2, -3)), 1),
    "Cocycle.value": (lambda: TABLE.value((1, 2), (-1, 1)), 2),
    "Cocycle-call": (lambda: TABLE((1, 2), (-1, 1)), 2),
    "check_cocycle_identity": (lambda: check_cocycle_identity(TABLE, (1, 0), (0, 1), (1, 1)), 3),
}


@pytest.mark.parametrize("name", VECTOR_READS)
def test_each_vector_is_read_once(name, monkeypatch):
    call, expected = VECTOR_READS[name]
    answer = call()
    reads = []

    def counting(*args, **kwargs):
        reads.append(args[0])
        return _vector(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("latticegroups") and getattr(module, "_vector", None) is _vector:
            monkeypatch.setattr(module, "_vector", counting)
    assert call() == answer
    assert len(reads) == expected
