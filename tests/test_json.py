"""Each type's as_json() text against json.dumps of the structure it encodes,
each CLI answer's str() text against the benchmark's reference formatting,
and the integer reading of the public constructors whose values they print."""

import importlib.util
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from latticegroups import (
    EdgeFlow,
    FoxImage,
    HeisenbergElement,
    Letter,
    MetabelianElement,
    PathEvaluation,
    Plaquette,
    PlaquetteSum,
    VertexChain,
    Word,
    commutator,
    cube_relation,
    evaluate_letters,
    fox_image,
    plaquette_sum_from_json,
)
from latticegroups.cli import _Endpoint
from latticegroups.satellite import GENERATOR_NAMES, SatelliteElement, from_word, generator
from helpers import reference_json


def _load_reference():
    """perfbench/reference.py, which computes and formats every answer
    without importing latticegroups, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference()

# Small and negative values, and values past 2^64.
COEFFS = st.one_of(
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -(2**64)),
)
RANKS = st.integers(1, 4)


def _vectors(d):
    return st.tuples(*[st.integers(-5, 5)] * d)


@st.composite
def flows(draw):
    d = draw(RANKS)
    edges = st.tuples(_vectors(d), st.integers(1, d))
    return EdgeFlow(d, draw(st.lists(st.tuples(edges, COEFFS), max_size=8)))


@st.composite
def plaquette_sums(draw, ranks=RANKS):
    d = draw(ranks)
    if d == 1:  # no plaquette has rank 1
        return PlaquetteSum(1)
    axes = st.tuples(st.integers(1, d - 1), st.integers(2, d)).filter(lambda ij: ij[0] < ij[1])
    keys = st.tuples(_vectors(d), axes).map(lambda key: Plaquette(key[0], *key[1]))
    return PlaquetteSum(d, draw(st.lists(st.tuples(keys, COEFFS), max_size=8)))


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
def fox_images(draw):
    d = draw(RANKS)
    components = st.dictionaries(_vectors(d), COEFFS, max_size=5)
    derivatives = draw(st.lists(components, min_size=d, max_size=d))
    return FoxImage(draw(_vectors(d)), tuple(derivatives))


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


def test_rank_one_vectors_have_no_trailing_comma():
    flow = EdgeFlow(1, [(((5,), 1), 2), (((-1,), 1), -3)])
    assert str(flow) == _ref_flow(flow) == "[(-1):1:-3, (5):1:+2]"
    elem = MetabelianElement.from_word(Word([Letter(1, 1)] * 2, 1))
    assert str(elem) == "endpoint=(2) flow=[(0):1:+1, (1):1:+1]"
    assert str(_Endpoint((5,))) == "(5)"
    assert str(fox_image(Word([Letter(1, -1)], 1))) == "monomial=(-1) d1=[(-1):-1]"


# constructor slot -> the value built with n in that slot; n = 1 is valid in each.
INTEGER_SLOTS = {
    "EdgeFlow-base": lambda n: EdgeFlow(2, [(((n, 0), 1), 1)]),
    "EdgeFlow-axis": lambda n: EdgeFlow(2, [(((0, 0), n), 1)]),
    "EdgeFlow-mult": lambda n: EdgeFlow(2, {((0, 0), 1): n}),
    "VertexChain-vertex": lambda n: VertexChain(2, [((0, n), 1)]),
    "VertexChain-mult": lambda n: VertexChain(2, [((0, 0), n)]),
    "PlaquetteSum-base": lambda n: PlaquetteSum(2, [(((0, n), 1, 2), 1)]),
    "PlaquetteSum-i": lambda n: PlaquetteSum(2, [(((0, 0), n, 2), 1)]),
    "PlaquetteSum-mult": lambda n: PlaquetteSum(2, [(((0, 0), 1, 2), n)]),
    "from_json-base": lambda n: plaquette_sum_from_json([{"base": [n, 0], "i": 1, "j": 2, "mult": 2}], d=2),
    "from_json-i": lambda n: plaquette_sum_from_json([{"base": [0, 0], "i": n, "j": 2, "mult": 2}], d=2),
    "from_json-mult": lambda n: plaquette_sum_from_json([{"base": [0, 0], "i": 1, "j": 2, "mult": n}], d=2),
    "Metabelian-endpoint": lambda n: MetabelianElement((n, 0), EdgeFlow(2, [(((0, 0), 1), 1)])),
    "Heisenberg-endpoint": lambda n: HeisenbergElement((n, 2)),
    "Heisenberg-i": lambda n: HeisenbergElement((0, 0), {(n, 2): 3}),
    "Heisenberg-area": lambda n: HeisenbergElement((0, 0), {(1, 2): n}),
    "Heisenberg-mapping": lambda n: HeisenbergElement((0, 0), MappingProxyType({(1, 2): n})),
    "Satellite-vec": lambda n: SatelliteElement(1, (n, 0), EdgeFlow(2)),
    "Satellite-k": lambda n: SatelliteElement(n, (0, 0), EdgeFlow(2)),
    "PathEvaluation-endpoint": lambda n: PathEvaluation((n, 0), EdgeFlow(2)),
    "FoxImage-monomial": lambda n: FoxImage((n, 0), ({}, {})),
    "FoxImage-point": lambda n: FoxImage((0, 0), ({(0, n): 2}, {})),
    "FoxImage-coeff": lambda n: FoxImage((0, 0), ({}, {(0, 0): n})),
    "Plaquette-base": lambda n: Plaquette((0, n), 1, 2),
    "Plaquette-i": lambda n: Plaquette((0, 0), n, 2),
    "cube_relation-base": lambda n: cube_relation((0, n, 0), 1, 2, 3),
    "cube_relation-i": lambda n: cube_relation((0, 0, 0), n, 2, 3),
}


@pytest.mark.parametrize("value", [0.5, 1.0, "1", True], ids=["half", "float", "str", "bool"])
@pytest.mark.parametrize("build", list(INTEGER_SLOTS.values()), ids=list(INTEGER_SLOTS))
def test_constructors_read_integers(build, value):
    # The %d writers would print 0.5 as 0 and 2.7 as 2: a non-integer is
    # refused, and a bool is read as the int it stands for.
    if value is True:
        assert repr(build(value)) == repr(build(1))
    else:
        with pytest.raises(TypeError):
            build(value)
