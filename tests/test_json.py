"""Each type's as_json() text against json.dumps of the structure it encodes."""

from hypothesis import given, strategies as st

from latticegroups import (
    EdgeFlow,
    FoxImage,
    HeisenbergElement,
    Letter,
    MetabelianElement,
    Plaquette,
    PlaquetteSum,
    Word,
    commutator,
    evaluate_letters,
    fox_image,
)
from latticegroups.satellite import GENERATOR_NAMES, from_word, generator
from helpers import reference_json

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
def plaquette_sums(draw):
    d = draw(RANKS)
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


VALUES = st.one_of(
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


def test_empty_values():
    for d in (1, 2, 3):
        assert EdgeFlow(d).as_json() == "[]"
        assert PlaquetteSum(d).as_json() == "[]"
        for value in (
            MetabelianElement.identity(d),
            HeisenbergElement.identity(d),
            fox_image(Word.identity(d)),
        ):
            assert value.as_json() == reference_json(value)
