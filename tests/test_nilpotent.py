import json
import random

import pytest

from latticegroups import (
    HeisenbergElement,
    RankMismatchError,
    Word,
    algebraic_area,
    commutator,
    evaluate_path,
    project_flow,
    word_is_trivial,
)
from helpers import random_letters, random_loop_word, random_word, w


class TestEvaluate:
    def test_commutator(self):
        elem = HeisenbergElement.from_word(w("x1 x2 x1^-1 x2^-1"))
        assert elem.endpoint == (0, 0)
        assert elem.area(1, 2) == 1

    def test_empty(self):
        assert HeisenbergElement.from_word(Word.identity(2)).is_identity()

    def test_double_width(self):
        elem = HeisenbergElement.from_word(w("x1^2 x2 x1^-2 x2^-1"))
        assert elem.endpoint == (0, 0)
        assert elem.area(1, 2) == 2

    def test_open_word_tracks_endpoint(self):
        elem = HeisenbergElement.from_word(w("x1 x2^3"))
        assert elem.endpoint == (1, 3)
        assert elem.area(1, 2) == 3


class TestGroupLaw:
    def test_homomorphism(self):
        rng = random.Random(7)
        for _ in range(80):
            d = rng.choice((2, 3))
            u = random_word(rng, d, 10)
            v = random_word(rng, d, 10)
            assert HeisenbergElement.from_word(u * v) == HeisenbergElement.from_word(
                u
            ) * HeisenbergElement.from_word(v)

    def test_identity_laws(self):
        a = HeisenbergElement.from_word(w("x1 x2"))
        e = HeisenbergElement.identity(2)
        assert a * e == a and e * a == a

    def test_inverse_law(self):
        rng = random.Random(11)
        for _ in range(60):
            a = HeisenbergElement.from_word(random_word(rng, 3, 10))
            assert (a * a.inverse()).is_identity()
            assert (a.inverse() * a).is_identity()

    def test_commutator_of_generators_is_central(self):
        c = HeisenbergElement.from_word(w("x1 x2 x1^-1 x2^-1"))
        assert c.endpoint == (0, 0) and c.area(1, 2) == 1
        rng = random.Random(13)
        for _ in range(30):
            g = HeisenbergElement.from_word(random_word(rng, 2, 8))
            assert c * g == g * c

    def test_closed_words_are_central(self):
        rng = random.Random(17)
        for _ in range(40):
            loop = HeisenbergElement.from_word(random_loop_word(rng, 2, 6))
            g = HeisenbergElement.from_word(random_word(rng, 2, 8))
            assert loop * g == g * loop

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            HeisenbergElement.identity(2) * HeisenbergElement.identity(3)


class TestTriviality:
    def test_commutator_not_trivial(self):
        assert not word_is_trivial(w("x1 x2 x1^-1 x2^-1"))

    def test_nested_cancel_trivial(self):
        assert word_is_trivial(w("x1 x2 x2^-1 x1^-1"))

    def test_two_step_nilpotency(self):
        rng = random.Random(19)
        for _ in range(60):
            d = rng.choice((2, 3))
            u, v, s = (random_word(rng, d, 8) for _ in range(3))
            assert word_is_trivial(commutator(commutator(u, v), s))

    def test_pairwise_criterion(self):
        rng = random.Random(23)
        for _ in range(60):
            w1 = random_word(rng, 2, 8)
            w2 = random_word(rng, 2, 8)
            same = HeisenbergElement.from_word(w1) == HeisenbergElement.from_word(w2)
            assert same == word_is_trivial(w1 * ~w2)


class TestAreaCrossCheck:
    def test_closed_word_areas_match_projections(self):
        rng = random.Random(29)
        for _ in range(60):
            d = rng.choice((2, 3))
            loop = random_loop_word(rng, d, 8)
            elem = HeisenbergElement.from_word(loop)
            flow = evaluate_path(loop).flow
            for i in range(1, d):
                for j in range(i + 1, d + 1):
                    assert elem.area(i, j) == algebraic_area(project_flow(flow, i, j))

    def test_long_closed_word_areas_match_projections(self):
        # Seeded closed d = 3 words of 2*10^4 letters: 10^4 random steps,
        # then their inverses in a shuffled order.
        rng = random.Random(31)
        for _ in range(3):
            out = random_letters(rng, 3, 10_000)
            back = [letter.inverse() for letter in out]
            rng.shuffle(back)
            loop = Word(out + back, 3)
            elem = HeisenbergElement.from_word(loop)
            flow = evaluate_path(loop).flow
            assert flow and flow.is_cycle()
            for i, j in ((1, 2), (1, 3), (2, 3)):
                assert elem.area(i, j) == algebraic_area(project_flow(flow, i, j))


def test_json_shape():
    elem = HeisenbergElement.from_word(w("x1 x2 x1^-1 x2^-1"))
    assert json.loads(elem.as_json()) == {
        "endpoint": [0, 0],
        "areas": [{"i": 1, "j": 2, "value": 1}],
    }
