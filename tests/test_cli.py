import argparse
import contextlib
import gc
import io
import json
import random
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import latticegroups
from latticegroups import MetabelianElement, Word, cli, lattice, parse_word, satellite, words
from latticegroups.cli import REGISTRY, SUBGROUPS, main
from helpers import load_reference

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"

PERTURB = str(DATA / "perturb.json")
BATCH_COMMANDS = str(DATA / "batch_commands.txt")
BATCH_PAIRS = str(DATA / "batch_pairs.txt")
BATCH_UNCLOSED_QUOTE = str(DATA / "batch_unclosed_quote.txt")
BAD_PERTURB = ["perturb_missing_plaquettes.json", "perturb_not_a_list.json"]

# (golden file stem, argv, expected exit code)
MATRIX = [
    ("reduce_json", ["reduce", "--d", "2", "--json", "x1 x1^-1 x2"], 0),
    ("reduce_human", ["reduce", "--d", "2", "x1 x2 x2^-1 x1"], 0),
    ("reduce_empty", ["reduce", "--d", "2", "--json", "x1 x1^-1"], 0),
    ("eval_free", ["eval", "--group", "free", "--d", "2", "--json", "x2 x1 x1^-1"], 0),
    ("eval_abelian", ["eval", "--group", "abelian", "--d", "3", "--json", "x1 x3^-2"], 0),
    ("eval_heisenberg", ["eval", "--group", "heisenberg", "--d", "2", "--json", "x1 x2 x1^-1 x2^-1"], 0),
    ("eval_metabelian", ["eval", "--group", "metabelian", "--d", "2", "--json", "x1 x2 x1^-1 x2^-1"], 0),
    ("eval_satellite", ["eval", "--group", "satellite", "--k", "3", "--json", "x y x^-1 y^-1"], 0),
    ("eval_metabelian_human", ["eval", "--group", "metabelian", "--d", "2", "x1 x2"], 0),
    ("eq_metabelian_unequal", ["eq", "--group", "metabelian", "--d", "2", "--json", "x1 x2", "x2 x1"], 1),
    ("eq_abelian_equal", ["eq", "--group", "abelian", "--d", "2", "--json", "x1 x2", "x2 x1"], 0),
    ("eq_free_equal", ["eq", "--group", "free", "--d", "2", "x1 x1^-1", ""], 0),
    ("eq_heisenberg_unequal", ["eq", "--group", "heisenberg", "--d", "2", "--json", "x1 x2", "x2 x1"], 1),
    ("eq_satellite_equal", ["eq", "--group", "satellite", "--k", "2", "--json", "x y x^-1 y^-1", "z^2"], 0),
    ("eq_metabelian_equal_loops", ["eq", "--group", "metabelian", "--d", "3", "--json", "x1 x2 x3", "x1 x2 x2^-1 x2 x3"], 0),
    ("nf_two_plaquettes", ["nf", "--d", "2", "--json", "x1^2 x2 x1^-2 x2^-1"], 0),
    ("decompose_two_plaquettes", ["decompose", "--d", "2", "--json", "x1^2 x2 x1^-2 x2^-1"], 0),
    ("decompose_human", ["decompose", "--d", "2", "x1 x2 x1^-1 x2^-1"], 0),
    ("area_negative", ["area", "--d", "2", "--json", "x2 x1 x2^-1 x1^-1"], 0),
    ("cocycle_reversed", ["cocycle", "--json", "0,1", "1,0"], 0),
    ("cocycle_straight_human", ["cocycle", "1,0", "0,1"], 0),
    ("cocycle_negative", ["cocycle", "-1,3", "2,0", "--json"], 0),
    ("beta_canonical", ["beta", "--k", "1", "--json"], 0),
    ("beta_scaled", ["beta", "--k", "-3", "--json"], 0),
    ("beta_perturbed", ["beta", "--k", "2", "--perturb", PERTURB, "--json"], 0),
    ("fox_commutator", ["fox", "--d", "2", "--json", "x1 x2 x1^-1 x2^-1"], 0),
    ("member_n_true", ["member", "--sub", "N", "--k", "3", "--json", "z"], 0),
    ("member_m_false", ["member", "--sub", "M", "--k", "3", "--json", "z"], 0),
    ("member_commutant_true", ["member", "--sub", "commutant", "--k", "3", "--json", "z^3"], 0),
    ("batch_commands", ["batch", BATCH_COMMANDS], 0),
    ("batch_pairs", ["batch", "--eq", "--group", "metabelian", "--d", "2", BATCH_PAIRS], 0),
]


@pytest.mark.parametrize("name,argv,expected_code", MATRIX, ids=[m[0] for m in MATRIX])
def test_golden_output(name, argv, expected_code, capsys, request):
    code = main(argv)
    out = capsys.readouterr().out
    path = GOLDEN / f"{name}.txt"
    if request.config.getoption("--regen-golden"):
        path.write_text(out, encoding="utf-8")
    assert code == expected_code
    assert out == path.read_text(encoding="utf-8")


def _random_text(rng, names):
    return " ".join(
        f"{rng.choice(names)}^{rng.choice((1, -1, 2, -3))}" for _ in range(rng.randint(0, 12))
    )


# (alias argv, the eval argv it stands for)
ALIASES = [
    (["nf"], ["eval", "--group", "metabelian"]),
    (["reduce"], ["eval", "--group", "free"]),
]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("alias,target", ALIASES, ids=[a[0][0] for a in ALIASES])
def test_alias_matches_eval(alias, target, json_flag, capsys):
    rng = random.Random(f"{alias[0]}{json_flag}")
    for _ in range(20):
        d = rng.randint(1, 3)
        tail = ["--d", str(d), *json_flag, _random_text(rng, [f"x{i}" for i in range(1, d + 1)])]
        assert main(alias + tail) == 0
        alias_out = capsys.readouterr().out
        assert main(target + tail) == 0
        assert capsys.readouterr().out == alias_out


@pytest.mark.parametrize("group", list(REGISTRY))
def test_eq_word_with_itself(group, capsys):
    rng = random.Random(f"eq-{group}")
    names = ("x", "y", "z") if group == "satellite" else ("x1", "x2", "x3")
    for _ in range(10):
        word = _random_text(rng, names)
        assert main(["eq", "--group", group, "--d", "3", "--k", "2", word, word]) == 0
        assert capsys.readouterr().out == "equal\n"


def _inverse_text(text):
    """The text of the inverse of a word written with unit-exponent tokens."""
    tokens = text.split()
    return " ".join(
        name if caret else f"{name}^-1"
        for name, caret, _ in (token.partition("^") for token in reversed(tokens))
    )


# group -> (generator names, a relator of the group that the free group does
# not kill, or for the free group a freely trivial word)
RELATORS = {
    "free": (("x1", "x2", "x3"), "x1 x2 x2^-1 x1^-1"),
    "abelian": (("x1", "x2", "x3"), "x1 x2 x1^-1 x2^-1"),
    # [[x1, x2], x1]: a double commutator, trivial in the 2-step nilpotent group.
    "heisenberg": (("x1", "x2", "x3"), "x1 x2 x1^-1 x2^-1 x1 x2 x1 x2^-1 x1^-1 x1^-1"),
    # [[x1, x2], [x3, x1]]: a commutator of commutators.
    "metabelian": (
        ("x1", "x2", "x3"),
        "x1 x2 x1^-1 x2^-1 x3 x1 x3^-1 x1^-1 x2 x1 x2^-1 x1^-1 x1 x3 x1^-1 x3^-1",
    ),
    "satellite": (("x", "y", "z"), None),  # [x, y] z^-k, built per level
}


def _unit_text(rng, names, length):
    return " ".join(rng.choice(names) + rng.choice(("", "^-1")) for _ in range(length))


def _pairs(rng, group, k):
    names, relator = RELATORS[group]
    if relator is None:
        relator = "x y x^-1 y^-1" + (f" z^{-k}" if k else "")
    for _ in range(6):
        word = _unit_text(rng, names, rng.randint(0, 12))
        c, c2 = (_unit_text(rng, names, rng.randint(1, 4)) for _ in range(2))
        yield word, f"{word} {relator}"
        yield f"{word} {relator}", word
        yield f"{word} {c}", f"{word} {c2}"
        yield _unit_text(rng, names, rng.randint(0, 8)), _unit_text(rng, names, rng.randint(0, 8))
        yield word, word
        yield word, f"{word} {_inverse_text(word)}"  # word2 reduces to the identity
        yield word, _inverse_text(word)


# Every group in the registry, satellite at each level from -2 to 3.
EQ_ORACLE_CASES = [(group, 1) for group in REGISTRY if group != "satellite"] + [
    ("satellite", k) for k in range(-2, 4)
]


@pytest.mark.parametrize("group,k", EQ_ORACLE_CASES, ids=[f"{g}-k{k}" for g, k in EQ_ORACLE_CASES])
def test_eq_verdict_is_equality_of_eval(group, k, capsys):
    # eq folds the quotient u^-1 v; eval folds each word on its own.
    rng = random.Random(f"eq-oracle-{group}-{k}")
    flags = ["--group", group, "--d", "3", "--k", str(k)]
    verdicts = set()
    for word1, word2 in _pairs(rng, group, k):
        outputs = []
        for word in (word1, word2):
            assert main(["eval", *flags, "--json", word]) == 0
            outputs.append(capsys.readouterr().out)
        code = main(["eq", *flags, "--json", word1, word2])
        verdict = "equal" if outputs[0] == outputs[1] else "unequal"
        assert (code, capsys.readouterr().out) == (
            0 if verdict == "equal" else 1,
            f'{{"verdict":"{verdict}"}}\n',
        ), (word1, word2)
        verdicts.add(verdict)
    assert verdicts == {"equal", "unequal"}


@pytest.mark.parametrize("group", ["abelian", "metabelian"])
def test_eq_folds_only_the_difference(group, monkeypatch, capsys):
    rng = random.Random(f"eq-cost-{group}")
    tokens = ["x1"]
    while len(tokens) < 10**4:  # a reduced word: no token follows its inverse
        token = rng.choice(("x1", "x2", "x3")) + rng.choice(("", "^-1"))
        if token != _inverse_text(tokens[-1]):
            tokens.append(token)
    word = " ".join(tokens)
    assert len(parse_word(word, 3)) == 10**4
    comm = "x1 x2 x1^-1 x2^-1"
    folded, evaluated = [], []
    read, fold = REGISTRY[group]
    evaluate_letters = lattice.evaluate_letters

    def counting(word, args):
        folded.append(len(word))
        return fold(word, args)

    def counting_letters(letters, d):
        letters = list(letters)
        evaluated.append(len(letters))
        return evaluate_letters(letters, d)

    monkeypatch.setitem(REGISTRY, group, (read, counting))
    monkeypatch.setattr(lattice, "evaluate_letters", counting_letters)
    assert main(["eq", "--group", group, "--d", "3", word, f"{word} {comm}"]) == (
        0 if group == "abelian" else 1
    )
    assert capsys.readouterr().out == ("equal\n" if group == "abelian" else "unequal\n")
    assert folded and sum(folded) <= len(comm.split()) + 2
    assert sum(evaluated) <= len(comm.split()) + 2


@pytest.mark.parametrize("group", [group for group in REGISTRY if group != "satellite"])
def test_eq_reports_the_first_words_error(group, capsys):
    assert main(["eq", "--group", group, "--d", "2", "x1 x9", "x1 y2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: generator index 9 out of range 1..2\n"


def test_eq_satellite_reports_the_first_words_error(capsys):
    assert main(["eq", "--group", "satellite", "x w", "x v"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown generator 'w'")


@pytest.mark.parametrize("group", ["abelian", "heisenberg", "metabelian"])
def test_eq_keeps_the_per_word_limit(group, monkeypatch, capsys):
    # Rank 3 times 40 letters passes a limit of 100, although the two words
    # are equal and their quotient is empty.
    monkeypatch.setattr(words, "MAX_LETTERS", 100)
    word = " ".join(["x1 x2"] * 20)
    assert main(["eq", "--group", group, "--d", "3", word, word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rank 3 times word length 40 is more than 100\n"
    short = " ".join(["x1 x2"] * 16)
    assert main(["eq", "--group", group, "--d", "3", short, short]) == 0


@pytest.mark.parametrize("name", BAD_PERTURB)
def test_beta_rejects_malformed_perturbation(name, capsys):
    assert main(["beta", "--k", "2", "--perturb", str(DATA / name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_beta_sums_entries_of_one_vertex(tmp_path, capsys):
    # An empty entry after a forbidden origin shift adds zero to it; it does
    # not replace it.
    hidden = tmp_path / "hidden_origin.json"
    hidden.write_text(
        '[{"vertex": [0, 0], "plaquettes": [{"base": [0, 0], "i": 1, "j": 2, "mult": 1}]},'
        ' {"vertex": [0, 0], "plaquettes": []}]',
        encoding="utf-8",
    )
    message = "error: a nonzero shift at the origin breaks normalization"
    assert main(["beta", "--k", "2", "--perturb", str(hidden)]) == 2
    assert capsys.readouterr() == ("", message + "\n")

    commands = tmp_path / "commands.txt"
    commands.write_text(f"beta --k 2 --perturb {hidden}\nreduce --d 2 x1\n", encoding="utf-8")
    assert main(["batch", str(commands)]) == 0
    assert capsys.readouterr() == (f"{message}\nx1\n", "")


def test_nested_perturbation_is_a_bad_file(tmp_path, capsys):
    # Nested past the JSON parser's recursion limit.
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 10**5 + "]" * 10**5, encoding="utf-8")
    assert main(["beta", "--k", "2", "--perturb", str(nested)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad perturbation file {str(nested)!r}")
    assert captured.err.count("\n") == 1

    commands = tmp_path / "commands.txt"
    commands.write_text(f"beta --k 2\nbeta --k 2 --perturb {nested}\nreduce --d 2 x1\n", encoding="utf-8")
    assert main(["batch", str(commands)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [lines[0], lines[2]] == ["2", "x1"]
    assert lines[1].startswith(f"error: bad perturbation file {str(nested)!r}")
    assert len(lines) == 3 and captured.err == ""


# A file the JSON parser cannot read at all: not JSON, or not UTF-8.
UNREADABLE_PERTURB = {
    "not-json": '[{"vertex": [1, 0], '.encode(),
    "not-utf8": b'[{"vertex": [1, 0], "plaquettes": []}] \xff\xfe',
    "huge-int": b"[" + b"1" * 5000 + b"]",
}


@pytest.mark.parametrize("content", list(UNREADABLE_PERTURB.values()), ids=list(UNREADABLE_PERTURB))
def test_unreadable_perturbation_is_a_bad_file(content, tmp_path, capsys):
    path = tmp_path / "perturb.json"
    path.write_bytes(content)
    assert main(["beta", "--k", "2", "--perturb", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad perturbation file {str(path)!r}: expected ")
    assert captured.err.count("\n") == 1

    commands = tmp_path / "commands.txt"
    commands.write_text(f"beta --k 2 --perturb {path}\nreduce --d 2 x1\n", encoding="utf-8")
    assert main(["batch", str(commands)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith(f"error: bad perturbation file {str(path)!r}: expected ")
    assert lines[1:] == ["x1"] and captured.err == ""


def test_batch_unclosed_quote_marks_only_its_line(capsys):
    assert main(["batch", BATCH_UNCLOSED_QUOTE]) == 0
    assert capsys.readouterr().out == "x1\nerror: No closing quotation\nx2\n"


def test_batch_eq_unclosed_quote_marks_only_its_line(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text('"x1 x2" "x2 x1"\n"x1 x2 x1\nx2 x2\n', encoding="utf-8")
    assert main(["batch", "--eq", "--group", "abelian", str(pairs)]) == 0
    assert capsys.readouterr().out == "equal\nerror: No closing quotation\nequal\n"


def test_batch_line_led_by_negative_vector(tmp_path, capsys):
    commands = tmp_path / "commands.txt"
    commands.write_text("cocycle -1,3 2,0 --json\ncocycle -x 1,0\n", encoding="utf-8")
    assert main(["batch", str(commands)]) == 0
    golden = (GOLDEN / "cocycle_negative.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden + "error: bad arguments\n"


@pytest.mark.parametrize("vector", ["1_0,2", "0x1,0", "1e3,0", "1.0,0", "1,,0", "", "1,0,"])
def test_cocycle_vector_outside_integer_grammar_refused(vector, capsys):
    # Parts follow the word-exponent grammar; int() alone reads 1_0 as 10.
    assert main(["cocycle", vector, "3,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad vector {vector!r}; expected comma-separated integers\n"


def test_cocycle_vector_keeps_signs_blanks_and_unicode_digits(capsys):
    assert main(["cocycle", "--json", " +1 , 0", "\u0660,\u0661"]) == 0
    out = capsys.readouterr().out
    assert main(["cocycle", "--json", "1,0", "0,1"]) == 0
    assert capsys.readouterr().out == out


# Inputs whose eager expansion used to run without end, and ranks whose fold
# (a d-tuple copied per letter) used to exhaust memory or run for minutes.
HUGE = {
    "abelian": ["eval", "--group", "abelian", "--d", "1", "x1^99999999999"],
    "satellite": ["eval", "--group", "satellite", "--k", "1", "z^99999999999"],
    "cocycle": ["cocycle", "99999999999,0", "0,1"],
    "abelian-rank": ["eval", "--group", "abelian", "--d", "1000000000", "x1"],
    "metabelian-rank": ["eval", "--group", "metabelian", "--d", "200000", "x1^5000"],
    "heisenberg-rank": ["eval", "--group", "heisenberg", "--d", "200000", "x1^5000"],
    "eq-rank": ["eq", "--group", "metabelian", "--d", "1000000000", "x1", "x1"],
    "decompose-rank": ["decompose", "--d", "1000000000", ""],
    # 4002 letters whose loop bounds 1000 * 1001 plaquettes; in d = 3 the
    # peel took 19 s to reach the limit.
    "decompose-plaquettes": ["decompose", "--d", "2", "x1^1000 x2^1001 x1^-1000 x2^-1001"],
    "decompose-plaquettes-d3": ["decompose", "--d", "3", "x1^1000 x2^1001 x1^-1000 x2^-1001"],
    # 1.6 KB of text asking for 400 * 319200 rectangle edge coordinates.
    "cocycle-rectangles": ["cocycle", ",".join(["1"] * 400), ",".join(["1"] * 400)],
    "area-rank": ["area", "--d", "200000", "x1^5000"],
    "fox-rank": ["fox", "--d", "1000000000", "x1"],
}


@pytest.mark.parametrize("argv", list(HUGE.values()), ids=list(HUGE))
def test_huge_input_refused(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_digits_past_int_limit_read_like_short_ones(capsys):
    # int() refuses more than 4300 digits from CPython 3.10.7 on, leading
    # zeros too: such exponents, vector parts and generator indices get the
    # answer or the error of their short equivalents.
    nines = "9" * 5000
    assert main(["reduce", "--d", "2", f"x2 x1^{nines} x3"]) == 2
    assert capsys.readouterr() == ("", "error: word expands to more than 1000000 letters\n")
    assert main(["reduce", "--d", "2", "x1^" + "0" * 4400 + "3"]) == 0
    assert capsys.readouterr().out == "x1^3\n"
    for vector in (f"{nines},0", "1" * 4300 + ",0"):
        assert main(["cocycle", vector, "0,1"]) == 2
        assert capsys.readouterr().err == (
            f"error: vector {vector!r} is longer than 1000000 unit steps\n"
        )
    assert main(["reduce", "--d", "2", "x" + "1" * 5000]) == 2
    assert capsys.readouterr().err == f"error: generator index {'1' * 5000} out of range 1..2\n"
    assert main(["cocycle", "--json", "-" + "0" * 5000 + "2,1", "3,0"]) == 0
    out = capsys.readouterr().out
    assert main(["cocycle", "--json", "-2,1", "3,0"]) == 0
    assert capsys.readouterr().out == out


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="+-0123456789_\u0663x", max_size=6))
@example("0" * 5000)
@example("-" + "0" * 5000)
@example("-" + "0" * 5000 + "2")
def test_vector_parts_and_exponents_read_one_grammar(text):
    # A vector part is refused exactly when the same text is refused as an
    # exponent. Zero is the one value read apart: a zero exponent is its own
    # error, while a zero part is a coordinate like any other. "--" keeps a
    # text led by "-" a vector, not an option.
    vector = _run_main(["cocycle", "--", f"{text},0", "0,1"])
    word = _run_main(["reduce", "--d", "1", f"x1^{text}"])
    bad_vector = vector[2] == f"error: bad vector {text + ',0'!r}; expected comma-separated integers\n"
    bad_exponent = word[2] == f"error: bad exponent in token {'x1^' + text!r}\n"
    assert bad_vector == bad_exponent
    if not bad_vector:
        assert vector[::2] == (0, "")
        assert word[::2] in ((0, ""), (2, f"error: zero exponent in token {'x1^' + text!r}\n"))


def test_area_rank_error_names_no_decomposition(capsys):
    # area and decompose share one rank check, and area decomposes nothing.
    assert main(["area", "--d", "3", "x1"]) == 2
    assert capsys.readouterr().err == "error: needs a planar flow of rank 2, got rank 3\n"


def test_cocycle_rank_times_edges_at_the_limit(monkeypatch, capsys):
    # Three rectangles of 4 edges each in rank 3: 36 edge coordinates.
    monkeypatch.setattr(words, "MAX_LETTERS", 36)
    assert main(["cocycle", "1,1,1", "1,1,1"]) == 0
    monkeypatch.setattr(words, "MAX_LETTERS", 35)
    assert main(["cocycle", "1,1,1", "1,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: rank 3 times 12 cocycle edges is more than 35\n"


def test_rank_at_the_bound_costs_linear_time(capsys):
    # The empty word's cycle check at rank 10^6 once built all d unit vectors.
    assert main(["decompose", "--d", str(10**6), "--json", ""]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_free_group_ignores_rank_bound(capsys):
    # Free reduction never builds a d-tuple, so a huge rank costs nothing.
    assert main(["reduce", "--d", "1000000000", "x1 x7^2 x7^-1"]) == 0
    assert capsys.readouterr().out == "x1 x7\n"


def test_batch_bad_lines_write_only_markers(tmp_path, monkeypatch, capsys):
    # A refused line builds no usage text, which nothing would read; main
    # still writes it for the same argv.
    usages = []
    format_usage = argparse.ArgumentParser.format_usage

    def counting(self):
        usages.append(self.prog)
        return format_usage(self)

    monkeypatch.setattr(argparse.ArgumentParser, "format_usage", counting)
    commands = tmp_path / "commands.txt"
    commands.write_text(
        "frobnicate x1\neval --group abelian\neval --group bogus x1\neval -h\n",
        encoding="utf-8",
    )
    assert main(["batch", "--json", str(commands)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "error: bad arguments\n" * 4
    assert captured.err == ""
    assert usages == []
    assert main(["eval", "--group", "abelian"]) == 2
    assert capsys.readouterr().err.startswith("usage: latticegroups eval ")
    assert usages == ["latticegroups eval"]


def test_batch_help_lines_format_no_help(tmp_path, monkeypatch, capsys):
    # A batch line's help text would be dropped, so none is built; main
    # still prints the verb's whole help.
    helps = []
    format_help = argparse.ArgumentParser.format_help

    def counting(self):
        helps.append(self.prog)
        return format_help(self)

    monkeypatch.setattr(argparse.ArgumentParser, "format_help", counting)
    commands = tmp_path / "commands.txt"
    commands.write_text("eval -h\nfox --help\n", encoding="utf-8")
    assert main(["batch", str(commands)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "error: bad arguments\n" * 2
    assert captured.err == ""
    assert helps == []
    assert main(["eval", "-h"]) == 0
    assert capsys.readouterr().out == format_help(cli._parser()[1]["eval"][0])
    assert helps == ["latticegroups eval"]


@pytest.fixture
def empty_word_tables():
    words._TOKENS.clear()
    words._WORDS.clear()


def test_batch_reads_each_word_text_once(tmp_path, monkeypatch, capsys, empty_word_tables):
    # One word under every verb that reads it, and a satellite word under
    # eval and both member tests: each text is expanded once, and every line
    # answers as it does alone.
    expanded = []
    expand = words._expand

    def counting(text, *rest):
        expanded.append(text)
        return expand(text, *rest)

    monkeypatch.setattr(words, "_expand", counting)
    word = " ".join(random.Random(5).choice(("x1", "x2", "x3^-1", "x2^2")) for _ in range(200))
    lines = [
        f"reduce --d 3 --json '{word}'",
        f"eval --group metabelian --d 3 --json '{word}'",
        f"eval --group heisenberg --d 3 '{word}'",
        f"nf --d 3 '{word}'",
        f"fox --d 3 --json '{word}'",
        f"eq --group metabelian --d 3 '{word}' '{word} x1 x2 x1^-1 x2^-1'",
        f"reduce --d 2 '{word}'",
        "eval --group satellite --k 2 'x y x^-1 y^-1 z^-2'",
        "member --sub M --k 3 'x y x^-1 y^-1 z^-2'",
        "member --sub commutant --k 2 --json 'x y x^-1 y^-1 z^-2'",
        "eq --group satellite --k 2 'x y x^-1 y^-1' 'z^2'",
    ]
    commands = tmp_path / "commands.txt"
    commands.write_text("".join(f"{line}\n{line}\n" for line in lines), encoding="utf-8")
    assert main(["batch", str(commands)]) == 0
    got = capsys.readouterr().out.splitlines()
    # The refused rank-2 read is expanded each time; the others once.
    assert expanded == [
        word, f"{word} x1 x2 x1^-1 x2^-1", word, word, "x y x^-1 y^-1 z^-2", "x y x^-1 y^-1", "z^2"
    ]
    alone = []
    for line in lines:
        main(shlex.split(line))
        captured = capsys.readouterr()
        alone.append(captured.out.rstrip("\n") or "error: " + captured.err.removeprefix("error: ").rstrip("\n"))
    assert got == [answer for answer in alone for _ in range(2)]
    assert alone[6] == "error: generator index 3 out of range 1..2"


def test_output_is_deterministic(capsys):
    argv = ["eval", "--group", "metabelian", "--d", "2", "--json", "x1 x2 x1^-1 x2^-1"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "obj",
    [
        {"verdict": "equal"},
        {"verdict": "unequal"},
        {"area": 0},
        {"area": -12},
        {"area": 10**29 + 7},
        {"area": -(10**29)},
        {"beta": -3},
        {"beta": 2},
        {"member": True},
        {"member": False},
    ],
)
def test_small_documents_match_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_eq_error_exit_code(capsys):
    assert main(["eq", "--group", "metabelian", "--d", "2", "x1", "y1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_error_never_emits_partial_json(capsys):
    assert main(["area", "--d", "2", "--json", "x1 x2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_rank_guard_via_cli(capsys):
    assert main(["eval", "--group", "metabelian", "--d", "2", "--json", "x3"]) == 2
    assert capsys.readouterr().out == ""


def test_package_errors_are_value_errors():
    # cli._ERRORS names ValueError for all of them.
    errors = [
        value
        for value in map(vars(latticegroups).__getitem__, latticegroups.__all__)
        if isinstance(value, type) and issubclass(value, BaseException)
    ]
    assert len(errors) >= 4
    assert all(issubclass(error, ValueError) for error in errors), errors


def test_folds_take_the_checked_word(tmp_path, monkeypatch, capsys):
    # A Word read once reaches the letter check itself, which passes it through.
    received = []
    checked_letters = words._checked_letters

    def spy(letters, d):
        received.append(letters)
        return checked_letters(letters, d)

    monkeypatch.setattr(lattice, "_checked_letters", spy)
    monkeypatch.setattr(satellite, "_checked_letters", spy)
    word = parse_word("x1 x2^3 x1^-1", 2)
    lattice.evaluate_path(word)
    assert len(received) == 1 and received[0] is word
    lines = [
        ["eval", "--group", "satellite", "--k", "2", "x y^2 z"],
        ["eq", "--group", "satellite", "x y", "y x z"],
        ["member", "--sub", "M", "x y x^-1 y^-1"],
    ]
    for argv in lines:
        received.clear()
        main(argv)
        assert received and all(type(letters) is Word for letters in received), argv
    received.clear()
    path = tmp_path / "lines.txt"
    path.write_text("\n".join(map(shlex.join, lines)) + "\n", encoding="utf-8")
    assert main(["batch", str(path)]) == 0
    assert len(received) >= 4 and all(type(letters) is Word for letters in received)
    capsys.readouterr()


def test_thin_adapter_matches_module(capsys):
    word = "x1^2 x2 x1^-2 x2^-1"
    elem = MetabelianElement.from_word(parse_word(word, 2))
    main(["nf", "--d", "2", "--json", word])
    assert capsys.readouterr().out == elem.as_json() + "\n"
    main(["nf", "--d", "2", word])
    assert capsys.readouterr().out == str(elem) + "\n"


def test_batch_missing_file(capsys):
    assert main(["batch", str(DATA / "no_such_file.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_batch_empty_file(tmp_path, capsys):
    # Zero input lines, zero result lines: not one blank line.
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert main(["batch", str(empty)]) == 0
    assert capsys.readouterr() == ("", "")


def _count_builds(monkeypatch):
    """The list that grows by one entry per parser build from now on."""
    builds = []
    build = cli._build_parser

    def counting_build():
        builds.append(None)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting_build)
    return builds


@pytest.mark.parametrize(
    "argv",
    [["batch", BATCH_COMMANDS], ["batch", "--eq", "--group", "metabelian", "--d", "2", BATCH_PAIRS]],
    ids=["plain", "eq"],
)
def test_batch_builds_one_parser_per_call(argv, monkeypatch, capsys):
    # A batch call in a process that holds no parser yet builds one for all
    # its lines; a second call reuses it.
    builds = _count_builds(monkeypatch)
    cli._parser.cache_clear()
    assert main(argv) == 0
    assert capsys.readouterr().out.count("\n") > 1
    assert len(builds) == 1
    assert main(argv) == 0
    assert len(builds) == 1


def test_one_parser_per_process(monkeypatch, capsys):
    calls = [
        (["reduce", "x1 x1^-1 x2"], 0),
        (["batch", BATCH_COMMANDS], 0),
        (["batch", "--eq", "--group", "metabelian", "--d", "2", BATCH_PAIRS], 0),
        (["frobnicate"], 2),
        (["-h"], 0),
    ]
    builds = _count_builds(monkeypatch)
    cli._parser.cache_clear()
    for argv, code in calls:
        assert main(argv) == code
    assert capsys.readouterr().out.count("\n") > len(calls)
    assert len(builds) == 1
    # A process that already holds a parser builds none.
    for argv, code in calls:
        assert main(argv) == code
    assert len(builds) == 1


def _alone(line):
    """What batch should print for ``line``: the line's stdout when it runs
    alone through ``main``, its ``error:`` message, or the marker of a line
    argparse refuses (``-h`` included) or of a nested batch."""
    tokens = shlex.split(line)
    if tokens[0] == "batch":
        return "error: batch cannot be nested"
    code, out, err = _run_main(tokens)
    if err.startswith("error: "):
        return err.removesuffix("\n")
    if code == 2 or "-h" in tokens:
        return "error: bad arguments"
    return out.removesuffix("\n")


# Lines that would leak state between batch lines if a reused parser kept
# any: help, missing required options, per-verb --group defaults read after
# other groups, store_true and --k defaults after lines that set them, a
# refused group, a nested batch, and the cocycle negative-number pattern.
REUSE_LINES = [
    "eval -h",
    "-h",
    'eval --d 2 "x1 x2"',
    'eval --group abelian --d 2 "x1 x2"',
    'reduce --d 2 "x1 x1^-1 x2"',
    'eval --group heisenberg --d 2 --json "x1 x2"',
    'nf --d 2 "x1 x2 x1^-1"',
    "nf --group free --d 2 x1",
    'eval --group metabelian --d 3 "x1 x3"',
    'nf "x1 x2"',
    'eq --group satellite --k 2 "x y x^-1 y^-1" z^2',
    "member --sub N z",
    "member --sub M --k 3 --json z^3",
    "member --sub M z^3",
    "batch lines.txt",
    "cocycle -1,3 2,0 --json",
    "cocycle 1,0 0,1",
    "beta --k 3",
    "beta",
    "eval --group free x1 -h",
    'area --d 2 "x1 x2"',
    'area --d 2 "x1 x2 x1^-1 x2^-1"',
]


# Where a verb's own subparser could read argv otherwise than the full
# parser does: leftover arguments, abbreviated and "=" options, "--" before a
# word led by "-", vectors that look like negative numbers, repeated options,
# help after the positionals, no verb, a leading option, a verb's wrong case.
PARSE_CASES = [shlex.split(line) for line in REUSE_LINES] + [
    ["reduce", "x1", "x2"],
    ["area", "--d", "2", "x1", "--bogus"],
    ["eval", "--gr", "abelian", "--js", "x1"],
    ["eval", "--d=3", "--group=abelian", "x1"],
    ["reduce", "--", "-x1"],
    ["cocycle", "-1,3", "-2,0"],
    ["eval", "--group", "free", "--group", "abelian", "--d", "2", "--d", "3", "x1"],
    ["eq", "--group", "free", "x1", "x2", "-h"],
    [],
    ["--help"],
    ["Reduce", "x1"],
    ["beta", "--k", "-2", "--json", "--json"],
    ["cocycle", "-3,3", "0,-3"],
    ["eval", "--group", "abelian", "--d", " 4", "x1"],
    ["eval", "--group", "abelian", "--d", "x", "--d", "3", "x1"],
    ["eval", "--d", "3", "x1"],
    ["eval", "x1", "--group", "abelian", "--d"],
    ["member", "--sub", "Q", "z"],
    ["batch", "--eq", "lines.txt", "--k", "-1"],
]


def _parse_outcome(parse, argv):
    """The Namespace, or the SystemExit code, with what was written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CASES, ids=[shlex.join(argv) or "none" for argv in PARSE_CASES])
def test_parse_matches_full_parser(argv):
    parser, _ = cli._parser()
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(parser.parse_args, argv)


def test_fast_read_takes_only_negative_numbers_led_by_dash():
    # A "-"-led value or positional that is no negative number, or a missing
    # value, is left to argparse.
    parser, _ = cli._parser()
    for argv in (
        ["beta", "--perturb", "-x"],
        ["eval", "--group", "free", "--d", "-1_0", "x1"],
        ["reduce", "--d", "2", "-x1"],
        ["member", "--sub", "M", "--k"],
        ["cocycle", "-1,3", "-"],
    ):
        assert cli._read_argv(argv) is None, argv
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(parser.parse_args, argv)
    for argv in (["beta", "--k", "-2"], ["cocycle", "-1,3", "2,-0"], ["eval", "--group", "free", "--d", "-3", "x1"]):
        assert cli._read_argv(argv) == _parse_outcome(parser.parse_args, argv)[0], argv


# Each verb's options; "frobnicate" is no verb.
_VERB_OPTIONS = {
    "reduce": ("--d", "--json"), "eval": ("--group", "--d", "--k", "--json"),
    "eq": ("--group", "--d", "--k", "--json"), "nf": ("--group", "--d", "--json"),
    "decompose": ("--d", "--json"), "area": ("--d", "--json"), "cocycle": ("--json",),
    "beta": ("--k", "--perturb", "--json"), "fox": ("--d", "--json"),
    "member": ("--sub", "--k", "--json"), "batch": ("--group", "--d", "--k", "--json", "--eq"),
    "frobnicate": ("--d",),
}
_INTS = st.sampled_from(("3", "-2", "+1", " 4", "1_0", "\u0663", "x"))
_OPTION_VALUES = {
    "--group": st.sampled_from((*REGISTRY, "bogus", "")),
    "--sub": st.sampled_from((*SUBGROUPS, "Q", "m")),
    "--d": _INTS,
    "--k": _INTS,
    "--perturb": st.sampled_from(("perturb.json", "-p.json")),
}
# Words and vectors: empty, with spaces, led by "-", or read as negative numbers.
_PARSE_WORDS = st.one_of(
    st.just("x1"), st.sampled_from(("", "x1 x2", " ", "-x1", "-", "-3", "-1,3", "2,0", "-1, 3", "3,-3"))
)


@st.composite
def _parse_argv(draw):
    """A verb, or an unknown one, with its options shuffled and repeated,
    exact, abbreviated or as "--opt=value", its positionals (or 0 to 3 of
    them), and now and then "--", help or an unknown option."""
    verb = draw(st.sampled_from(sorted(_VERB_OPTIONS)))
    pieces = []
    for option in draw(st.lists(st.sampled_from(_VERB_OPTIONS[verb]), max_size=6)):
        form = draw(st.integers(0, 9))
        name = option[: max(3, len(option) - 2)] if form == 0 else option
        value = draw(_OPTION_VALUES[option]) if option in _OPTION_VALUES else None
        if value is None:
            pieces.append([name])
        else:
            pieces.append([f"{name}={value}"] if form == 1 else [name, value])
    count = draw(st.one_of(st.just(_VERBS.get(verb, 1)), st.integers(0, 3)))
    pieces += [[draw(_PARSE_WORDS)] for _ in range(count)]
    if draw(st.integers(0, 5)) == 0:
        pieces.append([draw(st.sampled_from(("--", "-h", "--help", "--bogus")))])
    return [verb, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@settings(max_examples=400, deadline=None)
@given(_parse_argv())
def test_drawn_parse_matches_full_parser(argv):
    parser, _ = cli._parser()
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(parser.parse_args, argv)


def test_batch_parses_each_line_once(tmp_path, monkeypatch, capsys):
    # A call or line of exact options, their values and positionals is read
    # without argparse; an abbreviated option or "--opt=value" takes one
    # parse_known_args, its verb's, and answers as the plain line does.
    plain = ['reduce "x1 x1^-1 x2"', "cocycle -1,3 2,0", "beta --k -2", "eq --group free x1 x1", "eval --group abelian --d 3 x1"]
    commands = tmp_path / "commands.txt"
    commands.write_text("\n".join(plain) + "\n", encoding="utf-8")
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main(["batch", str(commands)]) == 0
    answers = capsys.readouterr().out
    assert "error" not in answers and calls == []
    for line in ("eval --gro abelian --d 3 x1", "eval --group abelian --d=3 x1"):
        commands.write_text(line + "\n", encoding="utf-8")
        assert main(["batch", str(commands)]) == 0
        assert capsys.readouterr().out == answers.split("\n")[-2] + "\n"
        assert calls == ["latticegroups eval"]
        calls.clear()
        assert main(shlex.split(line)) == 0
        assert capsys.readouterr().out == "(1, 0, 0)\n" and calls == ["latticegroups eval"]
        calls.clear()


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_batch_line_matches_line_alone(order, tmp_path, capsys):
    lines = REUSE_LINES[::order]
    commands = tmp_path / "commands.txt"
    commands.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["batch", str(commands)]) == 0
    results = capsys.readouterr().out.split("\n")
    assert results.pop() == ""
    assert results == [_alone(line) for line in lines]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_reused_parser_matches_fresh_parser(order, tmp_path, monkeypatch):
    # Successive main calls share one parser; each must answer as the same
    # argv does on a parser built for it alone. "batch lines.txt" runs every
    # line again inside one call.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lines.txt").write_text("\n".join(REUSE_LINES) + "\n", encoding="utf-8")
    argvs = [shlex.split(line) for line in REUSE_LINES[::order]]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(_run_main(argv))
    cli._parser.cache_clear()
    builds = _count_builds(monkeypatch)
    assert [_run_main(argv) for argv in argvs] == fresh
    assert len(builds) == 1


def test_rebound_handler_is_called(tmp_path, monkeypatch, capsys):
    # The parser holds handler names, not handlers: a handler rebound after
    # the parser was built is the one that runs, in main and in batch lines.
    assert main(["area", "--d", "2", "x1 x2 x1^-1 x2^-1"]) == 0
    assert capsys.readouterr().out == "1\n"
    words = []

    def stub(args):
        words.append(args.word)
        return "stub", 0

    monkeypatch.setattr(cli, "_cmd_area", stub)
    commands = tmp_path / "commands.txt"
    commands.write_text('area --d 2 "x2 x1"\n', encoding="utf-8")
    assert main(["area", "--d", "2", "x1 x2"]) == 0
    assert main(["batch", str(commands)]) == 0
    assert capsys.readouterr().out == "stub\nstub\n"
    assert words == ["x1 x2", "x2 x1"]


@pytest.mark.parametrize(
    "line",
    ["reduce x1\freduce x2", 'eval --group free "x1\u2028x2"', "reduce\x85x1", "reduce x1\u2029x2\vx1"],
    ids=["formfeed", "line-separator", "next-line", "paragraph-separator"],
)
def test_batch_splits_lines_only_at_newline(line, tmp_path, capsys):
    commands = tmp_path / "commands.txt"
    commands.write_text(f"{line}\nreduce x1\n", encoding="utf-8")
    assert main(["batch", str(commands)]) == 0
    assert capsys.readouterr().out == f"{_alone(line)}\nx1\n"


def test_batch_reads_crlf_lines(tmp_path, capsys):
    # shlex reads a stray "\r" as a space, except after a backslash, so the
    # last line shows whether the "\r" before each "\n" is dropped.
    lines = ['reduce "x1 x1^-1 x2"', "", "cocycle -1,3 2,0 --json", "reduce x1\\"]
    commands = tmp_path / "commands.txt"
    commands.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert main(["batch", str(commands)]) == 0
    golden = (GOLDEN / "cocycle_negative.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == "x2\n\n" + golden + "error: No escaped character\n"


def _split_outcome(split, line):
    try:
        return split(line)
    except ValueError as error:
        return type(error), str(error)


# Quotes, escapes, the four blanks shlex splits at, and breaks it does not.
_LINE_PIECES = st.sampled_from(
    (" ", "  ", "\t", "\r", "\n", "'", '"', "\\", "\\\\", "\\\"", "x1", "x1 x2^-1", "-h", "#", "$",
     "\f", "\v", "\u2028", "\x85", "\u00e9", "''", '""')
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_LINE_PIECES, max_size=12).map("".join))
@example('"a\\\nb\\')
@example("reduce x1\\")
def test_split_line_matches_shlex(line):
    assert _split_outcome(cli._split_line, line) == _split_outcome(shlex.split, line)


# No '"' and no backslash: the arguments are unquoted by dropping their
# single quotes, closed, empty or unclosed (odd counts), beside the four
# blanks shlex splits at and breaks it does not.
_SINGLE_QUOTED_PIECES = st.sampled_from(
    (" ", "  ", "\t", "\r", "\n", "'", "''", "'''", "x1", "x1 x2^-1", "-h", "--d", "#", "$",
     "\f", "\v", "\u2028", "\x85", "\u00e9")
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_SINGLE_QUOTED_PIECES, max_size=12).map("".join))
@example("eval --d 2 'x1 x2'x1''")
@example("reduce 'x1 x2' '")
def test_split_line_without_double_quotes_matches_shlex(line):
    assert _split_outcome(cli._split_line, line) == _split_outcome(shlex.split, line)


def test_split_line_reads_a_long_argument():
    # shlex grows an argument one character at a time, so an argument of
    # 2 * 10^6 characters took minutes there.
    word = "x1 x2^-1 " * 250_000
    assert cli._split_line(f'eq "{word}" \'{word}\'') == ["eq", word, word]


def test_nf_rejects_other_groups(capsys):
    assert main(["nf", "--group", "free", "--d", "2", "x1"]) == 2


# --- the cyclic garbage collector: paused for one command ------------------

# A refused input of every verb: one error: line, exit 2.
REFUSED = [
    (["reduce", "--d", "2", "x3"], 2),
    (["eval", "--group", "metabelian", "--d", "2", "x1^0"], 2),
    (["eq", "--group", "abelian", "--d", "2", "x1", "x1^"], 2),
    (["nf", "--d", "2", "y"], 2),
    (["decompose", "--d", "2", "x1"], 2),
    (["area", "--d", "3", "x1 x2 x1^-1 x2^-1"], 2),
    (["cocycle", "1,0", "0,1,2"], 2),
    (["beta", "--perturb", str(DATA / BAD_PERTURB[0])], 2),
    (["fox", "--d", "2", "x1 w"], 2),
    (["member", "--sub", "M", "x^1.5"], 2),
    (["batch", str(DATA / "none.txt")], 2),
]
# What argparse refuses (exit 2) or answers with help (exit 0).
ARGPARSE_EXITS = [
    (["eval", "x1"], 2),
    (["frobnicate", "x1"], 2),
    (["reduce", "--bogus", "x1"], 2),
    ([], 2),
    (["-h"], 0),
    (["eval", "-h"], 0),
]
COMMANDS = [(argv, code) for _, argv, code in MATRIX] + REFUSED


def _collector_batch(tmp_path):
    """A batch file of mixed lines: answers, refusals, argparse fallback
    lines, help lines, unknown verbs, an unclosed quote and a nested batch."""
    lines = [*REUSE_LINES, "frobnicate x1", "eval --gro abelian --d=3 x1", 'reduce "x1', "", "eval -h x1"]
    path = tmp_path / "lines.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["batch", str(path)], 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_was(enabled, tmp_path, capsys):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in [*COMMANDS, *ARGPARSE_EXITS, _collector_batch(tmp_path)]:
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()


def test_command_runs_with_the_collector_paused(tmp_path, monkeypatch, capsys):
    seen = []

    def stub(args):
        seen.append(gc.isenabled())
        return "stub", 0

    monkeypatch.setattr(cli, "_cmd_area", stub)
    commands = tmp_path / "commands.txt"
    commands.write_text('area --d 2 "x2 x1"\n', encoding="utf-8")
    was = gc.isenabled()
    gc.enable()
    try:
        assert main(["area", "--d", "2", "x1 x2"]) == 0
        assert main(["batch", str(commands)]) == 0
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    # main runs with the collector paused, so a command that left reference
    # cycles would hold their memory until the caller's next collection.
    # Usage and help text printed by argparse is left out: its formatter and
    # sections refer to each other, a few cycles per call. A batch line
    # formats none, and its file holds argparse's refusals and help lines.
    cli._parser()
    was = gc.isenabled()
    gc.disable()
    try:
        for argv, code in [*COMMANDS, _collector_batch(tmp_path)]:
            gc.collect()
            assert main(argv) == code, argv
            assert gc.collect() == 0, argv
    finally:
        if was:
            gc.enable()


# --- fuzz: the CLI contract for any argv and any batch file -----------------

_NAMES = ("x1", "x2", "x3", "x4", "x", "y", "z")
_NUMBERS = ("-3", "-1", "0", "1", "2", "3", "4", "1000000000", "-99999999999", str(10**30))
# The alphabet holds the breaks other than "\n" that str.splitlines knows,
# which batch reads as ordinary characters inside a line.
_NOISE = st.text(alphabet="xyz^0123456789-. '\"\v\f\x1c\x1d\x1e\x85\u2028\u2029", max_size=14)


def _word(digits):
    """Word text over x1..x4, x, y, z with exponents of up to ``digits``
    digits, or noise over the same alphabet."""
    exponent = st.integers(1, 10**digits - 1).flatmap(
        lambda n: st.sampled_from((f"^{n}", f"^-{n}", f"^+{n}"))
    )
    token = st.tuples(st.sampled_from(_NAMES), st.one_of(st.just(""), exponent)).map("".join)
    words = st.tuples(
        st.lists(token, max_size=4), st.sampled_from((" ", ".", " . "))
    ).map(lambda parts: parts[1].join(parts[0]))
    return st.one_of(words, _NOISE)


_VECTOR = st.one_of(st.from_regex(r"-?[0-9]{1,3}(,-?[0-9]{1,3}){0,2}", fullmatch=True), _NOISE)

# verb -> number of positionals. Unknown verbs check argparse's refusal.
_VERBS = {
    "reduce": 1, "eval": 1, "eq": 2, "nf": 1, "decompose": 1, "area": 1,
    "cocycle": 2, "beta": 0, "fox": 1, "member": 1, "frobnicate": 1,
}
_PERTURB_FILES = (PERTURB, *(str(DATA / name) for name in BAD_PERTURB), str(DATA / "none.json"))
_FLAGS = {
    "--group": st.sampled_from((*REGISTRY, "bogus")),
    "--d": st.one_of(st.sampled_from(_NUMBERS), st.integers(-5, 5).map(str)),
    "--k": st.one_of(st.sampled_from(_NUMBERS), st.integers(-5, 5).map(str)),
    "--sub": st.sampled_from((*SUBGROUPS, "Q")),
    "--perturb": st.sampled_from(_PERTURB_FILES),
    "--json": st.just(None),
}


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(sorted(_VERBS)))
    argv = [verb]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS)), unique=True, max_size=5)):
        value = draw(_FLAGS[flag])
        argv += [flag] if value is None else [flag, value]
    # Plaquette decomposition costs the square of the exponents (up to
    # MAX_LETTERS plaquettes), so its words keep two-digit exponents; the rest
    # take three.
    digits = 2 if verb == "decompose" else 3
    positional = _VECTOR if verb == "cocycle" else _word(digits)
    argv += [draw(positional) for _ in range(_VERBS[verb])]
    return argv


def _run_main(argv):
    """``main(argv)`` with stdout and stderr captured; a raise fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_json_lines(text):
    for line in text.splitlines():
        if line.strip():
            json.loads(line)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
@example(["eval", "--group", "abelian", "--d", "1000000000", "--json", "x1"])
@example(["decompose", "--d", "-3", "--json", ""])
def test_fuzz_argv_keeps_contract(argv):
    code, out, err = _run_main(argv)
    assert code in (0, 1, 2)
    if "--json" in argv:
        _check_json_lines(out)


@st.composite
def _batch_file(draw):
    lines = draw(
        st.lists(
            st.tuples(
                st.one_of(
                    _argv().map(shlex.join),
                    _NOISE,
                    st.sampled_from(("", "eval -h", "batch lines.txt", "-h")),
                ),
                st.sampled_from(("\n", "\r\n")),
            ),
            max_size=6,
        )
    )
    return "".join(line + end for line, end in lines), [line for line, _ in lines]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_batch_file(), st.booleans())
def test_fuzz_batch_keeps_contract(batch, json_flag):
    text, lines = batch
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = _run_main(["batch", str(path), *(["--json"] if json_flag else [])])
    assert code == 0
    assert err == ""
    results = out.split("\n")
    assert results.pop() == ""
    assert len(results) == len(lines)
    for line, result in zip(lines, results):
        if result.startswith("error: "):
            continue
        if "--json" in shlex.split(line):
            json.loads(result)


# --- the satellite verbs against perfbench/reference.py ---------------------

ref = load_reference()

_SATELLITE_TOKEN = st.tuples(
    st.sampled_from("xyz"),
    st.one_of(
        st.just(""),
        st.integers(1, 9).flatmap(lambda n: st.sampled_from((f"^{n}", f"^-{n}", f"^+{n}"))),
    ),
).map("".join)


def _loop_text(a, b, c, e):
    """x^a y^b z^c x^-a y^-b z^e: a loop, so in N, whose cycle is the a x b
    rectangle at level k plus c unit squares at (a, b) and e at the origin.
    It lies in M when k divides c and e, in the commutant when k divides
    c + e."""
    return " ".join(f"{name}^{n}" for name, n in zip("xyzxyz", (a, b, c, -a, -b, e)) if n)


# Drawn tokens, or a loop that lies in N and, at some levels, in M or the
# commutant.
_SATELLITE_WORD = st.one_of(
    st.tuples(st.lists(_SATELLITE_TOKEN, max_size=8), st.sampled_from((" ", ".", " . "))).map(
        lambda parts: parts[1].join(parts[0])
    ),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda counts: _loop_text(*counts)
    ),
)


@st.composite
def _satellite_command(draw):
    """A satellite eval, eq or member argv with --k -3..3, with or without
    --json, and the stdout line and exit code the reference gives for it.
    eq's second word is a drawn one, or the first times the relator
    [x, y] z^-k, which is equal to it."""
    k = draw(st.integers(-3, 3))
    json_flag = draw(st.booleans())
    verb = draw(st.sampled_from(("eval", "eq", "member")))
    text = draw(_SATELLITE_WORD)
    vec, cycle = ref.satellite(text, k)
    flags = ["--k", str(k), *(["--json"] if json_flag else [])]
    if verb == "eval":
        argv = ["eval", "--group", "satellite", *flags, text]
        if json_flag:
            out = ref.dumps({"k": k, "vec": list(vec), "cycle": ref.flow_json(cycle)})
        else:
            out = f"k={k} vec={ref.fmt_vec(vec)} cycle={ref.fmt_flow(cycle)}"
        return argv, out, 0
    if verb == "eq":
        relator = f"{text} x y x^-1 y^-1" + (f" z^{-k}" if k else "")
        other = draw(st.one_of(_SATELLITE_WORD, st.just(relator)))
        equal = ref.satellite(other, k) == (vec, cycle)
        verdict = "equal" if equal else "unequal"
        argv = ["eq", "--group", "satellite", *flags, text, other]
        return argv, ref.dumps({"verdict": verdict}) if json_flag else verdict, 0 if equal else 1
    sub = draw(st.sampled_from(SUBGROUPS))
    member = ref.member(sub, vec, cycle, k)
    argv = ["member", "--sub", sub, *flags, text]
    return argv, ref.dumps({"member": member}) if json_flag else ("true" if member else "false"), 0


@settings(max_examples=150, deadline=None)
@given(_satellite_command())
def test_satellite_verbs_match_reference(command):
    argv, out, code = command
    assert _run_main(argv) == (code, out + "\n", "")


@settings(max_examples=30, deadline=None)
@given(st.lists(_satellite_command(), min_size=1, max_size=8))
def test_satellite_batch_lines_match_reference(commands):
    # Each line twice: the second read of every word text is a warm one.
    lines = [shlex.join(argv) for argv, _, _ in commands for _ in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = _run_main(["batch", str(path)])
    assert (code, err) == (0, "")
    assert out.split("\n") == [line for _, line, _ in commands for _ in range(2)] + [""]


# --- the indexed verbs against perfbench/reference.py -----------------------

# Straight runs of these lengths give flows, Fox components and
# decompositions arrays of 0, 1, 15, 16, 17 and more rows.
_ROWS = (0, 1, 15, 16, 17, 40)


def _tokens(d, max_size=6):
    """Word tokens (axis, exponent, written with '+') over x1..xd."""
    exponent = st.integers(-9, 9).filter(bool)
    return st.lists(st.tuples(st.integers(1, d), exponent, st.booleans()), max_size=max_size)


def _indexed_tokens(d):
    """Drawn tokens, or a run of one of the _ROWS lengths, alone or followed
    by one more token."""
    run = st.tuples(st.integers(1, d), st.sampled_from(_ROWS)).map(
        lambda drawn: [(*drawn, False)] if drawn[1] else []
    )
    return st.one_of(_tokens(d), run, st.tuples(run, _tokens(d, 1)).map(lambda parts: parts[0] + parts[1]))


def _inverse_tokens(tokens):
    return [(axis, -exponent, False) for axis, exponent, _ in reversed(tokens)]


def _commutator_tokens(a, b):
    return a + b + _inverse_tokens(a) + _inverse_tokens(b)


def _closed(tokens, d):
    """``tokens`` walked back to the origin, along x1, then x2, and so on."""
    ends = [sum(exponent for at, exponent, _ in tokens if at == axis) for axis in range(1, d + 1)]
    return tokens + [(axis, -end, False) for axis, end in enumerate(ends, 1) if end]


def _planar_loop():
    """d = 2 tokens: an a x b rectangle of _ROWS-like plaquette counts, drawn
    tokens walked back to the origin along x1 then x2, or drawn tokens alone,
    which mostly stay open and are refused."""
    sides = st.sampled_from(((1, 1), (3, 5), (4, 4), (17, 1), (5, 7)))
    rectangle = sides.map(lambda ab: [(1, ab[0], False), (2, ab[1], False), (1, -ab[0], False), (2, -ab[1], False)])
    return st.one_of(rectangle, _tokens(2).map(lambda tokens: _closed(tokens, 2)), _tokens(2))


def _token_text(tokens, sep):
    return sep.join(
        f"x{axis}" if exponent == 1 and not plus else f"x{axis}^{'+' if plus and exponent > 0 else ''}{exponent}"
        for axis, exponent, plus in tokens
    )


_SEPARATORS = st.sampled_from((" ", ".", " . "))


def _indexed_answer(verb, group, d, json_flag, texts):
    """The stdout line and exit code perfbench/reference.py gives for one
    indexed verb on its positional ``texts``; None for the line of a refusal."""
    if verb == "cocycle":
        g1, g2 = (tuple(map(int, text.split(","))) for text in texts)
        flow = ref.canonical(g1, g2)
        return (ref.dumps(ref.flow_json(flow)) if json_flag else ref.fmt_flow(flow)), 0
    letters = [ref.parse(text) for text in texts]
    walks = [ref.walk(word, d) for word in letters]
    end, flow = walks[0]
    if verb in ("decompose", "area") and any(end):
        return None, 2
    if verb == "decompose":
        coeffs = ref.plaquettes_2d(flow)
        return (ref.dumps(ref.plaquettes_json(coeffs)) if json_flag else ref.fmt_plaquettes(coeffs)), 0
    if verb == "area":
        value = ref.area_2d(flow)
        return (ref.dumps({"area": value}) if json_flag else str(value)), 0
    if verb == "fox":
        return (ref.dumps(ref.fox_json(end, flow, d)) if json_flag else ref.fmt_fox(end, flow, d)), 0
    if verb == "eq":
        images = [
            {
                "free": ref.free_reduce(word),
                "abelian": end,
                "heisenberg": (end, ref.areas(flow, d)),
                "metabelian": (end, flow),
            }[group]
            for word, (end, flow) in zip(letters, walks)
        ]
        verdict = "equal" if images[0] == images[1] else "unequal"
        return (ref.dumps({"verdict": verdict}) if json_flag else verdict), 0 if images[0] == images[1] else 1
    if group == "free":
        word = ref.word_text(ref.free_reduce(letters[0]))
        return (ref.dumps({"word": word}) if json_flag else word), 0
    if group == "abelian":
        return (ref.dumps({"endpoint": list(end)}) if json_flag else ref.fmt_vec(end)), 0
    if group == "heisenberg":
        areas = ref.areas(flow, d)
        if json_flag:
            return ref.dumps({"endpoint": list(end), "areas": ref.areas_json(areas)}), 0
        return f"endpoint={ref.fmt_vec(end)} areas={ref.fmt_areas(areas)}", 0
    if json_flag:
        return ref.dumps({"endpoint": list(end), "flow": ref.flow_json(flow)}), 0
    return f"endpoint={ref.fmt_vec(end)} flow={ref.fmt_flow(flow)}", 0


def _indexed_argv(verb, group, d, json_flag, texts, k=None):
    """The argv of one indexed verb; ``k``, which no indexed group reads, is
    passed to eval and eq."""
    flags = ["--json"] if json_flag else []
    if verb == "cocycle":
        # After the vectors, which may start with a minus sign.
        return ["cocycle", *texts, *flags]
    if verb in ("eval", "eq"):
        flags = ["--group", group, *(["--k", str(k)] if k is not None else []), *flags]
    return [verb, "--d", str(d), *flags, *texts]


def _indexed_case(verb, group, d, json_flag, texts, k=None):
    return (_indexed_argv(verb, group, d, json_flag, texts, k), *_indexed_answer(verb, group, d, json_flag, texts))


_INDEXED_GROUPS = ("free", "abelian", "heisenberg", "metabelian")
# (verb, group), with None for a group eq draws or a verb that takes none.
_INDEXED_VERBS = (
    ("reduce", "free"), *(("eval", group) for group in _INDEXED_GROUPS), ("nf", "metabelian"),
    ("fox", "metabelian"), ("eq", None), ("decompose", None), ("area", None), ("cocycle", None),
)


@st.composite
def _indexed_command(draw):
    """An indexed verb's argv with --d 1..4 (2 for decompose and area), with
    or without --json and --k -3..3, and its stdout line and exit code by
    the reference.
    eq's second word is a drawn one, the first written with other
    separators, or the first times a commutator or a double commutator: the
    second is equal to it in the abelian group, the third in every group but
    the free one."""
    verb, group = draw(st.sampled_from(_INDEXED_VERBS))
    if verb == "eq":
        group = draw(st.sampled_from(_INDEXED_GROUPS))
    json_flag = draw(st.booleans())
    d = 2 if verb in ("decompose", "area") else draw(st.integers(1, 4))
    if verb == "cocycle":
        vector = st.lists(st.integers(-6, 6), min_size=d, max_size=d).map(lambda v: ",".join(map(str, v)))
        texts = [draw(vector), draw(vector)]
    elif verb in ("decompose", "area"):
        texts = [_token_text(draw(_planar_loop()), draw(_SEPARATORS))]
    else:
        tokens = draw(_indexed_tokens(d))
        texts = [_token_text(tokens, draw(_SEPARATORS))]
        if verb == "eq":
            a, b, c, e = (draw(_tokens(d, 2)) for _ in range(4))
            other = draw(st.one_of(
                _indexed_tokens(d),
                st.just(tokens),
                st.just(tokens + _commutator_tokens(a, b)),
                st.just(tokens + _commutator_tokens(_commutator_tokens(a, b), _commutator_tokens(c, e))),
            ))
            texts.append(_token_text(other, draw(_SEPARATORS)))
    return _indexed_case(verb, group, d, json_flag, texts, draw(st.one_of(st.none(), st.integers(-3, 3))))


@settings(max_examples=300, deadline=None)
@given(_indexed_command())
@example(_indexed_case("cocycle", None, 2, True, ["-1,3", "2,0"]))
@example(_indexed_case("decompose", None, 2, True, ["x1^4 x2^4 x1^-4 x2^-4"]))
@example(_indexed_case("eval", "metabelian", 3, True, ["x2^16"]))
@example(_indexed_case("fox", "metabelian", 4, True, ["x4^-15 x1"]))
@example(_indexed_case("eval", "heisenberg", 1, True, ["x1^-3"]))
def test_indexed_verbs_match_reference(command):
    argv, out, code = command
    got_code, got_out, got_err = _run_main(argv)
    if out is None:
        assert (got_code, got_out) == (code, "")
        assert got_err.startswith("error: ")
    else:
        assert (got_code, got_out, got_err) == (code, out + "\n", "")


@settings(max_examples=30, deadline=None)
@given(st.lists(_indexed_command(), min_size=1, max_size=8))
def test_indexed_batch_lines_match_reference(commands):
    # Each line twice: the second read of every token and word text is a warm one.
    lines = [shlex.join(argv) for argv, _, _ in commands for _ in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = _run_main(["batch", str(path)])
    assert (code, err) == (0, "")
    results = out.split("\n")
    assert results.pop() == ""
    expected = [line for _, line, _ in commands for _ in range(2)]
    assert len(results) == len(expected)
    for result, line in zip(results, expected):
        assert result.startswith("error: ") if line is None else result == line


def _plaquette_boundary(base, i, j, mult):
    """The reference flow of mult times the unit square at ``base`` in the
    (i, j) plane, walked along i, j, back along i, back along j."""
    step_i = tuple(int(axis == i) for axis in range(1, len(base) + 1))
    step_j = tuple(int(axis == j) for axis in range(1, len(base) + 1))
    shifted = [tuple(map(sum, zip(base, step))) for step in (step_i, step_j)]
    return {(tuple(base), i): mult, (shifted[0], j): mult, (shifted[1], i): -mult, (tuple(base), j): -mult}


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 4).flatmap(lambda d: st.tuples(st.just(d), _tokens(d, 8))), _SEPARATORS)
def test_decompose_in_higher_rank_has_the_word_as_boundary(drawn, sep):
    # A d >= 3 decomposition is not unique, so it is checked by its boundary.
    d, tokens = drawn
    text = _token_text(_closed(tokens, d), sep)
    code, out, err = _run_main(["decompose", "--d", str(d), "--json", text])
    assert (code, err) == (0, "")
    boundary = {}
    for plaquette in json.loads(out):
        assert 1 <= plaquette["i"] < plaquette["j"] <= d
        ref.add_into(boundary, _plaquette_boundary(**plaquette))
    assert boundary == ref.walk(ref.parse(text), d)[1]
