import contextlib
import io
import json
import random
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from latticegroups import MetabelianElement, cli, parse_word
from latticegroups.cli import REGISTRY, SUBGROUPS, main

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


@pytest.mark.parametrize("name", BAD_PERTURB)
def test_beta_rejects_malformed_perturbation(name, capsys):
    assert main(["beta", "--k", "2", "--perturb", str(DATA / name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


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
    # 4002 letters whose loop bounds 1000 * 1001 plaquettes.
    "decompose-plaquettes": ["decompose", "--d", "2", "x1^1000 x2^1001 x1^-1000 x2^-1001"],
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


def test_rank_at_the_bound_costs_linear_time(capsys):
    # The empty word's cycle check at rank 10^6 once built all d unit vectors.
    assert main(["decompose", "--d", str(10**6), "--json", ""]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_free_group_ignores_rank_bound(capsys):
    # Free reduction never builds a d-tuple, so a huge rank costs nothing.
    assert main(["reduce", "--d", "1000000000", "x1 x7^2 x7^-1"]) == 0
    assert capsys.readouterr().out == "x1 x7\n"


def test_batch_bad_lines_write_only_markers(tmp_path, capsys):
    commands = tmp_path / "commands.txt"
    commands.write_text(
        "frobnicate x1\neval --group abelian\neval --group bogus x1\neval -h\n",
        encoding="utf-8",
    )
    assert main(["batch", "--json", str(commands)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "error: bad arguments\n" * 4
    assert captured.err == ""


def test_output_is_deterministic(capsys):
    argv = ["eval", "--group", "metabelian", "--d", "2", "--json", "x1 x2 x1^-1 x2^-1"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


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


def test_thin_adapter_matches_module(capsys):
    word = "x1^2 x2 x1^-2 x2^-1"
    main(["nf", "--d", "2", "--json", word])
    out = capsys.readouterr().out
    elem = MetabelianElement.from_word(parse_word(word, 2))
    assert out == elem.as_json() + "\n"


def test_batch_missing_file(capsys):
    assert main(["batch", str(DATA / "no_such_file.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_batch_empty_file(tmp_path, capsys):
    # Zero input lines, zero result lines: not one blank line.
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert main(["batch", str(empty)]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv",
    [["batch", BATCH_COMMANDS], ["batch", "--eq", "--group", "metabelian", "--d", "2", BATCH_PAIRS]],
    ids=["plain", "eq"],
)
def test_batch_builds_one_parser_per_call(argv, monkeypatch, capsys):
    builds = []
    build = cli._build_parser

    def counting_build():
        builds.append(None)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting_build)
    assert main(argv) == 0
    assert capsys.readouterr().out.count("\n") > 1
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


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_batch_line_matches_line_alone(order, tmp_path, capsys):
    lines = REUSE_LINES[::order]
    commands = tmp_path / "commands.txt"
    commands.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["batch", str(commands)]) == 0
    results = capsys.readouterr().out.split("\n")
    assert results.pop() == ""
    assert results == [_alone(line) for line in lines]


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


def test_split_line_reads_a_long_argument():
    # shlex grows an argument one character at a time, so an argument of
    # 2 * 10^6 characters took minutes there.
    word = "x1 x2^-1 " * 250_000
    assert cli._split_line(f'eq "{word}" \'{word}\'') == ["eq", word, word]


def test_nf_rejects_other_groups(capsys):
    assert main(["nf", "--group", "free", "--d", "2", "x1"]) == 2


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
