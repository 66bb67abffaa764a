import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3lat import lattice
from k3lat.cli import MAX_ADE_INDEX, main, parse_lattice_expr
from k3lat.lattice import LatticeError
from k3lat.suites import SUITES, run_suites
from support import char_parse_lattice_expr, run_fresh


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_info_e8():
    res = run("info", "E8")
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        "rank       8",
        "signature  (0,8)",
        "parity     even",
        "det        1",
        "disc       0",
        "roots      E8",
    ]


def test_info_e6_a2():
    res = run("info", "E6 + A2")
    assert res.exit_code == 0
    assert res.output.splitlines()[3:] == ["det        9", "disc       Z/3+Z/3", "roots      E6+A2"]


def test_info_rejects_missing_atom_at_end_of_input():
    res = run("info", "U + ")
    assert res.exit_code == 1
    assert "expected a lattice atom" in res.output
    assert "needs an index" not in res.output


def test_info_rejects_bare_ade_letter():
    res = run("info", "A")
    assert res.exit_code == 1
    assert "A needs an index" in res.output


def test_roots_accepts_largest_ade_index():
    res = run("roots", f"A{MAX_ADE_INDEX}")
    assert res.exit_code == 0
    assert f"type       A{MAX_ADE_INDEX}" in res.output


def test_info_rejects_ade_index_above_cap():
    # rejected by the parser, before any Cartan matrix is allocated
    for expr in (f"A{MAX_ADE_INDEX + 1}", "A99999999999", "D(99999999999)", "E" + "9" * 5000):
        res = run("info", expr)
        assert res.exit_code == 1
        assert "rank" not in res.output


@pytest.mark.parametrize("command", ["info", "roots", "disc"])
def test_ragged_gram_literal_is_a_parse_error(command):
    res = run(command, "gram[[1,2],[2]]")
    assert res.exit_code == 1
    assert res.output == "Error: ragged rows (at byte 15)\n"


@pytest.mark.parametrize("command", ["info", "roots", "disc"])
def test_asymmetric_gram_literal_is_refused(command):
    # outside input is checked; only the library's own constructions,
    # symmetric by an identity, skip the test
    res = run(command, "gram[[2,1],[0,2]]")
    assert (res.exit_code, res.output) == (1, "Error: gram matrix must be symmetric (at byte 17)\n")


@pytest.mark.parametrize(
    "expr,message",
    [
        ("A\u0662", "A needs an index (at byte 1)"),  # Arabic-Indic two
        ("A\u00b2", "A needs an index (at byte 1)"),  # superscript two
        ("diag(\u0661)", "expected an integer (at byte 5)"),  # Arabic-Indic one
    ],
)
def test_lattice_expressions_take_ascii_digits_only(expr, message):
    # str.isdigit holds for all three digits, which the grammar does not have
    res = run("info", expr)
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"


@pytest.mark.parametrize(
    "expr,message",
    [
        ("A2\u3000+ U", "trailing input (at byte 2)"),  # ideographic space
        ("U\u3000\u3000+ A\u00b2", "trailing input (at byte 1)"),
    ],
)
def test_lattice_expressions_take_ascii_spaces_only(expr, message):
    # str.isspace holds for U+3000; the reported offset is the byte offset
    # of the first character the parser did not consume
    res = run("info", expr)
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"


def test_tabs_and_newlines_still_separate_tokens():
    res = run("info", "A2\t+\nU\r\n")
    assert res.exit_code == 0
    assert res.output.splitlines()[:4] == ["rank       4", "signature  (1,3)", "parity     even", "det        -3"]


def test_ascii_integer_literals_still_parse():
    res = run("info", "diag(12, -3) + A2")
    assert res.exit_code == 0
    assert res.output.splitlines()[:4] == ["rank       4", "signature  (1,3)", "parity     odd", "det        -108"]


# separators the grammar takes and characters it rejects around integers:
# a non-ASCII digit and space, a sign without digits, doubled commas, and
# an integer longer than the interpreter converts
_WS = st.sampled_from(["", "", " ", "\t", "\n "])
_JUNK = st.sampled_from(["", ",", "-", " - 1", ",,", "x", "]", ")", "\u00b2", "\u0663", "\u3000", "1" * 5000])


@st.composite
def integer_list_expressions(draw):
    """A ``diag(...)`` or ``gram[[...]]`` expression with integer lists
    spaced at random, half of them then broken by junk at a random place."""
    item = st.builds(lambda a, x, b: f"{a}{x}{b}", _WS, st.integers(-99, 99), _WS)
    if draw(st.booleans()):
        text = "diag(" + ",".join(draw(st.lists(item, min_size=1, max_size=4))) + ")"
    else:
        n = draw(st.integers(1, 3))
        rows = [",".join(draw(st.lists(item, min_size=n, max_size=n))) for _ in range(n)]
        text = "gram[" + ",".join(f"{draw(_WS)}[{row}]" for row in rows) + "]"
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_JUNK) + text[at + draw(st.integers(0, 2)) :]
    return draw(st.sampled_from(["", "U + ", "A2(3) + "])) + text


def parsed_or_error(parse, text):
    try:
        return parse(text).gram
    except ValueError as exc:  # ParseError and the lattice errors
        return type(exc).__name__, str(exc)


@settings(max_examples=300)
@given(integer_list_expressions())
@example("diag(1, 2 ,3)")
@example("diag(1,,2)")
@example("diag(1, - 2)")
@example("diag(1, 2,)")
@example("diag(\u0661)")
@example("diag(1,\u3000 2)")
@example("diag(" + "1" * 5000 + ")")
@example("diag(1, " + "2" * 5000 + ")")
@example("gram[[2, -1], [-1, 2]x]")
def test_integer_lists_parse_as_the_character_level_parser_does(text):
    # the same lattice, or the same error with the same byte offset
    assert parsed_or_error(parse_lattice_expr, text) == parsed_or_error(char_parse_lattice_expr, text)


@given(
    st.sampled_from(["info", "roots", "disc"]),
    st.lists(st.lists(st.integers(-3, 3), max_size=4), min_size=1, max_size=4),
)
def test_gram_literals_exit_0_or_1(command, rows):
    """Any small gram literal, ragged, asymmetric, degenerate or indefinite,
    ends in output or a typed error, never in a traceback."""
    literal = "gram[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "]"
    res = run(command, literal)
    assert res.exit_code in (0, 1)
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize(
    "expr, message",
    [
        ("U", "lattice is indefinite with signature (1,1)"),
        ("gram[[0]]", "degenerate form with radical of rank 1"),
        ("gram[[2,3],[3,2]]", "lattice is indefinite with signature (1,1)"),  # positive diagonal
        ("gram[[2,2],[2,2]]", "degenerate form with radical of rank 1"),  # positive diagonal
        ("diag(2,-2)", "lattice is indefinite with signature (1,1)"),
        ("A2(-1)+A1", "lattice is indefinite with signature (2,1)"),
        ("gram[[-2,5,0],[5,-2,0],[0,0,-2]]", "lattice is indefinite with signature (1,2)"),  # negative diagonal
        ("U(3)", "lattice is indefinite with signature (1,1)"),  # content 6: no roots, were it definite
        ("diag(3,0)", "degenerate form with radical of rank 1"),  # content 3
    ],
)
def test_roots_names_why_a_form_is_not_definite(expr, message):
    # the sign comes from the diagonal and the reduced form's pivots prove
    # it; a form they do not prove definite still gets the inertia's reason
    res = run("roots", expr)
    assert (res.exit_code, res.output) == (1, f"Error: {message}\n")


def test_verify_order4_passes():
    res = run("verify", "--suite", "order4")
    assert res.exit_code == 0
    assert res.output.startswith("suite order4")


def test_verify_direct_passes_and_fails_on_swapped_witnesses(monkeypatch):
    from k3lat import goldens

    res = run("verify", "--suite", "direct")
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == "  28/28 checks passed"
    # two rows of one family exchange their witnesses: each row's type
    # fails, while the family's set of types still matches tab4's
    rows = dict(goldens.DIRECT_WITNESSES[(1, 1)])
    rows["E8+E6"], rows["E8+A2^3"] = rows["E8+A2^3"], rows["E8+E6"]
    monkeypatch.setitem(goldens.DIRECT_WITNESSES, (1, 1), rows)
    res = run("verify", "--suite", "direct")
    assert res.exit_code == 1
    failed = [line.split()[1] for line in res.output.splitlines() if line.startswith("  FAIL")]
    assert failed == ["(1,1)-E8+E6-root-type", "(1,1)-E8+A2^3-root-type"]


def test_verify_all_text_is_byte_stable():
    # the golden file is the text output of `k3lat verify --suite all`
    # before the exact linear algebra became fraction-free; any later
    # change to the text output shows here
    res = run("verify", "--suite", "all")
    assert res.exit_code == 0
    assert res.stdout_bytes == (Path(__file__).parent / "golden" / "verify_all.txt").read_bytes()


def test_verify_all_json_is_byte_stable():
    # the golden file is the `--format json` output of `k3lat verify
    # --suite all` before the dual and glue vectors became integer rows
    # and the Eisenstein parts integers; it pins every computed value
    res = run("verify", "--suite", "all", "--format", "json")
    assert res.exit_code == 0
    assert res.stdout_bytes == (Path(__file__).parent / "golden" / "verify_all.json").read_bytes()


@pytest.mark.parametrize("fam", ["0,2", "0,1", "1,1", "2,1"])
def test_cusps_json_is_byte_stable(fam):
    # the golden files are the `k3lat cusps --family n,k --format json`
    # output while the star was still cross-checked against glue-code
    # bookkeeping; they fix the cusp types and the order of the records
    # and their witnesses
    res = run("cusps", "--family", fam, "--format", "json")
    assert res.exit_code == 0
    name = "cusps_" + fam.replace(",", "_") + ".json"
    assert res.stdout_bytes == (Path(__file__).parent / "golden" / name).read_bytes()


def test_cusps_text_lists_the_records_of_the_json_golden():
    # the default format: one line per cusp, per witness and per row, the
    # factors and the complement in columns of 6
    golden = json.loads((Path(__file__).parent / "golden" / "cusps_2_1.json").read_text())
    expected = []
    for cusp in golden:
        expected.append(f"cusp {cusp['root_type']}")
        for w in cusp["witnesses"]:
            expected.append(f"  model {w['model']}")
            for factors, comp, order in w["rows"]:
                expected.append(f"    {factors:<6} -> complement {comp:<6} dual-quotient order {order}")
    res = run("cusps", "--family", "2,1")
    assert res.exit_code == 0
    assert res.output.splitlines() == expected
    assert expected[0] == "cusp A2^6*" and len(expected) == 35


def test_info_stops_at_the_radical_of_a_degenerate_form():
    res = run("info", "diag(0,2)")
    assert res.exit_code == 1
    assert res.output.splitlines() == ["rank       2", "signature  (1,0) with radical of rank 1"]


def test_disc_rejects_a_degenerate_form():
    res = run("disc", "diag(0,2)")
    assert res.exit_code == 1
    assert res.output == "Error: degenerate form with radical of rank 1\n"


@pytest.mark.parametrize(
    "family, message", [("x", "family must be given as n,k"), ("1", "family must be given as n,k"), ("3,3", "unknown family (3,3)")]
)
def test_cusps_rejects_a_family_that_is_no_table_row(family, message):
    res = run("cusps", "--family", family)
    assert res.exit_code == 2
    assert res.output.splitlines()[-1] == f"Error: {message}"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("A2(0)", "rescale by zero (at byte 2)"),
        ("D3", "D3 is not in the D-series (need n >= 4) (at byte 2)"),
        ("E(5)", "E5 is not a root system (at byte 4)"),
    ],
)
def test_parse_errors_name_the_rejected_atom(expr, message):
    res = run("info", expr)
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"


def test_a_rescale_suffix_applies_to_a_parenthesized_sum():
    # (A1 + U)(2) is A1(-2) + U(2); a "(" without an integer is no suffix
    res = run("info", "(A1 + U)(2)")
    assert res.exit_code == 0
    assert res.output.splitlines()[:4] == ["rank       3", "signature  (1,2)", "parity     even", "det        16"]
    res = run("info", "A1(x)")
    assert res.exit_code == 1
    assert res.output == "Error: trailing input (at byte 2)\n"


def test_a_raising_suite_is_one_error_item_and_the_others_still_run(monkeypatch):
    def broken():
        raise LatticeError("determinant check failed")

    monkeypatch.setitem(SUITES, "eis", broken)
    reports = run_suites("all")
    assert [r.suite for r in reports] == list(SUITES)
    errors = [(r.suite, i.id, i.computed) for r in reports for i in r.items if i.status == "error"]
    assert errors == [("eis", "error", "LatticeError: determinant check failed")]
    assert all(r.passed for r in reports if r.suite != "eis")
    res = run("verify", "--suite", "all")
    assert res.exit_code == 1
    line = "  ERROR error  suite raised  [computed LatticeError: determinant check failed expected no error]"
    assert line in res.output.splitlines()


def test_run_suites_rejects_an_unknown_suite():
    with pytest.raises(KeyError, match="nope"):
        run_suites("nope")


def test_an_error_item_names_the_innermost_k3lat_function(monkeypatch):
    # a Smith form that drops its last invariant factor disagrees with the
    # determinant of the first T with a nontrivial discriminant
    real = lattice.smith_divisors
    monkeypatch.setattr(lattice, "smith_divisors", lambda gram, d: real(gram, d)[:-1])
    # a cached factor list would bypass the patch, and a patched one must
    # not outlive it
    lattice._invariant_factors.cache_clear()
    try:
        (report,) = run_suites("tab3")
    finally:
        lattice._invariant_factors.cache_clear()
    assert [(i.id, i.computed) for i in report.items] == [
        ("error", "LatticeError: invariant factors disagree with the determinant (in lattice.disc_group)")
    ]


def test_verify_help_lists_every_suite():
    res = run("verify", "--help")
    assert res.exit_code == 0
    assert f"[{'|'.join([*SUITES, 'all'])}]" in res.output


def test_verify_rejects_unknown_suite():
    res = run("verify", "--suite", "nosuch")
    assert res.exit_code == 2
    assert "'nosuch' is not one of" in res.output


def test_verify_suite_choices_are_the_registry():
    (option,) = [p for p in main.commands["verify"].params if p.name == "suite"]
    assert tuple(option.type.choices) == (*SUITES, "all")


def imported_after(statement):
    """The k3lat modules loaded by ``statement`` in a fresh interpreter."""
    probe = f"{statement}; import sys; print(' '.join(m for m in sys.modules if m.startswith('k3lat')))"
    return set(run_fresh(probe).split())


def test_cli_import_leaves_out_the_suite_stack():
    # info, roots and disc need none of these; verify and cusps import them
    loaded = imported_after("import k3lat.cli")
    assert "k3lat.roots" in loaded
    for module in ("k3lat.suites", "k3lat.cusps", "k3lat.kulikov", "k3lat.eisenstein"):
        assert module not in loaded


def test_kulikov_import_leaves_out_cusps_and_suites():
    # kulikov imports the cusp classifier inside the one function that uses it
    loaded = imported_after("import k3lat.kulikov")
    assert "k3lat.kulikov" in loaded
    assert "k3lat.cusps" not in loaded and "k3lat.suites" not in loaded
