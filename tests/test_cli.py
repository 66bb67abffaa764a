import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from k3lat.cli import MAX_ADE_INDEX, main
from k3lat.suites import SUITES


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


def test_verify_order4_passes():
    res = run("verify", "--suite", "order4")
    assert res.exit_code == 0
    assert res.output.startswith("suite order4")


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
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = f"{statement}; import sys; print(' '.join(m for m in sys.modules if m.startswith('k3lat')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


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
