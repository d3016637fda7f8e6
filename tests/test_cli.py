import subprocess
import sys
from pathlib import Path

import pytest

from treelogic.cli import main
from treelogic.trees import parse_tree

SRC = str(Path(__file__).parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def ac_com_path(fixtures_dir):
    return str(fixtures_dir / "ac_com.mso")


def test_compile_produces_six_state_file(capsys, tmp_path, ac_com_path):
    out_path = tmp_path / "out.aut"
    code, _, _ = run_cli(capsys, "compile", ac_com_path, "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "states 6" in text
    assert text.startswith("width 2\n")


def test_compile_contradiction_single_state(capsys, tmp_path):
    src = tmp_path / "contradiction.mso"
    src.write_text("prec(x, x)\n")
    code, out, _ = run_cli(capsys, "compile", str(src))
    assert code == 0
    assert "states 1" in out
    assert "finals\n" in out
    assert "trans" not in out


def test_compile_unreadable_path(capsys, tmp_path):
    code, _, err = run_cli(capsys, "compile", str(tmp_path / "missing.mso"))
    assert code == 1
    assert "error" in err.lower()


def test_compile_width_overflow_exit_code(capsys, tmp_path):
    src = tmp_path / "wide.mso"
    names = " & ".join(f"sing(V{i})" for i in range(17))
    src.write_text(names + "\n")
    code, _, err = run_cli(capsys, "compile", str(src))
    assert code == 2
    assert "width" in err


def test_deeply_nested_input_exits_2_without_traceback(tmp_path):
    src = tmp_path / "deep.mso"
    src.write_text("~" * 3000 + "sing(X)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "treelogic", "sat", str(src)],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: input nested too deeply")


def test_compile_stats_lines(capsys, ac_com_path):
    code, out, err = run_cli(capsys, "compile", ac_com_path, "--stats")
    assert code == 0
    stats = [line for line in err.splitlines() if line.startswith("step=")]
    assert stats
    assert all("op=" in line and "states_in=" in line and "states_out=" in line
               for line in stats)


@pytest.mark.parametrize("name", ["ac_com", "local_c_command"])
def test_compile_stats_match_golden_files(capsys, fixtures_dir, name):
    # The step ops name fresh bound variables (e.g. "sing:z_1"), so these
    # pin the order in which the formula walks invent names.
    code, _, err = run_cli(capsys, "compile", "--stats",
                           str(fixtures_dir / f"{name}.mso"))
    assert code == 0
    golden = fixtures_dir / f"golden_compile_stats_{name}.txt"
    assert err == golden.read_text(encoding="utf-8")


def test_sat_and_unsat(capsys, tmp_path, ac_com_path):
    code, out, _ = run_cli(capsys, "sat", ac_com_path)
    assert (code, out.strip()) == (0, "SAT")
    contra = tmp_path / "contradiction.mso"
    contra.write_text("prec(x, x)\n")
    code, out, _ = run_cli(capsys, "sat", str(contra))
    assert (code, out.strip()) == (3, "UNSAT")
    taut = tmp_path / "taut.mso"
    taut.write_text("ex1 x. eq1(x, x)\n")
    code, out, _ = run_cli(capsys, "sat", str(taut))
    assert (code, out.strip()) == (0, "SAT")


def test_witness_output(capsys, tmp_path, ac_com_path):
    code, out, _ = run_cli(capsys, "witness", ac_com_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "witness (00 (10 () ()) (00 (01 () ()) ()))"
    assert lines[1] == "x = 0"
    assert lines[2] == "y = 10"
    contra = tmp_path / "contradiction.mso"
    contra.write_text("prec(x, x)\n")
    code, out, _ = run_cli(capsys, "witness", str(contra))
    assert (code, out.strip()) == (3, "UNSAT")
    taut = tmp_path / "taut.mso"
    taut.write_text("ex1 x. eq1(x, x)\n")
    code, out, _ = run_cli(capsys, "witness", str(taut))
    assert code == 0
    assert out.splitlines()[0] == "witness ()"


def test_member_exit_codes(capsys, tmp_path, fixtures_dir):
    aut = str(fixtures_dir / "ac_com.aut")
    good = tmp_path / "good.tree"
    good.write_text("(00 (10 () ()) (00 (01 () ()) ()))\n")
    bad = tmp_path / "bad.tree"
    bad.write_text("(00 (10 () ()) (01 () ()))\n")
    code, out, _ = run_cli(capsys, "member", aut, str(good))
    assert (code, out.strip()) == (0, "ACCEPT")
    code, out, _ = run_cli(capsys, "member", aut, str(bad))
    assert (code, out.strip()) == (3, "REJECT")


def test_member_on_deep_tree(tmp_path, fixtures_dir, ac_com_automaton):
    depth = 10 ** 5
    text = "(10 " * depth + "(01 () ())" + " ())" * depth + "\n"
    tree_path = tmp_path / "deep.tree"
    tree_path.write_text(text)
    expected = "ACCEPT" if ac_com_automaton.accepts(parse_tree(text)) else "REJECT"
    proc = subprocess.run(
        [sys.executable, "-m", "treelogic", "member",
         str(fixtures_dir / "ac_com.aut"), str(tree_path)],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        ({"ACCEPT": 0, "REJECT": 3}[expected], expected + "\n", "")


@pytest.mark.parametrize("argv, text", [
    (["member", "ac_com.aut"], "("),
    (["sat"], ""),
    (["sat"], "% nothing but a comment\n"),
    (["solve", "lexicon.clp", "?- { } & lexicon(x)."], None),
])
def test_truncated_input_is_one_error_line(capsys, tmp_path, fixtures_dir,
                                           argv, text):
    args = [str(fixtures_dir / a) if a.endswith((".aut", ".clp")) else a
            for a in argv]
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        args.append(str(path))
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("program, query, message", [
    ("p(x).\n\nq(x).\n\nr(x) <- { } & p(x).\n", "?- r(x).",
     "in constraint: expected a formula, found '}' (line 5, column 11)"),
    ("p(x) <- { sing(X) .\n", "?- p(x).",
     "expected '}', found '.' (line 1, column 19)"),
    ("p(x) <- { true\n", "?- p(x).",
     "unexpected end of input (line 1, column 11)"),
    ("p(x) <- { sing(X) q } & q(x).\nq(x).\n", "?- p(x).",
     "expected '}', found 'q' (line 1, column 19)"),
    ("p(x) <- { { true } }.\n", "?- p(x).",
     "in constraint: expected a formula, found '{' (line 1, column 11)"),
    ("p(x).\nq(x) <- p(x)\n", "?- q(x).",
     "unexpected end of input (line 2, column 12)"),
    ("p(x).\nQ(x) <- p(x).\n", "?- p(x).",
     "predicate names are lowercase, found 'Q' (line 2, column 1)"),
    ("p(x).\nq(x, x) <- p(x).\n", "?- p(x).",
     "duplicate parameter in clause head q(x, x) (line 2, column 1)"),
    ("p(x).\nq(x) <- p(x) & { true }.\n", "?- q(x).",
     "the constraint must be the first body item (line 2, column 16)"),
    ("p(x).\n", "?- p(x). p",
     "trailing input 'p' after query (line 1, column 10)"),
], ids=["empty-block-on-line-5", "unterminated-block", "unterminated-block-at-end",
        "trailing-token-in-block", "nested-block", "missing-final-dot",
        "uppercase-predicate", "duplicate-head-parameter", "constraint-not-first",
        "trailing-input-after-query"])
def test_malformed_clause_input_points_at_its_token(capsys, tmp_path, program,
                                                    query, message):
    path = tmp_path / "program.clp"
    path.write_text(program)
    code, out, err = run_cli(capsys, "solve", str(path), query)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_equiv_compiled_against_transcribed(capsys, tmp_path, fixtures_dir,
                                            ac_com_path):
    compiled = tmp_path / "compiled.aut"
    assert run_cli(capsys, "compile", ac_com_path, "-o", str(compiled))[0] == 0
    code, out, _ = run_cli(capsys, "equiv", str(compiled),
                           str(fixtures_dir / "ac_com.aut"))
    assert (code, out.strip()) == (0, "EQUIVALENT")
    code, out, _ = run_cli(capsys, "equiv", str(fixtures_dir / "ac_com.aut"),
                           str(fixtures_dir / "ac_com.aut"))
    assert code == 0


def test_equiv_detects_difference(capsys, tmp_path, fixtures_dir):
    other = tmp_path / "all.aut"
    other.write_text("width 2\nstates 1\ninitial q\nfinals q\n"
                     "trans q q ** -> q\n")
    code, out, _ = run_cli(capsys, "equiv", str(fixtures_dir / "ac_com.aut"),
                           str(other))
    assert (code, out.strip()) == (3, "INEQUIVALENT")


def test_solve_all_solutions(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "solve", str(fixtures_dir / "lexicon.clp"),
                           "?- lexicon(x).", "--all")
    assert code == 0
    assert out.count("solution ") == 3
    assert "witness (" in out


def test_solve_first_by_default(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "solve", str(fixtures_dir / "lexicon.clp"),
                           "?- lexicon(x).")
    assert code == 0
    assert out.count("solution ") == 1


def test_solve_no_solutions(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "solve", str(fixtures_dir / "lexicon.clp"),
                           "?- { prec(x, x) } & lexicon(x).", "--all")
    assert code == 3
    assert "no solutions" in out


def test_solve_trace(capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "solve", str(fixtures_dir / "lexicon.clp"),
                           "?- lexicon(x).", "--all", "--trace")
    assert code == 0
    assert "trace: reduce" in err
    assert "trace: store satisfiable" in err


def test_solve_deep_derivation_exits_3_with_depth_note(capsys, tmp_path):
    program = tmp_path / "loop.clp"
    program.write_text("loop(x) <- { eq1(x, x) } & loop(x).\n")
    code, out, err = run_cli(capsys, "solve", str(program), "?- loop(x).",
                             "--depth", "2000")
    assert (code, out, err) == (3, "no solutions\n",
                                "note: 1 branch(es) cut at depth 2000\n")


def test_solve_rejects_negative_depth(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "solve", str(fixtures_dir / "lexicon.clp"),
                             "?- lexicon(x).", "--depth", "-5")
    assert (code, out) == (1, "")
    assert "argument --depth: must be non-negative, got -5" in err
    assert run_cli(capsys, "solve", str(fixtures_dir / "lexicon.clp"),
                   "?- lexicon(x).", "--depth", "0")[0] == 3


def test_usage_error(capsys):
    assert run_cli(capsys, "nonsense")[0] == 1


def test_outputs_are_deterministic(tmp_path, fixtures_dir):
    script = str(fixtures_dir / "local_c_command.mso")
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "treelogic", "compile", script],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC,
                 "PYTHONHASHSEED": "random"})
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv, golden", [
    (["compile", "ac_com.mso"], "golden_compile_ac_com.aut"),
    (["compile", "local_c_command.mso"], "golden_compile_local_c_command.aut"),
    (["compile", "--no-minimize", "ac_com.mso"],
     "golden_compile_no_minimize_ac_com.aut"),
    (["solve", "--all", "lexicon.clp", "?- lexicon(x)."],
     "golden_solve_all_lexicon.txt"),
    (["compile", "chain8.mso"], "golden_compile_chain8.aut"),
    (["compile", "union_negation_ex1.mso"],
     "golden_compile_union_negation_ex1.aut"),
    (["compile", "--no-minimize", "local_c_command.mso"],
     "golden_compile_no_minimize_local_c_command.aut"),
    (["solve", "--all", "parse_pipeline.clp",
      "?- { in(a, John) & in(b, Sees) & in(c, Mary) & prec(a, b) "
      "& prec(b, c) } & parse(a, b, c)."],
     "golden_solve_all_parse_pipeline.txt"),
    (["witness", "ac_com.mso"], "golden_witness_ac_com.txt"),
    (["witness", "local_c_command.mso"], "golden_witness_local_c_command.txt"),
    (["witness", "chain8.mso"], "golden_witness_chain8.txt"),
    (["witness", "union_negation_ex1.mso"],
     "golden_witness_union_negation_ex1.txt"),
])
def test_outputs_match_golden_files(capsys, fixtures_dir, argv, golden):
    # Identical inputs give byte-identical outputs across versions; the
    # golden files were written by an earlier version of the CLI.
    args = [str(fixtures_dir / a) if a.endswith((".mso", ".clp")) else a
            for a in argv]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == (fixtures_dir / golden).read_text(encoding="utf-8")
