"""Command-line interface: subcommands, exit codes, report format."""

from __future__ import annotations

import gc
import json
import subprocess
import sys

import pytest

from chclab import parse_system, solver
from chclab.cli import main
from conftest import CORPUS, ROOT
from test_bench_entry_points import _import_from_bench

LADDER = str(CORPUS / "ladder.chc")
ADDITION_LOOPS = str(CORPUS / "addition_loops.chc")
NO_INIT = str(CORPUS / "no_init.chc")
STRESS_ROUNDS = str(CORPUS / "stress" / "rounds.chc")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- solve ---------------------------------------------------------------------


def test_in_process_calls_leave_no_argparse_garbage(capsys):
    # The census, the tests and the benchmark's golden compare call
    # ``main`` in process hundreds of times.  A parser built per call
    # left its reference cycles, 238 unreachable objects, to the cyclic
    # collector each time; the parser is built once per process.
    argv = ["solve", ADDITION_LOOPS, "--json", "-"]
    assert main(argv) == 0
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        garbage = [type(obj) for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not [t for t in garbage if t.__module__ == "argparse"], garbage
    capsys.readouterr()


def test_solve_alt_safe(capsys):
    code, out, _ = run(capsys, "solve", ADDITION_LOOPS, "--mode", "alt")
    assert code == 0
    assert out.startswith("SAFE after 2 round(s)")
    assert "step_laws=True" in out and "goal_disjoint=True" in out


def test_solve_text_names_the_stop_reason(capsys):
    code, out, _ = run(capsys, "solve", STRESS_ROUNDS)
    assert code == 10
    assert out.splitlines()[0] == "UNKNOWN after 5 round(s): round budget"


def test_solve_fwd_unknown(capsys):
    code, out, _ = run(capsys, "solve", ADDITION_LOOPS, "--mode", "fwd")
    assert code == 10
    assert out.startswith("UNKNOWN")


def test_solve_modes_cover_qa(capsys):
    code, _, _ = run(capsys, "solve", ADDITION_LOOPS, "--mode", "qa2")
    assert code == 10
    code, out, _ = run(capsys, "solve", ADDITION_LOOPS, "--mode", "qa-iter")
    assert code == 0 and "SAFE" in out


def test_solve_flags_accepted(capsys):
    code, _, _ = run(
        capsys,
        "solve",
        ADDITION_LOOPS,
        "--max-rounds", "7",
        "--widen-delay", "3",
        "--start", "coarse",
    )
    assert code == 0


def solve_json(capsys, *argv):
    """The ``--json -`` report of ``solve`` with its timing removed and
    the exit code added."""
    code, out, _ = run(capsys, "solve", *argv, "--json", "-")
    report = json.loads(out)
    report["stats"].pop("wall_ms")
    report["exit"] = code
    return report


def test_reports_match_golden(capsys, monkeypatch):
    golden = json.loads((ROOT / "bench" / "golden" / "corpus.json").read_text(encoding="utf-8"))
    # Every corpus file in every mode: a file added without re-recording
    # the golden reports fails here.
    workloads = _import_from_bench(monkeypatch, "workloads")
    expected_keys = {
        f"{path.relative_to(ROOT).as_posix()}|{mode}"
        for path in workloads.corpus_files(ROOT)
        for mode in workloads.MODES
    }
    assert set(golden) == expected_keys
    monkeypatch.chdir(ROOT)
    mismatched = []
    for key, expected in golden.items():
        path, mode = key.split("|")
        if solve_json(capsys, path, "--mode", mode) != expected:
            mismatched.append(key)
    assert not mismatched


@pytest.mark.parametrize(
    "flags",
    [
        ("solve", "--max-rounds", "0"),
        ("solve", "--max-rounds", "-1"),
        ("solve", "--widen-delay", "-1"),
        ("solve", "--descending-passes", "-1"),
        ("trees", "--depth", "-3"),
    ],
)
def test_out_of_range_analysis_options_exit_2(capsys, flags):
    command, *options = flags
    code, _, err = run(capsys, command, LADDER, *options)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_fwd_ignores_direction_options(capsys):
    plain = solve_json(capsys, ADDITION_LOOPS, "--mode", "fwd")
    for start in ("bwd", "coarse"):
        flagged = solve_json(capsys, ADDITION_LOOPS, "--mode", "fwd", "--start", start)
        assert flagged == plain, start


def test_false_step_law_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        solver,
        "certify_trace",
        lambda results, g, trace: [solver.RoundCert(backward_law=False)],
    )
    code, out, err = run(capsys, "solve", ADDITION_LOOPS, "--json", "-")
    assert code == 1
    assert json.loads(out)["certs"]["step_laws"] is False  # the report is still written
    assert err == "error: certificate failed: step_laws\n"  # a message, no traceback


@pytest.mark.parametrize(("mode", "code"), [("alt", 1), ("fwd", 10)])
def test_goal_overlap_fails_only_safe_verdicts(capsys, monkeypatch, mode, code):
    # alt is SAFE on this file, fwd UNKNOWN; an UNKNOWN model may meet the goal
    monkeypatch.setattr("chclab.cli.goal_disjoint", lambda system, model: False)
    got, _, err = run(capsys, "solve", ADDITION_LOOPS, "--mode", mode)
    assert got == code
    assert ("certificate failed: goal_disjoint" in err) == (code == 1)


def test_json_report_shape_and_determinism(capsys):
    argv = ("solve", LADDER, "--mode", "alt", "--json", "-")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 10
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["schema"] == 1
    assert r1["verdict"] == "UNKNOWN"
    assert set(r1["certs"]) == {"step_laws", "model_check", "goal_disjoint"}
    assert set(r1["stats"]) == {"preds", "clauses", "wall_ms"}
    assert r1["model"].keys() == {"p", "false"}
    for r in (r1, r2):
        r["stats"].pop("wall_ms")
    assert r1 == r2


@pytest.mark.parametrize(
    ("mode", "argv", "rounds"),
    [
        ("alt", (), 5),
        ("alt", ("--max-rounds", "8"), 8),
        *(("qa-iter", ("--max-rounds", str(b)), b) for b in range(1, 9)),
    ],
    ids=["default", "max-rounds-8", *(f"qa-iter-max-rounds-{b}" for b in range(1, 9))],
)
def test_every_round_budget_is_certified(capsys, mode, argv, rounds):
    # the model gains a layer per round and its negation about 9 cubes per
    # layer; certification must not fail where the alternation succeeded
    code, out, err = run(capsys, "solve", STRESS_ROUNDS, "--mode", mode, *argv, "--json", "-")
    report = json.loads(out)
    assert code == 10 and err == ""
    assert report["verdict"] == "UNKNOWN" and report["rounds"] == rounds
    assert report["certs"]["step_laws"] is True
    assert report["certs"]["model_check"] is True


def test_rounds_repro_report_is_pinned(capsys, monkeypatch):
    # The ``rounds`` workload runs this file, which bench/golden/corpus.json
    # does not cover: its whole report at the top budget, timings removed.
    expected = json.loads(
        (ROOT / "tests" / "golden" / "rounds-max-rounds-8.json").read_text(encoding="utf-8")
    )
    monkeypatch.chdir(ROOT)
    assert solve_json(capsys, "corpus/stress/rounds.chc", "--max-rounds", "8") == expected


def test_goal_reading_commands_are_pinned(capsys, monkeypatch):
    # ``qa`` prints the goal-seeded transform and the backward oracle grounds
    # the goal; bench/golden/corpus.json covers neither.  Stdout and exit
    # code of ``qa`` on every corpus and stress file, and of the backward
    # oracle with its closure check on each one that declares a universe.
    expected = json.loads(
        (ROOT / "tests" / "golden" / "goal-commands.json").read_text(encoding="utf-8")
    )
    monkeypatch.chdir(ROOT)
    got = {}
    for path in sorted(CORPUS.glob("**/*.chc")):
        name = path.relative_to(ROOT).as_posix()
        runs = [("qa", name)]
        if parse_system(path.read_text(encoding="utf-8")).universe is not None:
            runs.append(("oracle", name, "--semantics", "bwd", "--check-closure"))
        for argv in runs:
            code, out, _ = run(capsys, *argv)
            got[" ".join(argv)] = {"exit": code, "stdout": out}
    assert len(got) == 27 + 22
    assert got == expected


def test_json_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", ADDITION_LOOPS, "--json", str(target))
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["verdict"] == "SAFE" and report["rounds"] == 2


def test_qa_iter_seeds_the_backward_pass_like_alt(tmp_path, capsys):
    # The goal guard is tighter than the goal box: a backward seed that
    # keeps the guard misses part of the native seed g meet d.
    system = tmp_path / "seed.chc"
    system.write_text("pred p/2.\np(X, Y) :- X = 0.\ngoal p(X, Y) : X = Y.\n")
    for mode in ("alt", "qa-iter"):
        code, out, err = run(capsys, "solve", str(system), "--mode", mode)
        assert code == 10 and err == "", mode
        assert "step_laws=True model_check=True" in out, mode


@pytest.mark.parametrize("option", ["--json", "--model-out"], ids=["json", "model-out"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_path_is_bad_input(tmp_path, capsys, option, target):
    path = tmp_path / "no" / "such" / "out.txt" if target == "missing-dir" else tmp_path
    code, _, err = run(capsys, "solve", ADDITION_LOOPS, option, str(path))
    reason = "No such file or directory" if target == "missing-dir" else "Is a directory"
    assert code == 2
    assert err == f"error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("command", ["solve", "check"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, command):
    bad = tmp_path / "latin1.chc"
    bad.write_bytes(b"pred p/1.\np(X) :- X = 0. # caf\xe9\n")
    argv = ("solve", str(bad)) if command == "solve" else ("check", LADDER, str(bad))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err


def _with_bom(tmp_path, path) -> str:
    """A copy of ``path`` that starts with the UTF-8 byte order mark."""
    copy = tmp_path / f"bom-{path.name}"
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return str(copy)


@pytest.mark.parametrize("name", ["ladder.chc", "addition_loops.chc", "stress/rounds.chc"])
def test_solve_reads_a_leading_byte_order_mark(tmp_path, capsys, name):
    plain = solve_json(capsys, str(CORPUS / name))
    marked = solve_json(capsys, _with_bom(tmp_path, CORPUS / name))
    assert marked.pop("file") != plain.pop("file")
    assert marked == plain


@pytest.mark.parametrize("name", ["ladder.chc", "addition_loops.chc"])
def test_check_reads_a_leading_byte_order_mark(tmp_path, capsys, name):
    model = tmp_path / "model"
    run(capsys, "solve", str(CORPUS / name), "--model-out", str(model))
    system = _with_bom(tmp_path, CORPUS / name)
    code, out, err = run(capsys, "check", system, _with_bom(tmp_path, model))
    assert code == 0 and out.startswith("PASS") and err == ""


def test_model_out_round_trips_through_check(tmp_path, capsys):
    model = tmp_path / "addition_loops.model"
    code, _, _ = run(capsys, "solve", ADDITION_LOOPS, "--model-out", str(model))
    assert code == 0
    code, out, _ = run(capsys, "check", ADDITION_LOOPS, str(model))
    assert code == 0 and out.startswith("PASS")


def test_check_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("model p1 : true.\nmodel p2 : true.\nmodel false : false.\n")
    code, out, _ = run(capsys, "check", ADDITION_LOOPS, str(bad))
    assert code == 1
    assert out.startswith("FAIL") and "witness" in out


# -- oracle ---------------------------------------------------------------------


def test_oracle_semantics(capsys):
    code, out, _ = run(capsys, "oracle", LADDER, "--semantics", "fwd")
    assert code == 0
    assert out.splitlines() == ["p(1)", "p(2)", "p(3)", "p(5)"]
    _, out, _ = run(capsys, "oracle", LADDER, "--semantics", "bwd")
    assert out.splitlines() == ["p(1)", "p(2)", "p(3)", "p(4)", "p(5)"]
    _, out, _ = run(capsys, "oracle", LADDER, "--semantics", "combined")
    assert out.splitlines() == ["p(1)", "p(3)", "p(5)"]


def test_oracle_closure_check(capsys):
    code, out, _ = run(capsys, "oracle", LADDER, "--check-closure")
    assert code == 0
    assert out.splitlines()[-1] == "closure PASS"


def test_oracle_needs_universe(capsys):
    code, _, err = run(capsys, "oracle", ADDITION_LOOPS)
    assert code == 2 and "universe" in err


def test_trees_needs_universe(capsys):
    code, out, err = run(capsys, "trees", ADDITION_LOOPS, "--depth", "4", "--check-props")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {ADDITION_LOOPS}: tree enumeration needs a universe declaration"


# -- trees ----------------------------------------------------------------------


def test_trees_check_props(capsys):
    code, out, _ = run(capsys, "trees", LADDER, "--depth", "6", "--check-props")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["forward PASS", "backward PASS", "combined PASS"]
    assert lines[3].startswith("forward trees: 4")


def test_trees_check_props_below_the_stable_depth_exits_10(capsys):
    # Nothing failed, but nothing was checked either: that is no pass.
    code, out, _ = run(capsys, "trees", LADDER, "--depth", "1", "--check-props")
    assert code == 10
    assert out.splitlines()[:3] == ["forward SKIPPED", "backward SKIPPED", "combined SKIPPED"]


def test_trees_counts_only_by_default(capsys):
    code, out, _ = run(capsys, "trees", LADDER, "--depth", "6")
    assert code == 0
    assert "PASS" not in out and out.startswith("forward trees:")


# -- qa -------------------------------------------------------------------------


def test_qa_prints_parseable_system(capsys, tmp_path):
    code, out, _ = run(capsys, "qa", ADDITION_LOOPS)
    assert code == 0
    qa_file = tmp_path / "addition_loops_qa.chc"
    qa_file.write_text(out)
    code, _, _ = run(capsys, "solve", str(qa_file), "--mode", "fwd")
    assert code == 10  # parses and analyzes; verdict is not the point


# -- failure modes ----------------------------------------------------------------


def test_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent.chc")
    assert code == 2 and "cannot read" in err


def test_parse_error_position(tmp_path, capsys):
    bad = tmp_path / "bad.chc"
    bad.write_text("pred p/1.\np(X :- X = 0.\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2 and "2:" in err


def test_resource_limit(tmp_path, capsys):
    blow = tmp_path / "blow.chc"
    body = ", ".join(f"V{i} != {i}" for i in range(13))
    blow.write_text(f"pred p/1.\np(X) :- {body}, X = 0.\n")
    code, _, err = run(capsys, "solve", str(blow))
    assert code == 3 and "resource limit" in err


@pytest.fixture
def int_digit_limit():
    """Restore the int/str digit limit, which ``main`` lifts."""
    get = getattr(sys, "get_int_max_str_digits", None)
    before = get() if get else None
    yield
    if get:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    ("clause", "bound"),
    [
        (f"p(X, Y) :- Y = 1{'0' * 3000}, X = 1{'0' * 3000} * Y.", f"X1 = 1{'0' * 6000},"),
        (f"p(X, Y) :- X = {'9' * 5000}, Y = X.", f"X1 = {'9' * 5000},"),
    ],
    ids=["product", "literal"],
)
def test_numbers_of_any_size_solve(tmp_path, capsys, int_digit_limit, clause, bound):
    big = tmp_path / "big.chc"
    big.write_text(f"pred p/2.\n{clause}\n")
    code, out, err = run(capsys, "solve", str(big))
    assert code == 0 and err == ""
    assert out.startswith("SAFE") and f"model p : {bound}" in out


def _nested(depth: int, alternate: bool) -> str:
    """``depth`` parentheses around ``X1 >= 0``; when ``alternate``, each
    level adds a comparison joined by ``,`` or ``;`` in turn."""
    f = "X1 >= 0"
    for i in range(depth):
        f = (f"(X1 >= {-i}, {f})" if i % 2 else f"(X1 <= {i}; {f})") if alternate else f"({f})"
    return f


@pytest.mark.parametrize("alternate", [False, True], ids=["plain", "alternating"])
def test_nesting_bound_is_bad_input_with_position(tmp_path, capsys, alternate):
    deep = _nested(200, alternate)
    # The 101st opening parenthesis is the first one past the bound.
    offset = [i for i, ch in enumerate(deep) if ch == "("][100]
    system = tmp_path / "deep.chc"
    system.write_text(f"pred p/1.\np(X1) :- {deep}.\n")
    code, _, err = run(capsys, "solve", str(system))
    assert code == 2
    assert f"deep.chc:2:{len('p(X1) :- ') + offset + 1}: parentheses nested deeper" in err
    model = tmp_path / "deep.model"
    model.write_text(f"model p : {deep}.\n")
    code, _, err = run(capsys, "check", LADDER, str(model))
    assert code == 2
    assert f"deep.model:1:{len('model p : ') + offset + 1}: parentheses nested deeper" in err


@pytest.mark.parametrize("alternate", [False, True], ids=["plain", "alternating"])
def test_nesting_at_the_bound_solves(tmp_path, capsys, alternate):
    system = tmp_path / "deep.chc"
    system.write_text(f"pred p/1.\np(X1) :- {_nested(100, alternate)}.\n")
    code, out, _ = run(capsys, "solve", str(system))
    assert code == 0 and "model_check=True" in out


def test_search_budget_exits_3_from_cli():
    script = (
        "import sys; import chclab.linlogic as l; l.DEFAULT_CUBE_CAP = 16; "
        "from chclab.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", STRESS_ROUNDS, "--max-rounds", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource limit: satisfiability search")
    assert "Traceback" not in proc.stderr


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chclab.cli", "solve", ADDITION_LOOPS, "--mode", "alt"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("SAFE")


def test_cli_import_leaves_oracles_and_qa_unloaded():
    # ``chclab solve`` starts without the modules only other subcommands
    # and modes use; the package still resolves them on attribute access.
    script = (
        "import sys, chclab.cli; "
        "print(sorted(m for m in ('chclab.concrete', 'chclab.qa', 'chclab.trees') if m in sys.modules)); "
        "import chclab; print(chclab.qa.qa_iterated.__name__, 'chclab.qa' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "qa_iterated True"]


def test_cli_import_leaves_dataclasses_unloaded():
    # The records are NamedTuples: generating the methods of a dataclass
    # costs about a millisecond per class on every start.
    script = "import sys, chclab.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", STRESS_ROUNDS], 10),
        (["solve", STRESS_ROUNDS, "--json", "-"], 10),
        (["oracle", LADDER], 0),
        (["qa", LADDER], 0),
    ],
    ids=["solve", "solve-json", "oracle", "qa"],
)
def test_closed_stdout_keeps_the_exit_status(argv, code):
    # A reader that closes stdout at once must not turn the run's status
    # into a traceback and exit 1, the code of a false certificate.
    proc = subprocess.Popen(
        [sys.executable, "-m", "chclab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code, err
    assert "Traceback" not in err and "BrokenPipeError" not in err
