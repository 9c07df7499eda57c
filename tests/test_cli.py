import functools
import subprocess
import sys
from pathlib import Path

import pytest

from cdsort import analysis, games
from cdsort.cli import main
from cdsort.graph import gf2_rank, graph_from_text, overlap_masks, to_text
from cdsort.ops import SortTrace
from cdsort.perm import parse_entries

from oracles import DEEP

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# graph


def test_graph_of_singleton_is_empty(capsys):
    code, out, _ = run_cli(capsys, "graph", "[1]", "--format", "text")
    assert code == 0 and out == ""


def test_graph_accepts_fixture(capsys):
    code, out, _ = run_cli(capsys, "graph", "--fixture", "o_nova_actin1", "--format", "text")
    assert code == 0
    assert "vertex (1,2) oriented" in out


# ---------------------------------------------------------------------------
# apply


def test_apply_cdr_example(capsys):
    code, out, _ = run_cli(capsys, "apply", "[-2,1,-4,3]", "--op", "cdr", "--pointer", "2")
    assert code == 0
    assert "[4, -1, 2, 3]" in out
    assert out.splitlines()[-1] == "final [4, -1, 2, 3]"


def test_apply_cds_example(capsys):
    code, out, _ = run_cli(
        capsys, "apply", "[3,6,5,2,4,8,1,7]", "--op", "cds", "--pointers", "3,6"
    )
    assert code == 0
    assert out.splitlines()[-1] == "final [3, 4, 8, 1, 5, 2, 6, 7]"


def test_apply_cds_checks_pointers_in_the_given_order(capsys):
    code, out, err = run_cli(capsys, "apply", "[1,2,3,4,5]", "--op", "cds", "--pointers", "9,0")
    assert (code, out, err) == (1, "", "error: pointer 9 out of range 1..4\n")


def test_apply_not_applicable_fails(capsys):
    code, out, err = run_cli(capsys, "apply", "[1,2,3]", "--op", "cdr", "--pointer", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_apply_argument_validation(capsys):
    code, _, err = run_cli(capsys, "apply", "[1,2]", "--op", "cdr")
    assert code == 1 and "--pointer" in err
    code, _, err = run_cli(capsys, "apply", "[1,2,3]", "--op", "cds", "--pointers", "1")
    assert code == 1 and "two integers" in err


# ---------------------------------------------------------------------------
# sort


def test_sort_identity_empty_trace(capsys):
    code, out, _ = run_cli(capsys, "sort", "[1,2,3]")
    assert code == 0
    assert out.splitlines() == ["initial [1, 2, 3]", "final [1, 2, 3]", "status sorted steps=0"]


def test_sort_unsortable(capsys):
    code, out, _ = run_cli(capsys, "sort", "[2,1]")
    assert code == 0
    assert "status not-cdr-sortable" in out


def test_sort_greedy_safe(capsys):
    code, out, _ = run_cli(capsys, "sort", "--fixture", "u_pisces_1", "--strategy", "greedy-safe")
    assert code == 0
    assert out.splitlines()[-1] == "status sorted steps=14"


def test_sort_allow_cds_needs_indiscriminate(capsys):
    code, _, err = run_cli(capsys, "sort", "[1,2]", "--allow-cds")
    assert code == 1 and "--allow-cds" in err


def test_sort_search_undecided_on_tiny_budget(capsys):
    code, out, _ = run_cli(capsys, "sort", "--fixture", "u_pisces_1", "--budget", "3")
    assert code == 1
    assert "status undecided" in out


def test_sort_traces_replay(capsys):
    code, out, _ = run_cli(
        capsys, "sort", "[1,3,5,-2,-6,4]", "--strategy", "indiscriminate", "--allow-cds"
    )
    assert code == 0
    moves = []
    for line in out.splitlines():
        parts = line.split()
        if parts[0] != "step":
            continue
        if parts[2] == "cdr":
            moves.append(("cdr", int(parts[3].strip("()").split(",")[0])))
        else:
            a, b = parts[3].split("),(")
            moves.append(("cds", (int(a.strip("()").split(",")[0]),
                                  int(b.strip("()").split(",")[0]))))
    final_line = [line for line in out.splitlines() if line.startswith("final ")][0]
    trace = SortTrace.from_moves((1, 3, 5, -2, -6, 4), moves)
    assert f"final {trace.final}" == final_line


# ---------------------------------------------------------------------------
# verify


def test_verify_exhaustive_parity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--property", "parity", "--n", "3", "--exhaustive")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# sweep property=parity n=3 mode=exhaustive seed=- budget=10000000"
    assert lines[-1] == "# summary property=parity n=3 mode=exhaustive cases=48 failures=0 seed=-"
    assert len(lines) == 50


def test_verify_sampled_commutation(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--property", "commutation", "--n", "8",
        "--samples", "200", "--seed", "1",
    )
    assert code == 0
    assert "failures=0 seed=1" in out.splitlines()[-1]


def test_verify_exhaustive_rescue(capsys):
    code, out, _ = run_cli(capsys, "verify", "--property", "rescue", "--n", "4", "--exhaustive")
    assert code == 0
    assert "cases=384 failures=0" in out.splitlines()[-1]


def test_verify_on_deep_input_is_an_error_line(capsys):
    # the sweeps' fold recurses once per move, and a sample at n = 2000 has
    # runs far longer than the recursion limit allows
    code, out, err = run_cli(capsys, "verify", "--property", "parity", "--n", "2000",
                             "--samples", "1")
    # the header is written before the first record is checked
    assert code == 1
    assert out == "# sweep property=parity n=2000 mode=samples seed=0 budget=10000000\n"
    assert err == "error: cdr runs from this input are too long for the exhaustive search\n"


def test_verify_commutation_spends_its_budget(capsys):
    code, out, err = run_cli(capsys, "verify", "--property", "commutation", "--n", "5",
                             "--exhaustive", "--budget", "3")
    assert code == 1
    assert out == (
        "# sweep property=commutation n=5 mode=exhaustive seed=- budget=3\n"
        "commutation\tPASS\t[1, 2, 3, 4, 5]\tpointers=0 violations=0\n"
        "commutation\tPASS\t[-1, 2, 3, 4, 5]\tpointers=1 violations=0\n"
        "commutation\tPASS\t[1, -2, 3, 4, 5]\tpointers=2 violations=0\n"
    )
    assert err == "error: search budget exhausted\n"


@pytest.mark.parametrize("prop, finished", [
    ("parity", 68), ("same-length", 58), ("rescue", 68), ("steps", 68),
    ("cds-same-length", 53), ("commutation", 49),
])
def test_verify_out_of_budget_keeps_the_records_it_wrote(capsys, prop, finished):
    # verify writes each record as it comes, so a sweep that runs out of
    # budget part-way has written its header and the records before it
    argv = ("verify", "--property", prop, "--n", "4", "--exhaustive")
    code, full, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, err = run_cli(capsys, *argv, "--budget", "60")
    assert code == 1
    lines = full.splitlines(keepends=True)
    header = lines[0].replace("budget=10000000", "budget=60")
    assert out == header + "".join(lines[1:1 + finished])
    assert err == "error: search budget exhausted\n"


@pytest.mark.parametrize("n", ["0", "-2"])
def test_verify_rejects_lengths_below_one(capsys, n):
    code, out, err = run_cli(capsys, "verify", "--property", "rescue", "--n", n, "--exhaustive")
    assert code == 1 and out == ""
    assert err == f"error: a sweep needs n >= 1 and samples >= 0, got n={n}, samples=0\n"


def test_verify_rejects_negative_sample_counts(capsys):
    code, out, err = run_cli(capsys, "verify", "--property", "steps", "--n", "1",
                             "--samples", "-3")
    assert code == 1 and out == ""
    assert err == "error: a sweep needs n >= 1 and samples >= 0, got n=1, samples=-3\n"


def test_verify_requires_mode(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--property", "parity", "--n", "3"])


def test_main_calls_in_one_process_are_independent(capsys):
    """main builds its parser once per process: options, defaults and an
    argparse error in one call must not leak into the next."""
    calls = [
        ("graph", "[1, -5, -2, 4, -3, 6]", "--format", "text"),
        ("sort", "[3, -1, 4, -2, 5, 6]", "--strategy", "indiscriminate", "--allow-cds"),
        ("sort", "[3, -1, 4, -2, 5, 6]"),
        ("verify", "--property", "parity", "--n", "3", "--samples", "5", "--seed", "2"),
        ("verify", "--property", "parity", "--n", "3", "--exhaustive"),
        ("parity", "[3, -1, 4, -2, 5, 6]"),
        ("game", "[1,3,5,-2,-6,4]", "--rule", "misere"),
        ("game", "[1,3,5,-2,-6,4]"),
    ]
    first = [run_cli(capsys, *argv) for argv in calls]
    assert first[0] == (0, (GOLDEN / "graph_perm6.txt").read_text(), "")
    assert "k+2m=" in first[1][1] and first[2][0] == 0 and "k+2m=" not in first[2][1]
    assert "seed=2" in first[3][1] and "cases=48" in first[4][1]
    with pytest.raises(SystemExit) as exc:
        main(["graph", "[1, -5, -2, 4, -3, 6]", "--format", "png"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    again = [run_cli(capsys, *argv) for argv in reversed(calls)]
    assert again[::-1] == first


# ---------------------------------------------------------------------------
# game


def test_game_normal_example(capsys):
    code, out, _ = run_cli(capsys, "game", "[1,3,5,-2,-6,4]", "--rule", "normal")
    assert code == 0
    assert out.splitlines()[0] == "winner: ONE (parity odd)"


def test_game_misere_identity(capsys):
    code, out, _ = run_cli(capsys, "game", "[1,2,3]", "--rule", "misere")
    assert code == 0
    assert out.splitlines()[0] == "winner: ONE (parity even)"


def test_game_on_empty_graph(capsys):
    code, out, _ = run_cli(capsys, "game", "[1]", "--rule", "normal")
    assert code == 0 and out.splitlines()[0] == "winner: TWO (parity even)"
    code, out, _ = run_cli(capsys, "game", "[1]", "--rule", "misere")
    assert code == 0 and out.splitlines()[0] == "winner: ONE (parity even)"


def test_game_oracle_agrees(capsys):
    code, out, _ = run_cli(capsys, "game", "[1,3,5,-2,-6,4]", "--oracle")
    assert code == 0
    assert "oracle: ONE (agree)" in out


def test_game_trace(capsys):
    code, out, _ = run_cli(capsys, "game", "[1,3,5,-2,-6,4]", "--trace")
    assert code == 0
    assert "ply 1 ONE (1,2) remaining=3" in out
    assert "ply 3 ONE (5,6) remaining=0" in out


def test_game_from_graph_file(tmp_path, capsys):
    from cdsort.graph import build_overlap_graph

    path = tmp_path / "graph.txt"
    path.write_text(to_text(build_overlap_graph((1, 3, 5, -2, -6, 4))))
    code, out, _ = run_cli(capsys, "game", "--graph-file", str(path))
    assert code == 0
    assert out.splitlines()[0] == "winner: ONE (parity odd)"


def test_game_rejects_two_sources(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("vertex (1,2) oriented\n")
    code, _, err = run_cli(capsys, "game", "[1,2]", "--graph-file", str(path))
    assert code == 1 and "not both" in err


def _isolated_oriented_text(n):
    return "".join(f"vertex ({v},{v + 1}) oriented\n" for v in range(1, n + 1))


def _oriented_path_text(n):
    # a path whose end vertex alone is oriented: every playout is forced and
    # has one move per vertex
    lines = ["vertex (1,2) oriented\n"]
    lines += [f"vertex ({v},{v + 1}) unoriented\n" for v in range(2, n + 1)]
    lines += [f"edge ({v},{v + 1}) ({v + 1},{v + 2})\n" for v in range(1, n)]
    return "".join(lines)


def test_game_oracle_on_deep_graph_reports_budget(tmp_path, capsys, monkeypatch):
    # a small budget keeps the test fast; the search is the one the CLI runs
    monkeypatch.setattr(games, "winner_by_minimax",
                        functools.partial(games.winner_by_minimax, budget=2000))
    path = tmp_path / "deep.txt"
    path.write_text(_isolated_oriented_text(1500))
    code, out, err = run_cli(capsys, "game", "--graph-file", str(path), "--oracle")
    assert code == 1
    assert out.splitlines()[0] == "winner: TWO (parity even)"
    assert err.startswith("error: ") and "budget" in err


def test_game_oracle_plays_a_game_as_long_as_the_graph(tmp_path, capsys):
    path = tmp_path / "path.txt"
    path.write_text(_oriented_path_text(1500))
    code, out, err = run_cli(capsys, "game", "--graph-file", str(path), "--oracle")
    assert code == 0 and err == ""
    assert out.splitlines() == ["winner: TWO (parity even)", "oracle: TWO (agree)"]


def test_game_graph_file_with_large_labels(tmp_path, capsys):
    text = ("vertex (7,8) oriented\n"
            "vertex (1000000000,1000000001) oriented\n"
            "vertex (1000000002,1000000003) unoriented\n"
            "edge (7,8) (1000000000,1000000001)\n"
            "edge (1000000000,1000000001) (1000000002,1000000003)\n")
    assert to_text(graph_from_text(text)) == text
    path = tmp_path / "labels.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "game", "--graph-file", str(path), "--oracle", "--trace")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "winner: ONE (parity odd)",
        "oracle: ONE (agree)",
        "ply 1 ONE (7,8) remaining=0",
    ]


# ---------------------------------------------------------------------------
# fixed-points, fixtures, parity


def test_fixed_points_output(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "[1,3,5,-2,-6,4]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[1, 3, 5, 6, 2, 4] steps=1"
    assert "[1, 2, 3, 4, 5, 6] steps=5" in lines
    assert lines[-1] == "complete"


def test_fixed_points_identity(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "[1,2]")
    assert code == 0
    assert out.splitlines() == ["[1, 2] steps=0", "complete"]


def test_fixed_points_budget_flag(capsys):
    code, out, _ = run_cli(capsys, "fixed-points", "--fixture", "u_pisces_1", "--budget", "40")
    assert code == 0
    assert out.splitlines()[-1] == "incomplete (budget exhausted)"


def test_fixed_points_on_deep_input_answers(capsys):
    # DEEP: the walk's first run reaches a fixed point after 1000 moves, so
    # 1001 states cover that run and no more
    code, out, err = run_cli(capsys, "fixed-points", str(list(DEEP)), "--budget", "1001")
    assert code == 0 and err == ""
    line, status = out.splitlines()
    assert status == "incomplete (budget exhausted)"
    fp, _, steps = line.partition(" steps=")
    assert steps == "1000"
    assert gf2_rank(*overlap_masks(DEEP)) - gf2_rank(*overlap_masks(parse_entries(fp))) == 1000


def test_out_of_memory_is_an_error_line(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(analysis, "enumerate_cdr_fixed_points", exhausted)
    assert run_cli(capsys, "fixed-points", "[2, 1]") == (1, "", "error: out of memory\n")


def test_parity_command(capsys):
    code, out, _ = run_cli(capsys, "parity", "[1,3,5,-2,-6,4]")
    assert code == 0 and out == "parity: odd\n"


# ---------------------------------------------------------------------------
# input plumbing


def test_file_input(tmp_path, capsys):
    path = tmp_path / "perm.txt"
    path.write_text("# comment line\n\n[1, -3, 2]\n[2, 1]\n")
    code, out, _ = run_cli(capsys, "parity", "--file", str(path))
    assert code == 0 and out == "parity: even\n"


def test_file_without_permutation(tmp_path, capsys):
    path = tmp_path / "perm.txt"
    path.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "parity", "--file", str(path))
    assert code == 1 and "no permutation found" in err


def test_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "parity", "--fixture", "nope")
    assert code == 1 and "unknown fixture" in err


def test_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "parity")
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(capsys, "parity", "[1]", "--fixture", "alpha_tbp")
    assert code == 1 and "exactly one" in err


def test_parse_error_is_diagnosed(capsys):
    code, _, err = run_cli(capsys, "parity", "[1, 1]")
    assert code == 1 and "duplicate absolute value" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cdsort", "parity", "[1, -3, 2]"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "parity: even\n"


def test_graph_text_round_trips_through_parser(capsys):
    code, out, _ = run_cli(capsys, "graph", "[1, -5, -2, 4, -3, 6]", "--format", "text")
    assert code == 0
    g = graph_from_text(out)
    assert to_text(g) == out
