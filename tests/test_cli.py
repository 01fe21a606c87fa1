"""Command-line behaviour: records, exit codes, formats, determinism."""

import json
import os
import subprocess
import sys

import pytest

from wiener_unicyclic import build_cycle, graph6_decode, graph6_encode, wiener_index
from wiener_unicyclic.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wiener_cycle_four(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text(graph6_encode(build_cycle(4)) + "\n")
    code, out, _ = run_cli(capsys, "wiener", str(path))
    assert code == 0
    assert "wiener=8" in out
    assert "parts=(2,2)" in out


def test_wiener_onion_line_matches_closed_form(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "onion", "3", "4", "5", "--format", "graph6")
    line = out.strip()
    path = tmp_path / "onion.g6"
    path.write_text(line + "\n")
    code, out, _ = run_cli(capsys, "wiener", str(path), "--format", "json")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["wiener"] == 378


def test_wiener_malformed_line_sets_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text(graph6_encode(build_cycle(4)) + "\nC\n")  # line 2 is truncated
    code, out, err = run_cli(capsys, "wiener", str(path))
    assert code == 2
    assert "line 2" in err


def test_wiener_disconnected_is_per_line_error(capsys, tmp_path):
    # two disjoint edges on four vertices
    from wiener_unicyclic import Graph

    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    path = tmp_path / "dis.g6"
    path.write_text(graph6_encode(g) + "\n" + graph6_encode(build_cycle(4)) + "\n")
    code, out, _ = run_cli(capsys, "wiener", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "error=disconnected" in lines[0]
    assert "wiener=8" in lines[1]


def test_onion_text_output(capsys):
    code, out, _ = run_cli(capsys, "onion", "0", "1", "0")
    assert code == 0
    assert "wiener (closed form): 8" in out


def test_onion_rejects_bad_params(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["onion", "0", "0", "0"])
    assert exc.value.code == 2


def test_verify_max_three_three_warns_but_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "3", "3", "--threads", "1")
    assert code == 0
    assert "optimum wiener: 29" in out
    assert "WARNING" in out
    assert "63" in out


def test_verify_min_three_three_lists_both_optimizers(capsys):
    code, out, _ = run_cli(capsys, "verify", "--min", "3", "3", "--threads", "1")
    assert code == 0
    assert "optimizers (2):" in out


def test_verify_max_two_two(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "2", "2", "--threads", "1")
    assert code == 0
    assert "optimum wiener: 8" in out


def test_verify_usage_error_on_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max", "1", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "2", "2", "--max-n", "20"], "--max-n 20 exceeds the canonical-form limit 16"),
        (["enumerate", "2", "2", "--max-n", "17"], "--max-n 17 exceeds the canonical-form limit 16"),
        (["table", "--n-max", "6", "--max-n", "20"], "--max-n 20 exceeds the canonical-form limit 16"),
        (["onion", "0", "100", "0"], "On(0, 100, 0) has 103 vertices; graphs hold at most 64"),
        (["onion", "0", "58", "4"], "On(0, 58, 4) has 65 vertices; graphs hold at most 64"),
        (["verify", "3", "3", "--threads", "0"], "--threads must be positive"),
    ],
)
def test_limits_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_onion_at_vertex_limit_builds(capsys):
    code, out, _ = run_cli(capsys, "onion", "0", "57", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("0,57,4,64,")


def test_enumerate_two_two_single_line(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "2", "2", "--threads", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    g = graph6_decode(lines[0])
    assert wiener_index(g) == 8


def test_enumerate_output_round_trips_through_wiener(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "enumerate", "3", "4", "--threads", "1")
    assert code == 0
    path = tmp_path / "all.g6"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "wiener", str(path))
    assert code == 0
    assert len(out2.splitlines()) == 8
    assert all("parts=(3,4)" in line for line in out2.splitlines())


def test_table_determinism_and_warnings(capsys):
    code1, out1, _ = run_cli(capsys, "table", "--n-max", "7", "--seed", "1", "--threads", "1")
    code2, out2, _ = run_cli(capsys, "table", "--n-max", "7", "--seed", "1", "--threads", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "WARNING:polynomial=" in out1


def test_table_csv_header(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "6", "--format", "csv", "--threads", "1")
    assert code == 0
    assert out.splitlines()[0] == (
        "p,q,classes,min_wiener,max_wiener,closed_form,polynomial,"
        "max_value_match,max_graph_match,max_unique,polynomial_match,min_graph_match"
    )


def test_table_json_records(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "6", "--format", "json", "--threads", "1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert {(r["p"], r["q"]) for r in records} == {(2, 2), (2, 3), (2, 4), (3, 3)}
    assert all(r["max_value_match"] for r in records)


def test_harness_reports_zero_counterexamples(capsys):
    code, out, _ = run_cli(capsys, "harness", "--trials", "300", "--seed", "1")
    assert code == 0
    assert "0 counterexamples" in out


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "onion", "1", "2", "1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert "wiener (closed form): 46" in target.read_text()


def test_cli_import_does_not_load_networkx():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, wiener_unicyclic.cli; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "False"
