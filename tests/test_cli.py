"""Command-line behaviour: records, exit codes, formats, determinism."""

import hashlib
import io
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


@pytest.mark.parametrize("route", ["file", "stdin"])
def test_wiener_non_utf8_byte_is_a_parse_error(capsys, tmp_path, monkeypatch, route):
    data = b"Cl\n\xff\n"
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    if route == "stdin":
        # a strict decoder, as under PYTHONIOENCODING=utf-8
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    target = tmp_path / "out.txt"
    argv = ["wiener", str(path) if route == "file" else "-", "--output", str(target)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: line 2: character '\\udcff' outside graph6 range (byte offset 0)\n"
    assert target.read_text() == ""


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize("route", ["file", "stdin"])
def test_wiener_breaks_lines_only_at_newlines(capsys, tmp_path, monkeypatch, route, sep):
    # str.splitlines would end line 1 at sep and print three records
    data = f"A_{sep}A_\nBw\n".encode()
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    if route == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, out, err = run_cli(capsys, "wiener", str(path) if route == "file" else "-")
    assert code == 2
    assert out == ""
    assert err == f"error: line 1: character {sep!r} outside graph6 range (byte offset 2)\n"


@pytest.mark.parametrize(
    "mark", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"]
)
@pytest.mark.parametrize("route", ["file", "stdin"])
def test_wiener_skips_only_lines_of_spaces_and_tabs(capsys, tmp_path, monkeypatch, route, mark):
    # str.strip() would empty line 3 and skip it; line 2, spaces and a tab, is
    # still skipped, or the error would name it
    data = f"A_\n \t \n{mark}\nBw\n".encode()
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    if route == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, out, err = run_cli(capsys, "wiener", str(path) if route == "file" else "-")
    assert code == 2
    assert out == ""
    assert err == f"error: line 3: character {mark!r} outside graph6 range (byte offset 0)\n"


@pytest.mark.parametrize("route", ["file", "stdin"])
def test_wiener_crlf_and_cr_end_lines(capsys, tmp_path, monkeypatch, route):
    data = b"A_\r\n\r\nBw\r\nCl\r"
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    if route == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, out, _ = run_cli(capsys, "wiener", str(path) if route == "file" else "-")
    assert code == 0
    assert out == (
        "line=1 n=2 edges=1 wiener=1 t_min=1 t_max=1 parts=(1,1)\n"
        "line=3 n=3 edges=3 wiener=3 t_min=2 t_max=2 parts=non-bipartite\n"
        "line=4 n=4 edges=4 wiener=8 t_min=4 t_max=4 parts=(2,2)\n"
    )


@pytest.mark.parametrize(
    "fmt, want", [("text", ""), ("json", ""), ("csv", "line,n,edges,wiener,t_min,t_max,p,q,error\n")]
)
def test_wiener_empty_input_prints_no_records(capsys, tmp_path, fmt, want):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, _ = run_cli(capsys, "wiener", str(path), "--format", fmt)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_wiener_malformed_line_leaves_the_output_file_empty(capsys, tmp_path, fmt):
    path = tmp_path / "bad.g6"
    path.write_text(graph6_encode(build_cycle(4)) + "\nC\n")
    target = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, "wiener", str(path), "--format", fmt, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: ")
    assert target.read_text() == ""


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
        (["table", "--p-max", "1"], "--p-max must be at least 2"),
        (["verify", "7", "8"], "p + q = 15 exceeds --max-n 14"),
        (["table", "--n-max", "15"], "--n-max 15 exceeds --max-n 14"),
    ],
)
def test_limits_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "2", "2", "--max-n", "20"],
        ["enumerate", "3", "2"],
        ["table", "--n-max", "3"],
        ["onion", "0", "0", "0"],
        ["harness", "--trials", "0"],
    ],
)
def test_usage_error_prints_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: wiener-unicyclic {argv[0]} ")


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


def test_harness_ten_thousand_trials_digest_is_pinned(capsys):
    # every trial's random graphs and anchors come from randrange's stream for
    # random.Random, so any change to a draw, a generator or the report moves
    # this digest; CI's console-script step checks its first 16 hex digits
    code, out, _ = run_cli(capsys, "harness", "--seed", "1", "--trials", "10000", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "c7ea51d7752112687f97e621239ab603712a578518ca386ccf09bf4b9cd16ba1"


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "onion", "1", "2", "1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert "wiener (closed form): 46" in target.read_text()


def test_missing_input_file_is_a_file_error(capsys, tmp_path):
    path = tmp_path / "missing.g6"
    code, out, err = run_cli(capsys, "wiener", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err


def test_wiener_closed_stdin_is_a_file_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)  # what Python sets when descriptor 0 is closed
    code, out, err = run_cli(capsys, "wiener", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "stdin" in err


def test_unwritable_output_is_a_file_error(capsys, tmp_path):
    target = tmp_path / "missing" / "dir" / "x"
    code, out, err = run_cli(capsys, "onion", "1", "1", "1", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
def test_wiener_output_naming_its_input_is_a_usage_error(capsys, tmp_path, spelling):
    path = tmp_path / "in.g6"
    data = graph6_encode(build_cycle(4)) + "\n"
    path.write_text(data)
    spellings = {"same": str(path), "dotted": f"{tmp_path}/./in.g6", "symlink": f"{tmp_path}/link.g6"}
    target = spellings[spelling]
    if spelling == "symlink":
        os.symlink(path, target)
    with pytest.raises(SystemExit) as exc:
        main(["wiener", str(path), "--output", target])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: --output {target} names the input file\n")
    assert path.read_text() == data


def test_unwritable_output_fails_before_the_search(capsys, tmp_path, monkeypatch):
    from wiener_unicyclic import enumeration, verification

    def refuse(*args):
        raise AssertionError("the search ran before --output was opened")

    monkeypatch.setattr(enumeration, "unicyclic_classes", refuse)
    monkeypatch.setattr(verification, "unicyclic_classes", refuse)
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "table", "--n-max", "14", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize(
    "side,other",
    [("--max", ["build_min_extremal"]), ("--min", ["build_onion", "theorem_polynomial"])],
)
def test_verify_builds_only_the_side_it_prints(capsys, monkeypatch, side, other):
    from wiener_unicyclic import verification

    def refuse(*args):
        raise AssertionError(f"{side} built the other side's report")

    for name in other:
        monkeypatch.setattr(verification, name, refuse)
    code, out, _ = run_cli(capsys, "verify", side, "3", "4")
    assert code == 0
    assert out.startswith(f"verify {side[2:]} p=3 q=4")


def test_cli_import_does_not_load_networkx():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, wiener_unicyclic.cli; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "False"


@pytest.mark.skipif(not os.environ.get("WU_ACCEPT_N13"), reason="order 16 needs WU_ACCEPT_N13")
def test_headline_table_csv_is_pinned(capsys):
    # every (p, q) with p + q <= 16; the digest is the one BENCH_pr8.json records
    code, out, _ = run_cli(capsys, "table", "--n-max", "16", "--max-n", "16", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "25dddcfe2690c98c9f6779929345de363e571d507ee51632f72aece9aa5a8cd7"
    )
