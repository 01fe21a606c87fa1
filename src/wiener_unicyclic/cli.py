"""Batch command-line front end.

Subcommands::

    wiener     read graph6 lines, print W / transmissions / part sizes
    onion      build On(k, l, m), print graph6 and closed-form values
    verify     exhaustive max- or min-side verification for one (p, q)
    enumerate  stream all isomorphism classes for one (p, q) as graph6
    table      min/max summary rows for every (p, q) within bounds
    harness    seeded randomized checks of the coalescence lemmas

Exit codes: 0 success (all asserted agreements hold), 1 verification
mismatch or counterexample, 2 usage or parse error. The published
polynomial for the maximum only ever produces a WARNING; it never
affects the exit code. Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields

from .canon import CANONICAL_MAX_VERTICES
from .enumeration import DEFAULT_MAX_N, EnumSpec, enumerate_unicyclic_bipartite
from .families import OnionParams, build_onion, onion_transmissions, onion_wiener_closed_form
from .graph6 import Graph6ParseError, graph6_decode, graph6_encode
from .graphs import MAX_VERTICES, DisconnectedGraphError, bipartition, transmissions
from .verification import TableRow, extremal_table, lemma_harness, verify_both

#: Seed used whenever --seed is not given.
DEFAULT_SEED = 1

USAGE_ERROR = 2

#: --threads is kept so existing command lines still parse; it must be positive.
THREADS_HELP = "accepted for compatibility; the search runs in one process"


def _add_common(sp: argparse.ArgumentParser, formats: tuple[str, ...], default_fmt: str) -> None:
    sp.add_argument("--format", choices=formats, default=default_fmt, dest="fmt")
    sp.add_argument("--output", default=None, help="write to this file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiener-unicyclic",
        description="Wiener indices and extremal verification for unicyclic bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("wiener", help="compute W and transmissions for graph6 input")
    sp.add_argument("input", nargs="?", default="-", help="graph6 file, '-' for stdin")
    _add_common(sp, ("text", "csv", "json"), "text")

    sp = sub.add_parser("onion", help="build an onion graph and its closed-form values")
    sp.add_argument("k", type=int)
    sp.add_argument("l", type=int)
    sp.add_argument("m", type=int)
    _add_common(sp, ("text", "csv", "json", "graph6"), "text")

    sp = sub.add_parser("verify", help="exhaustive extremal verification for one (p, q)")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--max", action="store_true", help="verify the maximum side (default)")
    group.add_argument("--min", action="store_true", help="verify the minimum side")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    sp.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    _add_common(sp, ("text", "csv", "json"), "text")

    sp = sub.add_parser("enumerate", help="stream all isomorphism classes as graph6")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    sp.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    _add_common(sp, ("graph6", "text", "json"), "graph6")

    sp = sub.add_parser("table", help="extremal summary for all (p, q) within bounds")
    sp.add_argument("--p-max", type=int, default=None, dest="p_max")
    sp.add_argument("--n-max", type=int, default=10, dest="n_max")
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    sp.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    sp.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="accepted for compatibility; the table is not randomized",
    )
    _add_common(sp, ("text", "csv", "json"), "text")

    sp = sub.add_parser("harness", help="seeded randomized lemma checks")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--trials", type=int, default=10000)
    _add_common(sp, ("text", "json"), "text")

    return parser


def _check(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> None:
    """Reject out-of-range options with a usage error (exit 2)."""
    if ns.command in ("verify", "enumerate"):
        if not (2 <= ns.p <= ns.q):
            parser.error(f"need 2 <= p <= q, got ({ns.p}, {ns.q})")
        if ns.p + ns.q > ns.max_n:
            parser.error(f"p + q = {ns.p + ns.q} exceeds --max-n {ns.max_n}")
    if ns.command == "onion":
        if ns.k < 0 or ns.m < 0 or ns.l < 1:
            parser.error(f"need k >= 0, l >= 1, m >= 0, got ({ns.k}, {ns.l}, {ns.m})")
        n = OnionParams(ns.k, ns.l, ns.m).n
        if n > MAX_VERTICES:
            parser.error(
                f"On({ns.k}, {ns.l}, {ns.m}) has {n} vertices; graphs hold at most {MAX_VERTICES}"
            )
    if ns.command == "table":
        if ns.n_max < 4:
            parser.error("--n-max must be at least 4")
        if ns.n_max > ns.max_n:
            parser.error(f"--n-max {ns.n_max} exceeds --max-n {ns.max_n}")
    if ns.command == "harness" and ns.trials < 1:
        parser.error("--trials must be positive")
    if getattr(ns, "threads", 1) < 1:
        parser.error("--threads must be positive")
    if getattr(ns, "max_n", 0) > CANONICAL_MAX_VERTICES:
        parser.error(
            f"--max-n {ns.max_n} exceeds the canonical-form limit {CANONICAL_MAX_VERTICES}"
        )


def _write(ns: argparse.Namespace, text: str) -> None:
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_lines(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_WIENER_COLUMNS = ["line", "n", "edges", "wiener", "t_min", "t_max", "p", "q", "error"]


def cmd_wiener(ns: argparse.Namespace) -> int:
    if ns.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(ns.input) as fh:
            lines = fh.read().splitlines()
    records: list[dict] = []
    for idx, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            g = graph6_decode(line)
        except Graph6ParseError as exc:
            sys.stderr.write(f"error: line {idx}: {exc}\n")
            return USAGE_ERROR
        rec: dict = {"line": idx, "n": g.n, "edges": g.num_edges}
        try:
            ts = transmissions(g)
        except DisconnectedGraphError:
            rec["error"] = "disconnected"
            records.append(rec)
            continue
        rec["wiener"] = sum(ts) // 2
        rec["t_min"] = min(ts)
        rec["t_max"] = max(ts)
        bp = bipartition(g)
        if bp is None:
            rec["p"] = rec["q"] = None
        else:
            rec["p"], rec["q"] = bp.sizes
        records.append(rec)

    if ns.fmt == "json":
        _write(ns, _json_lines(records))
    elif ns.fmt == "csv":
        rows = [[r.get(c, "") for c in _WIENER_COLUMNS] for r in records]
        _write(ns, _csv_text(_WIENER_COLUMNS, rows))
    else:
        out = []
        for r in records:
            if "error" in r:
                out.append(f"line={r['line']} error={r['error']}")
            else:
                parts = "non-bipartite" if r["p"] is None else f"({r['p']},{r['q']})"
                out.append(
                    f"line={r['line']} n={r['n']} edges={r['edges']} wiener={r['wiener']}"
                    f" t_min={r['t_min']} t_max={r['t_max']} parts={parts}"
                )
        _write(ns, "".join(s + "\n" for s in out))
    return 0


def cmd_onion(ns: argparse.Namespace) -> int:
    params = OnionParams(ns.k, ns.l, ns.m)
    g = build_onion(params)
    w = onion_wiener_closed_form(params)
    t_v, t_ul = onion_transmissions(params)
    g6 = graph6_encode(g)
    rec = dict(k=ns.k, l=ns.l, m=ns.m, n=g.n, graph6=g6, wiener=w, t_v=t_v, t_path_end=t_ul)
    if ns.fmt == "graph6":
        _write(ns, g6 + "\n")
    elif ns.fmt == "json":
        _write(ns, _json_lines([rec]))
    elif ns.fmt == "csv":
        _write(ns, _csv_text(list(rec), [list(rec.values())]))
    else:
        _write(
            ns,
            (
                f"onion k={ns.k} l={ns.l} m={ns.m} n={g.n}\n"
                f"graph6: {g6}\n"
                f"wiener (closed form): {w}\n"
                f"transmission at pendant-cycle vertex: {t_v}\n"
                f"transmission at path end: {t_ul}\n"
            ),
        )
    return 0


def _verify_text(report) -> str:
    lines = [
        f"verify {report.direction} p={report.p} q={report.q}",
        f"  isomorphism classes: {report.classes}",
        f"  optimum wiener: {report.optimum}",
        f"  optimizers ({len(report.optimizers)}):",
    ]
    for wit in report.optimizers:
        lines.append(f"    {wit.graph6}  canon={wit.canon.hex()}")
    lines.append(f"  predicted graph: {report.predicted_graph6}")
    lines.append(f"  graph match: {_yn(report.graph_match)}")
    lines.append(f"  predicted value: {report.predicted_value_closed_form}")
    lines.append(f"  value match: {_yn(report.value_match)}")
    if report.direction == "max":
        lines.append(f"  unique optimizer: {_yn(report.uniqueness)}")
        if not report.polynomial_match:
            lines.append(
                f"  WARNING: published polynomial gives "
                f"{report.predicted_value_polynomial}, exhaustive optimum is "
                f"{report.optimum} (reported only, never asserted)"
            )
        else:
            lines.append(f"  polynomial value: {report.predicted_value_polynomial} (matches)")
    return "".join(s + "\n" for s in lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "NO"


def cmd_verify(ns: argparse.Namespace) -> int:
    report = verify_both(ns.p, ns.q, max_n=ns.max_n)[1 if ns.min else 0]
    if ns.fmt == "json":
        _write(ns, _json_lines([report.as_record()]))
    elif ns.fmt == "csv":
        rec = report.as_record()
        rec["optimizers"] = ";".join(w.graph6 for w in report.optimizers)
        header = list(rec)
        _write(ns, _csv_text(header, [[rec[c] for c in header]]))
    else:
        _write(ns, _verify_text(report))
    return 0 if report.ok else 1


def cmd_enumerate(ns: argparse.Namespace) -> int:
    graphs = list(enumerate_unicyclic_bipartite(EnumSpec(ns.p, ns.q, ns.max_n)))
    if ns.fmt == "json":
        records = []
        for g in graphs:
            ts = transmissions(g)
            records.append({"graph6": graph6_encode(g), "n": g.n, "wiener": sum(ts) // 2})
        _write(ns, _json_lines(records))
    elif ns.fmt == "text":
        out = []
        for g in graphs:
            ts = transmissions(g)
            out.append(f"{graph6_encode(g)} n={g.n} wiener={sum(ts) // 2}")
        _write(ns, "".join(s + "\n" for s in out))
    else:
        _write(ns, "".join(graph6_encode(g) + "\n" for g in graphs))
    return 0


def cmd_table(ns: argparse.Namespace) -> int:
    rows = extremal_table(ns.p_max, ns.n_max, max_n=ns.max_n)
    if ns.fmt == "json":
        _write(ns, _json_lines([r.as_record() for r in rows]))
    elif ns.fmt == "csv":
        header = [f.name for f in fields(TableRow)]
        _write(ns, _csv_text(header, [list(r.as_record().values()) for r in rows]))
    else:
        out = []
        for r in rows:
            line = (
                f"p={r.p} q={r.q} classes={r.classes} min={r.min_wiener} max={r.max_wiener}"
                f" value_match={_yn(r.max_value_match)} graph_match={_yn(r.max_graph_match)}"
                f" unique={_yn(r.max_unique)} min_graph_match={_yn(r.min_graph_match)}"
            )
            if not r.polynomial_match:
                line += f" WARNING:polynomial={r.polynomial}"
            out.append(line)
        _write(ns, "".join(s + "\n" for s in out))
    return 0 if all(r.ok for r in rows) else 1


def cmd_harness(ns: argparse.Namespace) -> int:
    report = lemma_harness(ns.seed, ns.trials)
    if ns.fmt == "json":
        _write(ns, _json_lines([report.as_record()]))
    else:
        _write(
            ns,
            (
                f"harness seed={report.seed} trials={report.trials}\n"
                f"  coalescence identity checked: {report.identity_checked}\n"
                f"  transplant monotonicity checked: {report.monotonicity_checked}"
                f" (skipped {report.monotonicity_skipped} equal-transmission pairs)\n"
                f"  {len(report.counterexamples)} counterexamples\n"
            ),
        )
    return 0 if report.ok else 1


_HANDLERS = {
    "wiener": cmd_wiener,
    "onion": cmd_onion,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
    "table": cmd_table,
    "harness": cmd_harness,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    _check(parser, ns)
    return _HANDLERS[ns.command](ns)


def entry() -> None:
    raise SystemExit(main())
