"""Batch command-line front end.

Subcommands::

    wiener     read graph6 lines, print W / transmissions / part sizes
    onion      build On(k, l, m), print graph6 and closed-form values
    verify     exhaustive max- or min-side verification for one (p, q)
    enumerate  stream all isomorphism classes for one (p, q) as graph6
    table      min/max summary rows for every (p, q) within bounds
    harness    seeded randomized checks of the coalescence lemmas

Exit codes: 0 success (all asserted agreements hold), 1 verification
mismatch or counterexample, 2 usage or parse error, or an input or
output file that cannot be opened. The published polynomial for the
maximum only ever produces a WARNING; it never affects the exit code.
``--output`` is opened (created, or truncated) before the subcommand
does any work, so an unwritable path exits 2 at once; a run that exits 2
after that, on an unreadable input file or a malformed graph6 line,
leaves the output file empty. A ``wiener`` run whose ``--output`` names
its input file is a usage error, so the input is never truncated.
One writer frames every format. ``wiener`` decodes a file and stdin by one
rule, UTF-8 with each invalid byte kept as a lone surrogate, so such a byte
is a parse error, not a crash. Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from typing import Callable, TextIO

from .canon import CANONICAL_MAX_VERTICES
from .enumeration import EnumSpec, enumerate_unicyclic_bipartite
from .families import OnionParams, build_onion, onion_transmissions, onion_wiener_closed_form
from .graph6 import Graph6ParseError, graph6_decode, graph6_encode
from .graphs import MAX_VERTICES, DisconnectedGraphError, bipartition, transmissions
from .verification import extremal_table, lemma_harness, verify

#: Seed used whenever --seed is not given.
DEFAULT_SEED = 1

#: --max-n when not given: the command line's guard on p + q, at most 16.
DEFAULT_MAX_N = 14

USAGE_ERROR = 2

#: --threads is kept so existing command lines still parse; it must be positive.
THREADS_HELP = "accepted for compatibility; the search runs in one process"


def _add_search_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    sp.add_argument("--threads", type=int, default=1, help=THREADS_HELP)


def _add_common(sp: argparse.ArgumentParser, formats: tuple[str, ...], default_fmt: str) -> None:
    sp.add_argument("--format", choices=formats, default=default_fmt, dest="fmt")
    sp.add_argument("--output", default=None, help="write to this file instead of stdout")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
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
    _add_search_flags(sp)
    _add_common(sp, ("text", "csv", "json"), "text")

    sp = sub.add_parser("enumerate", help="stream all isomorphism classes as graph6")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    _add_search_flags(sp)
    _add_common(sp, ("graph6", "text", "json"), "graph6")

    sp = sub.add_parser("table", help="extremal summary for all (p, q) within bounds")
    sp.add_argument("--p-max", type=int, default=None, dest="p_max")
    sp.add_argument("--n-max", type=int, default=10, dest="n_max")
    _add_search_flags(sp)
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

    return parser, sub.choices


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file (by path when one is missing)."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _check(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> None:
    """Reject out-of-range options with ``parser``'s usage error (exit 2)."""
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
        if ns.p_max is not None and ns.p_max < 2:
            parser.error("--p-max must be at least 2")
    if ns.command == "wiener" and ns.output and ns.input != "-" and _same_file(ns.input, ns.output):
        parser.error(f"--output {ns.output} names the input file")
    if ns.command == "harness" and ns.trials < 1:
        parser.error("--trials must be positive")
    if getattr(ns, "threads", 1) < 1:
        parser.error("--threads must be positive")
    if getattr(ns, "max_n", 0) > CANONICAL_MAX_VERTICES:
        parser.error(
            f"--max-n {ns.max_n} exceeds the canonical-form limit {CANONICAL_MAX_VERTICES}"
        )


def _write(
    out: TextIO, fmt: str, records: list[dict], text: Callable[[dict], str], columns: list[str] | None = None
) -> None:
    """Print ``records`` as JSON lines, CSV, graph6 or one ``text(record)`` each.

    The CSV header is ``columns``, by default the first record's keys, and a
    missing value prints empty. Handlers build every record before the call,
    so a run that fails part way writes nothing.
    """
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        columns = columns or list(records[0])
        writer.writerow(columns)
        writer.writerows([r.get(c, "") for c in columns] for r in records)
        return
    if fmt == "json":
        lines = [json.dumps(r, sort_keys=True) for r in records]
    elif fmt == "graph6":
        lines = [r["graph6"] for r in records]
    else:
        lines = [text(r) for r in records]
    out.write("".join(s + "\n" for s in lines))


def _yn(flag: bool) -> str:
    return "yes" if flag else "NO"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_WIENER_COLUMNS = ["line", "n", "edges", "wiener", "t_min", "t_max", "p", "q", "error"]


def _wiener_text(r: dict) -> str:
    if "error" in r:
        return f"line={r['line']} error={r['error']}"
    parts = "non-bipartite" if r["p"] is None else f"({r['p']},{r['q']})"
    return (
        f"line={r['line']} n={r['n']} edges={r['edges']} wiener={r['wiener']}"
        f" t_min={r['t_min']} t_max={r['t_max']} parts={parts}"
    )


def cmd_wiener(ns: argparse.Namespace, out: TextIO) -> int:
    # A byte that is not UTF-8 becomes a lone surrogate, which graph6_decode
    # rejects like any non-ASCII character, at its byte offset. Only \n, \r\n
    # and \r end a line (str.splitlines also breaks at \f, \v and others), so
    # any other control character stays in its line and is rejected there.
    # Only a line of spaces and tabs is blank; str.strip() would also empty a
    # line of \v, \f, \x1c-\x1f, U+0085, U+2028 or U+2029.
    if ns.input == "-" and sys.stdin is None:  # Python's stdin when descriptor 0 is closed
        raise OSError("cannot read stdin: it is closed")
    with open(ns.input, "rb") if ns.input != "-" else nullcontext(sys.stdin.buffer) as fh:
        text = fh.read().decode("utf-8", "surrogateescape")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    records: list[dict] = []
    for idx, line in enumerate(lines, start=1):
        if not line.strip(" \t"):
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
        else:
            rec["wiener"] = sum(ts) // 2
            rec["t_min"] = min(ts)
            rec["t_max"] = max(ts)
            bp = bipartition(g)
            if bp is None:
                rec["p"] = rec["q"] = None
            else:
                rec["p"], rec["q"] = bp.sizes
        records.append(rec)
    _write(out, ns.fmt, records, _wiener_text, _WIENER_COLUMNS)
    return 0


def _onion_text(r: dict) -> str:
    return (
        f"onion k={r['k']} l={r['l']} m={r['m']} n={r['n']}\n"
        f"graph6: {r['graph6']}\n"
        f"wiener (closed form): {r['wiener']}\n"
        f"transmission at pendant-cycle vertex: {r['t_v']}\n"
        f"transmission at path end: {r['t_path_end']}"
    )


def cmd_onion(ns: argparse.Namespace, out: TextIO) -> int:
    params = OnionParams(ns.k, ns.l, ns.m)
    g = build_onion(params)
    w = onion_wiener_closed_form(params)
    t_v, t_ul = onion_transmissions(params)
    rec = dict(k=ns.k, l=ns.l, m=ns.m, n=g.n, graph6=graph6_encode(g), wiener=w, t_v=t_v, t_path_end=t_ul)
    _write(out, ns.fmt, [rec], _onion_text)
    return 0


def _verify_text(r: dict) -> str:
    lines = [
        f"verify {r['direction']} p={r['p']} q={r['q']}",
        f"  isomorphism classes: {r['classes']}",
        f"  optimum wiener: {r['optimum']}",
        f"  optimizers ({len(r['optimizers'])}):",
        *(f"    {w['graph6']}  canon={w['canon']}" for w in r["optimizers"]),
        f"  predicted graph: {r['predicted_graph6']}",
        f"  graph match: {_yn(r['graph_match'])}",
        f"  predicted value: {r['predicted_value_closed_form']}",
        f"  value match: {_yn(r['value_match'])}",
    ]
    if r["direction"] == "max":
        lines.append(f"  unique optimizer: {_yn(r['uniqueness'])}")
        if not r["polynomial_match"]:
            lines.append(
                f"  WARNING: published polynomial gives "
                f"{r['predicted_value_polynomial']}, exhaustive optimum is "
                f"{r['optimum']} (reported only, never asserted)"
            )
        else:
            lines.append(f"  polynomial value: {r['predicted_value_polynomial']} (matches)")
    return "\n".join(lines)


def cmd_verify(ns: argparse.Namespace, out: TextIO) -> int:
    report = verify(ns.p, ns.q, "min" if ns.min else "max")
    rec = report.as_record()
    if ns.fmt == "csv":
        rec["optimizers"] = ";".join(w["graph6"] for w in rec["optimizers"])
    _write(out, ns.fmt, [rec], _verify_text)
    return 0 if report.ok else 1


def cmd_enumerate(ns: argparse.Namespace, out: TextIO) -> int:
    spec = EnumSpec(ns.p, ns.q)
    records = [
        {"graph6": graph6_encode(g), "n": spec.n, "wiener": w}
        for g, w in enumerate_unicyclic_bipartite(spec)
    ]
    _write(out, ns.fmt, records, lambda r: f"{r['graph6']} n={r['n']} wiener={r['wiener']}")
    return 0


def _table_text(r: dict) -> str:
    line = (
        f"p={r['p']} q={r['q']} classes={r['classes']} min={r['min_wiener']} max={r['max_wiener']}"
        f" value_match={_yn(r['max_value_match'])} graph_match={_yn(r['max_graph_match'])}"
        f" unique={_yn(r['max_unique'])} min_graph_match={_yn(r['min_graph_match'])}"
    )
    if not r["polynomial_match"]:
        line += f" WARNING:polynomial={r['polynomial']}"
    return line


def cmd_table(ns: argparse.Namespace, out: TextIO) -> int:
    rows = extremal_table(ns.p_max, ns.n_max)
    _write(out, ns.fmt, [r.as_record() for r in rows], _table_text)
    return 0 if all(r.ok for r in rows) else 1


def _harness_text(r: dict) -> str:
    return (
        f"harness seed={r['seed']} trials={r['trials']}\n"
        f"  coalescence identity checked: {r['identity_checked']}\n"
        f"  transplant monotonicity checked: {r['monotonicity_checked']}"
        f" (skipped {r['monotonicity_skipped']} equal-transmission pairs)\n"
        f"  {len(r['counterexamples'])} counterexamples"
    )


def cmd_harness(ns: argparse.Namespace, out: TextIO) -> int:
    report = lemma_harness(ns.seed, ns.trials)
    _write(out, ns.fmt, [report.as_record()], _harness_text)
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
    parser, commands = _build_parser()
    ns = parser.parse_args(argv)
    _check(commands[ns.command], ns)
    try:
        # --output is opened before any work, so an unwritable path fails at once
        with open(ns.output, "w") if ns.output else nullcontext(sys.stdout) as out:
            return _HANDLERS[ns.command](ns, out)
    except OSError as exc:  # the input file or --output
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


def entry() -> None:
    raise SystemExit(main())
