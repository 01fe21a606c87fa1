"""Benchmark entry point: one workload, one seed, one measuring run.

Usage (from the repository root)::

    python3 bench/run.py --workload verify-n13 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics.
Each metric is printed as ``name: value unit`` and the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Raw numbers, the environment and (traced) the span
file go to ``.bench_out/``. See ``bench/README.md`` for the workloads
and what each metric should move.

The workload runs in a fresh interpreter (``bench/child.py``), and set-up
time is sampled in a few more, so every number belongs to that workload
alone. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402  (stdlib-only; does not import the package)
from spans import LAYERS  # noqa: E402

SETUP_PROBES = 4  # extra fresh interpreters that only import and build inputs
DEADLINE_S = 170  # the whole run, set-up probes included

# Per-layer metrics from the traced run: (metric, span name, field, unit).
SPAN_METRICS = [
    ("canon.canonical_form.calls", "canon.canonical_form", "calls", "count"),
    ("canon.canonical_form.self_s", "canon.canonical_form", "self_s", "s"),
    ("canon.graph_from_canonical.self_s", "canon.graph_from_canonical", "self_s", "s"),
    ("enumeration.enumerate.self_s", "enumeration.enumerate", "self_s", "s"),
    ("graphs.wiener_index.calls", "graphs.wiener_index", "calls", "count"),
    ("graphs.wiener_index.self_s", "graphs.wiener_index", "self_s", "s"),
    ("graphs.transmissions.self_s", "graphs.transmissions", "self_s", "s"),
    ("graphs.transmission.self_s", "graphs.transmission", "self_s", "s"),
    ("graphs.bipartition.self_s", "graphs.bipartition", "self_s", "s"),
    ("graph6.decode.calls", "graph6.decode", "calls", "count"),
    ("graph6.decode.self_s", "graph6.decode", "self_s", "s"),
    ("graph6.decode.bytes", "graph6.decode", "bytes", "B"),
    ("graph6.encode.self_s", "graph6.encode", "self_s", "s"),
    ("families.coalesce.calls", "families.coalesce", "calls", "count"),
    ("families.coalesce.self_s", "families.coalesce", "self_s", "s"),
    ("verification.verify_both.self_s", "verification.verify_both", "self_s", "s"),
    (
        "verification.random_connected_graph.self_s",
        "verification.random_connected_graph",
        "self_s",
        "s",
    ),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _child(args, workdir: str, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Own session, so that a timeout also ends the workload's worker processes.
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return f"p{pct} {ordered[rank - 1]:.4f} s"
    return f"max {ordered[-1]:.4f} s (too few samples for a percentile above the median)"


def _end_to_end(raw: dict, setup: list[float]) -> dict:
    wall = statistics.median(raw["nominal_wall_s"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (raw["ops"] / wall, "1/s"),
        "cpu_s": (statistics.median(raw["nominal_cpu_s"]), "s"),
        "peak_rss_mb": (max(raw["parent_peak_rss_mb"], raw["worker_peak_rss_mb"]), "MB"),
    }


def _per_layer(raw: dict) -> dict:
    """Per traced iteration: span totals divided by the traced iterations."""
    k = raw["traced_iterations"]
    summary = raw["summary"]
    by_name = summary["by_name"]
    out = {}
    for metric, span, field, unit in SPAN_METRICS:
        out[metric] = (by_name.get(span, {}).get(field, 0) / k, unit)
    candidates, classes = summary["candidates"] / k, summary["classes"] / k
    out["enumeration.candidates"] = (candidates, "count")
    out["enumeration.classes"] = (classes, "count")
    out["enumeration.dedup_ratio"] = (summary["dedup_ratio"], "ratio")
    out["cli.stdout_bytes"] = (raw["stdout_bytes"], "B")
    layer_sum = 0.0
    for layer in LAYERS:
        own = summary["by_layer"].get(layer, 0.0) / k
        layer_sum += own
        out[f"layer.{layer}.self_s"] = (own, "s")
    traced = raw["traced_total_wall_s"] / k
    out["trace.wall_s"] = (traced, "s")
    out["trace.unattributed_s"] = (traced - layer_sum, "s")
    out["trace.overhead_s"] = (raw["traced_nominal_wall_s"] - raw["untraced_nominal_wall_s"], "s")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                    help="input size; 'smoke' is the tiny size the smoke test uses")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    workdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = [_child(args, workdir, deadline, True) for _ in range(SETUP_PROBES)]
        raw = _child(args, workdir, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    setup = [p["setup_s"] for p in probes + [raw]]
    raw_setup = [p["raw_setup_s"] for p in probes + [raw]]

    metrics = _per_layer(raw) if args.trace else _end_to_end(raw, setup)
    env = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": raw["python"],
        "networkx": raw["networkx"],
        "git_sha": _git_sha(),
    }
    attempted, failed = raw["attempted"], raw["failed"]
    walls = raw["wall_s"]
    print(f"workload {args.workload} seed={args.seed} scale={args.scale} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"iterations: {len(walls)} in {sum(walls):.2f} s, {raw['ops']} operations each")
    means = raw["probe_mean_s"]
    print(
        f"at nominal host speed: median {statistics.median(raw['nominal_wall_s']):.4f} s,"
        f" {_tail(raw['nominal_wall_s'])}; probe mean {min(means) * 1e6:.1f}"
        f" to {max(means) * 1e6:.1f} us per iteration, {min(raw['probe_samples'])}"
        f" to {max(raw['probe_samples'])} samples each"
    )
    print(
        f"as measured: median {statistics.median(walls):.4f} s, {_tail(walls)};"
        f" set-up median {statistics.median(raw_setup):.4f} s"
    )
    print(
        f"peak RSS: workload process {raw['parent_peak_rss_mb']:.1f} MB,"
        f" largest worker process {raw['worker_peak_rss_mb']:.1f} MB"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(f"error_rate: {failed / attempted} ({failed} of {attempted} operations failed)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, args=vars(args), env=env, raw=raw, setup_samples=setup,
                  raw_setup_samples=raw_setup)
    path = os.path.join(workdir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
