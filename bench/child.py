"""One workload in a fresh interpreter; prints one JSON line of raw results.

``run.py`` starts this script once per measuring run and a few more
times with ``--setup-only`` to sample set-up time, so that import time,
peak memory and CPU time belong to the workload alone. The package is
imported from ``src`` next to the ``bench`` directory this file is in.

Usage::

    python3 bench/child.py --workload NAME --seed N --seconds S
        --trace 0|1 --scale full|smoke --workdir DIR [--setup-only]
"""

import os
import sys
from time import perf_counter

from speed import SpeedProbe

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _iteration(cli_main, workload, probe, tracer=None) -> dict:
    """Run every invocation once, timed raw and at nominal host speed."""
    import contextlib
    import io

    outputs = []
    mark = probe.mark()
    cpu0 = _cpu_seconds()
    t0 = perf_counter()
    for argv in workload.argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli_main(argv)
                else:
                    tracer.op += 1
                    code = tracer.call("cli.main", cli_main, argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        outputs.append((code, out.getvalue()))
    wall = perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    return dict(probe.nominal(wall, cpu, mark), wall=wall, cpu=cpu, outputs=outputs)


def _timed(cli_main, workload, seconds: float, probe, tracer=None) -> list[dict]:
    """Iterate for ``seconds`` (at least once); returns per-iteration results."""
    results = []
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        results.append(_iteration(cli_main, workload, probe, tracer))
    return results


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        return _run(probe)
    finally:
        # Also on an error: a timer left running would end the process
        # with SIGALRM once the interpreter drops the handler.
        probe.stop()


def _run(probe: SpeedProbe) -> int:
    # Set-up is timed first, before the benchmark imports anything the
    # package might need too (argparse, json, csv, random, ...), so that
    # the package pays for every module it loads.
    mark = probe.mark()
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import wiener_unicyclic
    import wiener_unicyclic.cli

    import_s = perf_counter() - t0
    probe_at_import = probe.wall
    if not os.path.abspath(wiener_unicyclic.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"wiener_unicyclic imported from {wiener_unicyclic.__file__}, not {SRC}")

    import argparse
    import json
    import platform
    import resource
    import statistics

    import spans
    import workloads

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # nominal() takes off all probe time since ``mark``; the probe time of
    # the untimed gap above is not in setup_raw, so it is added back.
    probe_gap = probe.wall - probe_at_import
    t0 = perf_counter()
    workload = workloads.make(args.workload, args.seed, args.scale, args.workdir)
    setup_raw = import_s + perf_counter() - t0
    setup = {
        "setup_s": probe.nominal(setup_raw + probe_gap, 0.0, mark)["nominal_wall"],
        "raw_setup_s": setup_raw,
        "raw_import_s": import_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    cli_main = wiener_unicyclic.cli.main
    result: dict = dict(setup, ops=workload.ops)
    if args.trace:
        untraced = _timed(cli_main, workload, args.seconds / 2, probe)
        tracer = spans.Tracer()
        tracer.install(wiener_unicyclic)
        try:
            traced = _timed(cli_main, workload, args.seconds / 2, probe, tracer)
        finally:
            tracer.uninstall()
        runs = untraced + traced
        result["traced_iterations"] = len(traced)
        result["traced_nominal_wall_s"] = statistics.median(r["nominal_wall"] for r in traced)
        result["untraced_nominal_wall_s"] = statistics.median(r["nominal_wall"] for r in untraced)
        result["traced_total_wall_s"] = sum(r["wall"] for r in traced)
        result["stdout_bytes"] = sum(len(out.encode()) for _, out in traced[0]["outputs"])
        result["summary"] = spans.summarize(tracer.spans)
        spans_path = os.path.join(
            args.workdir, f"spans-{args.workload}-{args.seed}-{args.scale}.jsonl.gz"
        )
        tracer.dump(spans_path)
        result["spans_file"] = spans_path
    else:
        runs = _timed(cli_main, workload, args.seconds, probe)

    # Correctness is checked after the clock stops, for every iteration.
    result["attempted"] = workload.ops * len(runs)
    result["failed"] = sum(workload.check(r["outputs"]) for r in runs)
    for key in ("wall", "cpu", "nominal_wall", "nominal_cpu", "probe_mean"):
        result[f"{key}_s"] = [r[key] for r in runs]
    result["probe_samples"] = [r["probe_samples"] for r in runs]
    # Peak RSS of each process on its own: worker processes share the
    # parent's pages copy-on-write, so a sum would count those twice.
    # RUSAGE_CHILDREN reports the largest worker that has been waited for.
    # ru_maxrss is in KiB.
    result["parent_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["worker_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    import networkx

    result["python"] = platform.python_version()
    result["networkx"] = networkx.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
