#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload ca-scan --seed 1 --seconds 20 --trace 0

The program under test is the ``shiftgeo`` package in ``src/`` of the
checkout that holds this directory; nothing installed is used. With
``--trace 0`` the workload runs untraced for ``--seconds`` (whole passes,
at least one) and the end-to-end metrics are reported. With ``--trace 1``
untraced passes fill the first half of the time and traced passes the
rest, and the per-layer metrics are reported. Every output of every pass is compared with its pin in
``pins.json``; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_PROBES = {"full": 6, "smoke": 1}   # fresh processes timing set-up
CLI_PROBES = {"full": 5, "smoke": 1}     # runs per CLI start-up probe

# The reference loop gauges the host's speed during a run. REF_S is its
# median time on the host the bounds were set on (Intel Xeon, 2 vCPUs,
# 2.0 GHz, Python 3.11), running alone.
REF_ITERATIONS = 200_000
REF_S = 0.0149
REF_EVERY_S = 0.2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: "<span>.<calls|s|self_s>" are read from the spans, the
# rest are counts or probes.
PER_LAYER = {
    "metrics.cyclic_mismatch_density.calls": "count",
    "metrics.cyclic_mismatch_density.s": "s",
    "metrics.cyclic_mismatch_density.cells": "count",
    "metrics.d_besicovitch.s": "s",
    "metrics.d_weyl.s": "s",
    "metrics.arm_cells": "count",
    "metrics.distance_to_shift_detail.calls": "count",
    "metrics.distance_to_shift_detail.s": "s",
    "metrics.distance_to_shift_detail.self_s": "s",
    "metrics.product_nodes": "count",
    "graph.karp_min_mean.calls": "count",
    "graph.karp_min_mean.s": "s",
    "graph.karp_min_mean.nodes": "count",
    "graph.karp_min_mean.edges": "count",
    "graph.strongly_connected_components.s": "s",
    "graph.strongly_connected_components.nodes": "count",
    "graph.condensation_reach.s": "s",
    "shifts.periodic_orbits.calls": "count",
    "shifts.periodic_orbits.s": "s",
    "shifts.periodic_orbits.self_s": "s",
    "shifts.periodic_orbits.orbits": "count",
    "shifts.contains_config.calls": "count",
    "shifts.contains_config.s": "s",
    "configs.is_primitive.calls": "count",
    "configs.least_rotation.calls": "count",
    "configs.least_rotation.s": "s",
    "shifts.orbit_yield": "ratio",
    "automata.check_on_subshift.calls": "count",
    "automata.check_on_subshift.s": "s",
    "automata.check_on_subshift.self_s": "s",
    "automata.pairs": "count",
    "automata.preserves_shift.calls": "count",
    "automata.preserves_shift.s": "s",
    "shifts.shannon_cover.calls": "count",
    "shifts.shannon_cover.s": "s",
    "shifts.language_subset.calls": "count",
    "shifts.language_subset.s": "s",
    "homotopy.extract_complex.s": "s",
    "homotopy.complex_coordinates.s": "s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "import.numpy_ms": "ms",
    "import.mpmath_ms": "ms",
    "cli.handler_ms": "ms",
    "trace.overhead_s": "s",
    "op.latency_p50_ms": "ms",
    "op.latency_p75_ms": "ms",
    "op.latency_samples": "count",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.latencies: list[float] = []   # seconds per operation
        self.results: list = []            # (op, result or exception)
        self.summary: dict | None = None   # tracer summary (traced only)


def run_pass(wl, traced: bool, workdir: Path, ref_times: list) -> Pass:
    """Run every operation once, timing each; outputs are kept unchecked.
    Between the operations of an untraced pass the reference loop is timed
    into ref_times, at most once every REF_EVERY_S."""
    out = Pass(traced)
    tracer = tracing.Tracer() if traced else None
    if traced and wl.name == "cli":
        wl.cli_trace_dir = workdir / f"trace{time.monotonic_ns()}"
        wl.cli_trace_dir.mkdir()
    clock = time.perf_counter
    gc.collect()
    last_ref = -REF_EVERY_S
    with tracer or contextlib.nullcontext():
        t_pass = clock()
        for op in wl.ops:
            if not traced and clock() - last_ref >= REF_EVERY_S:
                ref_times.append(reference_time())
                last_ref = clock()
            t0 = clock()
            try:
                res = tracer.call("bench.op", op.run) if traced else op.run()
            except Exception as e:  # an operation that raises has failed
                res = e
            out.latencies.append(clock() - t0)
            out.results.append((op, res))
        out.wall = clock() - t_pass
    if traced:
        summaries = [tracer.summary()]
        if wl.cli_trace_dir is not None:
            summaries += [json.loads(f.read_text())
                          for f in sorted(wl.cli_trace_dir.iterdir())]
            shutil.rmtree(wl.cli_trace_dir)
            wl.cli_trace_dir = None
        out.summary = tracing.merge(summaries)
    return out


def pin_text(res) -> str:
    """The text a result is pinned by. A raised exception, or an output with
    no canonical form, gets a text that no pin has."""
    if isinstance(res, Exception):
        return f"raised {type(res).__name__}: {res}"
    try:
        return workloads.pin_of(res)
    except TypeError as e:
        return f"no canonical form: {e}"


def check_pass(p: Pass, pins: dict) -> int:
    """Number of operations whose output is not bit-identical to its pin."""
    failed = 0
    for op, res in p.results:
        got = pin_text(res)
        if got != pins.get(op.key):
            stderr = getattr(res, "stderr", "").strip()
            log(f"FAIL {op.key}: {got[:200]} {stderr}"
                if op.key in pins else f"FAIL {op.key}: no pin")
            failed += 1
    return failed


def oracle_failures(p: Pass) -> int:
    failed = 0
    for op, res in p.results:
        if op.check is None or isinstance(res, Exception):
            continue
        try:
            errs = op.check(res)
        except Exception as e:  # a malformed output fails its oracle
            errs = [f"oracle raised {e!r}"]
        for e in errs:
            log(f"ORACLE {op.key}: {e}")
        failed += bool(errs)
    return failed


def digest(p: Pass) -> str:
    h = hashlib.sha256()
    for op, res in p.results:
        h.update(f"{op.key}\t{pin_text(res)}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# probes in fresh processes


def probe_setup(args, n: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=str(ROOT), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def _wall_ms(cmd: list) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=workloads.cli_env(), cwd=str(ROOT), timeout=120)
    ms = (time.perf_counter() - t0) * 1000
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} failed: {proc.stderr.strip()}")
    return ms, proc.stderr


def _import_cumulative_ms(importtime: str, module: str) -> float:
    """Cumulative import time of a top-level module from -X importtime."""
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1000
    return 0.0


def probe_cli(n: int) -> dict:
    py = sys.executable
    interp = statistics.median(_wall_ms([py, "-c", "pass"])[0]
                               for _ in range(n))
    imp = statistics.median(_wall_ms([py, "-c", "import shiftgeo.cli"])[0]
                            for _ in range(n))
    stderrs = [_wall_ms([py, "-X", "importtime", "-c",
                         "import shiftgeo.cli"])[1] for _ in range(n)]
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imp - interp,
        "import.numpy_ms": statistics.median(
            _import_cumulative_ms(s, "numpy") for s in stderrs),
        "import.mpmath_ms": statistics.median(
            _import_cumulative_ms(s, "mpmath") for s in stderrs),
    }


# ---------------------------------------------------------------------------
# metrics


def percentile75(values: list) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] \
        if len(values) > 1 else values[0]


def reference_time() -> float:
    """Time of one fixed pure-Python loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def median_pass(passes: list) -> float:
    """One pass at median speed: the sum over operations of each
    operation's median time across the passes."""
    return sum(statistics.median(times)
               for times in zip(*(p.latencies for p in passes)))


def end_to_end(wl, passes: list, setup_times: list, ref_times: list) -> dict:
    """wall_s is the median pass at the reference host speed. The host runs
    for seconds to minutes at a time up to 1.7x slower than its best; the
    reference loop, timed between the operations, slows with it."""
    if wl.name == "cli":
        rss_kb = max((res.maxrss_kb for p in passes for _op, res in p.results
                      if not isinstance(res, Exception)), default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": median_pass(passes) * REF_S / statistics.median(ref_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024,
    }


def layer_values(summary: dict) -> dict:
    layers, counts = summary["layers"], summary["counts"]
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            out[name] = layers.get(span, {}).get(field, 0)
        elif name in counts:
            out[name] = counts[name]
    contains = counts.get("shifts.orbit_contains_calls", 0)
    out["shifts.orbit_yield"] = (
        counts.get("shifts.periodic_orbits.orbits", 0) / contains
        if contains else 0.0)
    return out


def per_layer(wl, untraced: list, traced: list, cli_probe: dict) -> dict:
    rows = [layer_values(p.summary) for p in traced]
    out = {name: statistics.median(r.get(name, 0) for r in rows)
           for name in PER_LAYER}
    out.update(cli_probe)
    handler = [res.timing_ms for p in untraced for _op, res in p.results
               if getattr(res, "timing_ms", None) is not None]
    out["cli.handler_ms"] = statistics.median(handler) if handler else 0.0
    out["trace.overhead_s"] = median_pass(traced) - median_pass(untraced)
    lat = [t for p in untraced for t in p.latencies]
    out["op.latency_p50_ms"] = statistics.median(lat) * 1000
    out["op.latency_p75_ms"] = percentile75(lat) * 1000
    out["op.latency_samples"] = len(lat)
    return out


def self_time_table(traced: list) -> str:
    """Self-time shares of the traced layers, largest first (for stderr)."""
    total = {}
    for p in traced:
        for name, row in p.summary["layers"].items():
            total[name] = total.get(name, 0.0) + row["self_s"]
    whole = sum(total.values()) or 1.0
    lines = [f"  {v / whole:6.1%}  {v / len(traced):9.4f} s  {k}"
             for k, v in sorted(total.items(), key=lambda kv: -kv[1])]
    return "self time per traced pass:\n" + "\n".join(lines)


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="'smoke' runs the reduced inputs of test_smoke.py")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure(args, workdir: Path) -> int:
    t0 = time.perf_counter()
    wl = workloads.setup(args.workload, args.scale, args.seed, workdir)
    setup_times = [time.perf_counter() - t0]
    if args.setup_probe:
        print(f"{setup_times[0]:.9f}")
        return 0
    # set-up is timed again in fresh processes between the passes, so a
    # short slow stretch of the machine cannot hit every sample
    probes_left = 0 if args.trace else SETUP_PROBES[args.scale]
    pins = workloads.load_pins()

    # Untraced passes fill the first half of a traced run (all of an
    # untraced one), traced passes the rest.
    first = None       # the first untraced pass keeps its outputs
    failed = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    switch = start + (args.seconds / 2 if args.trace else args.seconds)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    ref_times: list[float] = []
    while True:
        trace_now = args.trace == 1 and len(untraced) >= wl.min_passes \
            and time.perf_counter() >= switch
        p = run_pass(wl, trace_now, workdir, ref_times)
        failed += check_pass(p, pins)
        if first is None and not p.traced:
            first = p
        elif wl.name != "cli":  # so that memory does not grow with passes
            p.results = []
        (traced if p.traced else untraced).append(p)
        n = min(2, probes_left)
        setup_times += probe_setup(args, n)
        probes_left -= n
        enough = (len(traced) >= 1 if args.trace
                  else len(untraced) >= wl.min_passes)
        if enough and time.perf_counter() >= deadline:
            break
    setup_times += probe_setup(args, probes_left)

    attempted = sum(len(p.latencies) for p in untraced + traced)
    if args.seed != DEFAULT_SEED:
        failed += oracle_failures(first)
    print(f"outputs {args.workload} seed={args.seed} scale={args.scale} "
          f"sha256={digest(first)}")

    if args.trace:
        log(self_time_table(traced))
        values = per_layer(wl, untraced, traced,
                           probe_cli(CLI_PROBES[args.scale]))
        units = PER_LAYER
    else:
        values = end_to_end(wl, untraced, setup_times, ref_times)
        units = END_TO_END
        log(f"{args.workload}: {len(untraced)} passes, "
            f"fail_share {failed / attempted:.3g}; median pass "
            f"{median_pass(untraced):.4f} s, reference loop median "
            f"{statistics.median(ref_times):.5f} s of {len(ref_times)}; "
            "pass walls "
            + " ".join(f"{p.wall:.3f}" for p in untraced)
            + "; set-ups " + " ".join(f"{t:.3f}" for t in setup_times))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    if not (SRC / "shiftgeo" / "__init__.py").is_file():
        log(f"no shiftgeo sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone


if __name__ == "__main__":
    sys.exit(main())
