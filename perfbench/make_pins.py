#!/usr/bin/env python3
"""Write pins.json: the exact output of every benchmark operation, for every
pooled input of every workload, at both scales.

    python3 perfbench/make_pins.py

Each output is cross-checked once against the brute-force oracles in
oracles.py before it is pinned; the script stops without writing if any
operation raises, exits non-zero or disagrees with its oracle. Pins are
regenerated only by a change that means to change outputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

# The largest pool: ca-scan draws from 6 permutations x 2 cells.
MAX_POOL = max(workloads.POOL, 2 * len(workloads.PERMUTATIONS))


def pooled_ops(name: str, scale: str, files: Path) -> dict:
    """Every distinct operation over all pool candidates, by pin key."""
    ops = {}
    for i in range(MAX_POOL):
        wl = workloads.build(name, scale, lambda slot, n, i=i: i % n)
        wl.files = files
        for op in wl.ops:
            ops.setdefault(op.key, op)
    return ops


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "shiftgeo").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def main() -> int:
    files = ROOT / ".perfbench_work" / "pin-files"
    workloads.write_cli_files(files)
    pins, problems = {}, []
    try:
        for scale in workloads.SCALES:
            for name in workloads.WORKLOADS:
                t0 = time.perf_counter()
                ops = pooled_ops(name, scale, files)
                for key, op in ops.items():
                    try:
                        res = op.run()
                    except Exception as e:
                        problems.append(f"{key}: raised {e!r}")
                        continue
                    if isinstance(res, workloads.CliOutcome) and \
                            res.exit_code != 0:
                        problems.append(f"{key}: exit {res.exit_code}")
                        continue
                    if op.check is not None:
                        problems += [f"{key}: {e}" for e in op.check(res)]
                    pins[key] = workloads.pin_of(res)
                print(f"{scale:5} {name:8} {len(ops):4} operations "
                      f"{time.perf_counter() - t0:7.1f} s", flush=True)
    finally:
        shutil.rmtree(files.parent, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(BENCH_DIR / "pins.json", "w") as fh:
        json.dump({"source_sha256": source_digest(), "pins": pins}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins)} pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
