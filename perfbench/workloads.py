"""The four benchmark workloads: their inputs, their operations and the
canonical form of every operation's output.

A workload is a list of operations. Each operation has a pin key, which
names the operation and spells out its inputs, and a thunk that calls the
library (or the ``shiftgeo`` CLI) through module attributes, so that the
outside-in tracer in ``tracing.py`` sees every call.

Inputs that vary with ``--seed`` are drawn from fixed pools of candidates.
Every candidate of every pool is pinned in ``pins.json`` (``make_pins.py``
writes it), so the output of every operation is checked on every seed.
Lengths, periods and bounds never depend on the seed, so neither does the
cost of a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("ca-scan", "orbits", "arms", "cli")
SCALES = ("full", "smoke")
POOL = 8  # candidates per seed-drawn slot

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Sizes per scale. "full" is what the benchmark measures; "smoke" is the
# reduced set that test_smoke.py runs.
SIZES = {
    "full": {
        "contract_P": 10, "iso_P": 9, "perm_P": 6, "survey_P": 8,
        "orbits_full2": 16, "orbits_full3": 9,
        "near_golden": (16, 13), "near_even": (14, 12),
        "uap_golden": 10, "precondition": (6, 12),
        "dist_periods": (96, 160, 240), "ep_periods": (61, 127),
        # lcm of each pair rises in ~5% steps from 60k to 81k cells, so the
        # latency percentiles never sit in a gap between operation costs
        "arm_periods": ((150, 401), (157, 401), (163, 405), (167, 413),
                        (173, 417), (179, 419), (181, 431), (187, 433)),
        "cli_classify_P": 8, "cli_passes": 4,
    },
    "smoke": {
        "contract_P": 5, "iso_P": 5, "perm_P": 3, "survey_P": 4,
        "orbits_full2": 8, "orbits_full3": 4,
        "near_golden": (8, 5), "near_even": (7, 5),
        "uap_golden": 10, "precondition": (3, 6),
        "dist_periods": (12, 20, 30), "ep_periods": (7, 11),
        "arm_periods": ((15, 44), (21, 20)),
        "cli_classify_P": 5, "cli_passes": 1,
    },
}

ISOMETRY_ECAS = (204, 170, 240, 51, 85, 15)
PERMUTATIONS = ("012", "021", "102", "120", "201", "210")


# ---------------------------------------------------------------------------
# operations and canonical outputs


@dataclass
class Op:
    key: str                       # pin key: operation and inputs
    run: Callable[[], object]
    # brute-force cross-check of a result (oracles.py), or None
    check: Callable[[object], list] | None = None


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    files: Path | None = None      # CLI input files (cli workload only)
    cli_trace_dir: Path | None = None  # set by the runner for traced passes
    min_passes: int = 1


@dataclass
class CliOutcome:
    """One finished ``python -m shiftgeo.cli`` child."""
    exit_code: int
    result: object                 # the report's "result" section or None
    timing_ms: float | None        # the report's own timing_ms
    maxrss_kb: int
    stderr: str


def canon(v):
    """JSON-ready canonical form of a library result.

    Fractions become "num/den", configurations their literal, presentations
    and complexes their to_dict(). Sequences keep their order; sets and
    dict items are sorted, since their iteration order is not an output.
    """
    from shiftgeo.configs import Alphabet, Configuration, format_config
    from shiftgeo.homotopy import AbstractComplex
    from shiftgeo.shifts import ShiftPresentation

    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, Configuration):
        return format_config(v)
    if isinstance(v, (ShiftPresentation, AbstractComplex)):
        return v.to_dict()
    if isinstance(v, Alphabet):
        return "".join(v.symbols)
    if isinstance(v, CliOutcome):
        return {"exit": v.exit_code, "result": v.result}
    if dataclasses.is_dataclass(v):
        return {f.name: canon(getattr(v, f.name))
                for f in dataclasses.fields(v)}
    if isinstance(v, dict):
        items = [[canon(k), canon(x)] for k, x in v.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))
    if isinstance(v, (set, frozenset)):
        return sorted((canon(x) for x in v),
                      key=lambda x: json.dumps(x, sort_keys=True))
    if isinstance(v, (list, tuple)):
        return [canon(x) for x in v]
    raise TypeError(f"no canonical form for {type(v).__name__}")


PIN_INLINE_LIMIT = 4000


def pin_of(result) -> str:
    """The pinned text of a result: its canonical JSON, or a digest of it
    when it is long (orbit lists)."""
    text = json.dumps(canon(result), sort_keys=True, separators=(",", ":"))
    if len(text) <= PIN_INLINE_LIMIT:
        return text
    return f"sha256:{hashlib.sha256(text.encode()).hexdigest()}:{len(text)}"


def load_pins() -> dict:
    with open(BENCH_DIR / "pins.json") as fh:
        return json.load(fh)["pins"]


# ---------------------------------------------------------------------------
# seeded pools


def _rng(slot: str, i: int) -> random.Random:
    return random.Random(f"{slot}#{i}")


def _primitive_word(rng: random.Random, symbols: str, n: int) -> str:
    from shiftgeo.configs import is_primitive
    while True:
        w = "".join(rng.choice(symbols) for _ in range(n))
        if is_primitive(w):
            return w


def build(name: str, scale: str, picker) -> Workload:
    """The workload's operations. ``picker(slot, n)`` chooses which of the
    n pooled candidates fills a seed-drawn slot."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    wl = _BUILDERS[name](scale, SIZES[scale], picker)
    # Interleave cheap and expensive operations, so that the samples of each
    # kind spread over the whole pass instead of one short stretch of it.
    # The order depends only on the workload and its number of operations.
    random.Random(f"{name}/order").shuffle(wl.ops)
    return wl


def seed_picker(seed: int):
    rng = random.Random(seed)
    return lambda slot, n: rng.randrange(n)


def _ca_scan(scale, sz, picker) -> Workload:
    from shiftgeo import automata, configs, shifts

    wl = Workload("ca-scan")
    ops = wl.ops
    binary = configs.BINARY
    a3 = configs.Alphabet("012")
    no111 = shifts.compile_sft(shifts.SftSpec(binary, ("111",)))
    full2 = shifts.full_shift(binary)
    full3 = shifts.full_shift(a3)
    golden = shifts.golden_mean()

    P = sz["contract_P"]
    contract = automata.CellularAutomaton(
        binary, -1, 0, {"00": "0", "01": "0", "10": "0", "11": "1"})
    ops.append(Op(f"ca-scan/check/and2/no111/P{P}",
                  lambda: automata.check_on_subshift(contract, no111, P),
                  lambda res: oracles.check_subshift(contract, res)))

    rule = ISOMETRY_ECAS[picker("ca-scan/isometry", len(ISOMETRY_ECAS))]
    iso = automata.elementary_ca(rule)
    Pi = sz["iso_P"]
    ops.append(Op(f"ca-scan/check/eca{rule}/full2/P{Pi}",
                  lambda: automata.check_on_subshift(iso, full2, Pi),
                  lambda res: oracles.check_subshift(iso, res)))

    k = picker("ca-scan/permutation", 2 * len(PERMUTATIONS))
    perm, cell = PERMUTATIONS[k // 2], k % 2 - 1   # cell offset -1 or 0
    table = {a + b: perm[int((a, b)[cell + 1])] for a in "012" for b in "012"}
    g = automata.CellularAutomaton(a3, -1, 0, table)
    Pp = sz["perm_P"]
    ops.append(Op(f"ca-scan/check/perm{perm}@{cell}/full3/P{Pp}",
                  lambda: automata.check_on_subshift(g, full3, Pp),
                  lambda res: oracles.check_subshift(g, res)))

    # radius-1 survey: which ECAs map the golden mean shift into itself,
    # then the bounded check for each that does
    Ps = sz["survey_P"]
    ecas = [automata.elementary_ca(r) for r in range(256)]
    for r in range(256):
        ops.append(Op(f"ca-scan/preserves/eca{r}/golden",
                      lambda f=ecas[r]: automata.preserves_shift(f, golden)))
    for r in _GOLDEN_PRESERVERS:
        ops.append(Op(f"ca-scan/check/eca{r}/golden/P{Ps}",
                      lambda f=ecas[r]: automata.check_on_subshift(
                          f, golden, Ps),
                      lambda res, f=ecas[r]: oracles.check_subshift(f, res)))
    for r in range(256):
        ops.append(Op(f"ca-scan/classify/eca{r}",
                      lambda f=ecas[r]: automata.classify_full_shift(f),
                      lambda res, f=ecas[r]: oracles.check_classification(
                          f, res)))
    return wl


# The 56 ECAs that preserve the golden mean shift. The survey checks these;
# their preserves_shift verdicts are pinned like every other output, so a
# change to this set fails the run.
_GOLDEN_PRESERVERS = (
    0, 2, 4, 8, 10, 12, 16, 24, 32, 34, 40, 42, 48, 56, 64, 66, 68, 72, 74,
    76, 80, 88, 96, 98, 104, 106, 112, 120, 128, 130, 132, 136, 138, 140,
    144, 152, 160, 162, 168, 170, 176, 184, 192, 194, 196, 200, 202, 204,
    208, 216, 224, 226, 232, 234, 240, 248)


def block_shift():
    """Binary shift whose cells of one parity are 0 (two-state cover)."""
    from shiftgeo import configs, shifts
    return shifts.ShiftPresentation(
        configs.BINARY, ["s0", "s1"],
        [("s0", "s1", "0"), ("s1", "s0", "0"), ("s1", "s0", "1")])


def _orbits(scale, sz, picker) -> Workload:
    from shiftgeo import automata, configs, metrics, shifts

    wl = Workload("orbits")
    ops = wl.ops
    binary = configs.BINARY
    full2 = shifts.full_shift(binary)
    full3 = shifts.full_shift(configs.Alphabet("012"))
    golden = shifts.golden_mean()
    even = shifts.even_shift()
    block = block_shift()

    p2, p3 = sz["orbits_full2"], sz["orbits_full3"]
    ops.append(Op(f"orbits/periodic_orbits/full2/P{p2}",
                  lambda: shifts.periodic_orbits(full2, p2),
                  lambda res: oracles.check_orbit_list("01", p2, res)))
    ops.append(Op(f"orbits/periodic_orbits/full3/P{p3}",
                  lambda: shifts.periodic_orbits(full3, p3),
                  lambda res: oracles.check_orbit_list("012", p3, res)))
    for tag, X, (P, n) in (("golden", golden, sz["near_golden"]),
                           ("even", even, sz["near_even"])):
        i = picker(f"orbits/nearest/{tag}", POOL)
        w = _primitive_word(_rng(f"orbits/nearest/{tag}/{n}", i), "01", n)
        y = configs.periodic_config(w, binary)
        ops.append(Op(f"orbits/nearest/{tag}/P{P}/{w}",
                      lambda X=X, y=y, P=P: metrics.nearest_periodic(X, y, P),
                      lambda res, w=w: oracles.check_minimizers(
                          w, res.distance, res.minimizers)))
    for P in (7, 8):
        ops.append(Op(f"orbits/uap/block/P{P}",
                      lambda P=P: metrics.unique_approximation_search(
                          block, P),
                      lambda res: oracles.check_uap(block, res)))
    Pu = sz["uap_golden"]
    ops.append(Op(f"orbits/uap/golden/P{Pu}",
                  lambda: metrics.unique_approximation_search(golden, Pu),
                  lambda res: oracles.check_uap(golden, res)))
    L, Pc = sz["precondition"]
    for tag, X in (("golden", golden), ("even", even)):
        ops.append(Op(f"orbits/precondition/{tag}/L{L}/P{Pc}",
                      lambda X=X: automata.isometric_ca_precondition(
                          X, "0", L, Pc)))
    return wl


SFT14_FORBIDDEN = ("1111", "0000", "10101")


def _arms(scale, sz, picker) -> Workload:
    from shiftgeo import configs, homotopy, metrics, shifts

    wl = Workload("arms")
    ops = wl.ops
    binary = configs.BINARY
    sft14 = shifts.compile_sft(shifts.SftSpec(binary, SFT14_FORBIDDEN))
    even = shifts.even_shift()

    for n in sz["dist_periods"]:
        i = picker(f"arms/dist/{n}", POOL)
        x = configs.periodic_config(
            _primitive_word(_rng(f"arms/dist/{n}", i), "01", n), binary)
        ops.append(Op(f"arms/dist/sft14/{configs.format_config(x)}",
                      lambda x=x: metrics.distance_to_shift_detail(
                          x, sft14),
                      lambda res, x=x: oracles.check_distance(
                          x, sft14, res)))

    lp, rp = sz["ep_periods"]
    i = picker("arms/eventually-periodic", POOL)
    r = _rng(f"arms/eventually-periodic/{lp}/{rp}", i)
    x = configs.Configuration(
        binary, _primitive_word(r, "01", lp),
        "".join(r.choice("01") for _ in range(5)),
        "".join(r.choice("01") for _ in range(5)),
        _primitive_word(r, "01", rp))
    lit = configs.format_config(x)
    for tag, Y in (("sft14", sft14), ("even", even)):
        ops.append(Op(f"arms/dist/{tag}/{lit}",
                      lambda x=x, Y=Y: metrics.distance_to_shift_detail(x, Y),
                      lambda res, x=x, Y=Y: oracles.check_distance(
                          x, Y, res)))

    i = picker("arms/pairs", POOL)
    r = _rng(f"arms/pairs/{sz['arm_periods']}", i)
    for (p, q) in sz["arm_periods"]:
        def config(lp, rp):
            return configs.Configuration(
                binary, _primitive_word(r, "01", lp),
                "".join(r.choice("01") for _ in range(3)),
                "".join(r.choice("01") for _ in range(3)),
                _primitive_word(r, "01", rp))
        x, y = config(p, q), config(q, p)
        pair = f"{configs.format_config(x)}|{configs.format_config(y)}"
        for fn in ("d_besicovitch", "d_weyl", "d_cantor"):
            ops.append(Op(f"arms/{fn}/{pair}",
                          lambda fn=fn, x=x, y=y:
                          getattr(metrics, fn)(x, y),
                          lambda res, fn=fn, x=x, y=y:
                          oracles.check_pair(fn, x, y, res)))

    a3 = configs.Alphabet("012")
    tri = triangle_shift()
    ops.append(Op("arms/extract_complex/triangle",
                  lambda: homotopy.extract_complex(tri)))
    i = picker("arms/coordinates", POOL)
    r = _rng("arms/coordinates", i)
    pair = ("01", "12", "20")[i % 3]
    x = configs.periodic_config(_primitive_word(r, pair, 12), a3)
    ops.append(Op(f"arms/complex_coordinates/triangle/"
                  f"{configs.format_config(x)}",
                  lambda x=x: homotopy.complex_coordinates(
                      x, homotopy.extract_complex(tri))))
    return wl


def triangle_shift():
    """Three full 2-shifts over {0,1}, {1,2} and {2,0}: the pairwise
    intersections are single points and the complex is a hollow triangle."""
    from shiftgeo import configs, shifts
    return shifts.ShiftPresentation(
        configs.Alphabet("012"), ["a", "b", "c"],
        [("a", "a", "0"), ("a", "a", "1"), ("b", "b", "1"), ("b", "b", "2"),
         ("c", "c", "2"), ("c", "c", "0")])


# ---------------------------------------------------------------------------
# the cli workload


def write_cli_files(dest: Path) -> None:
    """Write the JSON shift, complex and SFT files the CLI commands read."""
    from shiftgeo import homotopy
    dest.mkdir(parents=True, exist_ok=True)
    files = {
        "no111.json": {"alphabet": "01", "forbidden": ["111"]},
        "sft14.json": {"alphabet": "01", "forbidden": list(SFT14_FORBIDDEN)},
        "golden.json": {"alphabet": "01", "forbidden": ["11"]},
        "even.json": {
            "alphabet": "01", "states": ["e", "o"],
            "edges": [{"from": "e", "to": "e", "label": "1"},
                      {"from": "e", "to": "o", "label": "0"},
                      {"from": "o", "to": "e", "label": "0"}]},
        "full2.json": {"alphabet": "01", "forbidden": []},
        "triangle.json": triangle_shift().to_dict(),
        "edge.json": homotopy.AbstractComplex.make(
            ["p", "q"], [["p", "q"]]).to_dict(),
    }
    for fname, data in files.items():
        (dest / fname).write_text(json.dumps(data, indent=1) + "\n")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# A traced CLI child: wrap the layers from outside, run the real main(),
# then write the span aggregates for the parent to add up.
TRACED_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
import shiftgeo.cli
tracer = tracing.Tracer()
with tracer:
    rc = shiftgeo.cli.main(sys.argv[3:])
with open(sys.argv[2], "w") as fh:
    json.dump(tracer.summary(), fh)
sys.exit(rc)
"""


def run_cli(wl: Workload, argv: list) -> CliOutcome:
    """Run one cold CLI child and wait for it; RSS comes from wait4."""
    files = wl.files
    args = [a.replace("@", str(files) + os.sep) for a in argv]
    if wl.cli_trace_dir is None:
        cmd = [sys.executable, "-m", "shiftgeo.cli", "--json", *args]
    else:
        out = wl.cli_trace_dir / f"child{len(os.listdir(wl.cli_trace_dir))}"
        cmd = [sys.executable, "-c", TRACED_CHILD, str(BENCH_DIR), str(out),
               "--json", *args]
    with open(files / "stdout", "w+b") as so, open(files / "stderr",
                                                   "w+b") as se:
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=cli_env(),
                                cwd=str(ROOT))
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        so.seek(0)
        se.seek(0)
        out_text = so.read().decode()
        err_text = se.read().decode()
    result = timing = None
    if proc.returncode == 0:
        report = json.loads(out_text)
        result, timing = report["result"], report["timing_ms"]
    return CliOutcome(proc.returncode, result, timing, usage.ru_maxrss,
                      err_text)


def _cli(scale, sz, picker) -> Workload:
    from shiftgeo import configs

    wl = Workload("cli", min_passes=sz["cli_passes"])
    binary = configs.BINARY

    def lit(r, lp, lf, rf, rp):
        x = configs.Configuration(
            binary, _primitive_word(r, "01", lp),
            "".join(r.choice("01") for _ in range(lf)),
            "".join(r.choice("01") for _ in range(rf)),
            _primitive_word(r, "01", rp))
        return configs.format_config(x)

    i = picker("cli/dist-db", POOL)
    r = _rng("cli/dist-db", i)
    x, y = lit(r, 29, 4, 4, 31), lit(r, 31, 4, 4, 29)
    i = picker("cli/dist-to-shift", POOL)
    z = configs.format_config(configs.periodic_config(
        _primitive_word(_rng("cli/dist-to-shift", i), "01", 8), binary))
    i = picker("cli/uap-nearest", POOL)
    ynear = configs.format_config(configs.periodic_config(
        _primitive_word(_rng("cli/uap-nearest", i), "01", 7), binary))
    i = picker("cli/binom-bound", POOL)
    r = _rng("cli/binom-bound", i)
    m = r.randint(2, 6)
    binom = [str(r.randint(10, 40)), str(m), str(r.randint(1, m - 1))]
    sample_seed = str(picker("cli/path-sample", POOL))
    P = str(sz["cli_classify_P"])

    commands = [
        ["dist", "--db", x, y],
        ["dist", "--to-shift", "@sft14.json", z],
        ["classify", "eca:232"],
        ["classify", "eca:204", "--shift", "@no111.json", "--period", P],
        ["complex", "extract", "@triangle.json"],
        ["complex", "embed", "@edge.json", "@full2.json"],
        ["uap", "search", "@golden.json", "--period", "8"],
        ["uap", "nearest", "@golden.json", ynear, "--period", "10"],
        ["shift", "inside", "@even.json"],
        ["measure", "decay", "@golden.json", "--length", "8"],
        ["measure", "binom-bound", *binom],
        ["path", "sample", "--seed", sample_seed, "--window", "64"],
    ]
    for argv in commands:
        wl.ops.append(Op("cli/" + " ".join(argv),
                         lambda argv=argv: run_cli(wl, argv)))
    wl.ops[0].check = lambda res: (
        oracles.check_cli_dist(x, y, res.result) if res.exit_code == 0
        else [])
    return wl


_BUILDERS = {"ca-scan": _ca_scan, "orbits": _orbits, "arms": _arms,
             "cli": _cli}


def setup(name: str, scale: str, seed: int, workdir: Path) -> Workload:
    """Import shiftgeo and build a workload's inputs: what setup_s times."""
    import shiftgeo  # noqa: F401  (the import is part of set-up)
    wl = build(name, scale, seed_picker(seed))
    if name == "cli":
        wl.files = workdir / "cli-files"
        write_cli_files(wl.files)
    return wl

