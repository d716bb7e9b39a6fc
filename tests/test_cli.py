import json
import os
import subprocess
import sys

import pytest

import shiftgeo
from shiftgeo.cli import main


@pytest.fixture()
def golden_file(tmp_path):
    p = tmp_path / "golden.json"
    p.write_text(json.dumps({"alphabet": "01", "forbidden": ["11"]}))
    return str(p)


@pytest.fixture()
def even_file(tmp_path):
    p = tmp_path / "even.json"
    p.write_text(json.dumps({
        "alphabet": "01",
        "states": ["e", "o"],
        "edges": [{"from": "e", "to": "e", "label": "1"},
                  {"from": "e", "to": "o", "label": "0"},
                  {"from": "o", "to": "e", "label": "0"}]}))
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_dist_db(capsys):
    rc, out, _ = run(capsys, "dist", "--db",
                     "inf(01).inf(01)", "inf(0).inf(0)")
    assert rc == 0 and "1/2" in out


def test_dist_dw_dc(capsys):
    rc, out, _ = run(capsys, "dist", "--dw",
                     "inf(0).1inf(1)", "inf(0).inf(0)")
    assert rc == 0 and out.startswith("dw: 1")
    rc, out, _ = run(capsys, "dist", "--dc",
                     "inf(0).0001inf(0)", "inf(0).inf(0)")
    assert rc == 0 and "1/8" in out


def test_dist_to_shift(capsys, golden_file):
    rc, out, _ = run(capsys, "dist", "--to-shift", golden_file,
                     "inf(1).inf(1)")
    assert rc == 0 and "1/2" in out


def test_dist_estimate(capsys):
    rc, out, _ = run(capsys, "dist", "--estimate", "--window", "2",
                     "inf(01).inf(01)", "inf(0).inf(0)")
    assert rc == 0 and "2/5" in out


def test_classify(capsys):
    rc, out, _ = run(capsys, "classify", "eca:204")
    assert rc == 0 and "isometric=True" in out
    rc, out, _ = run(capsys, "classify", "eca:232")
    assert rc == 0 and "witness" in out and "1/5" in out


def test_classify_on_shift(capsys, golden_file, tmp_path):
    ca = tmp_path / "and.json"
    ca.write_text(json.dumps({
        "alphabet": "01", "offsets": [-1, 0],
        "table": {"00": "0", "01": "0", "10": "0", "11": "1"}}))
    sft = tmp_path / "sft111.json"
    sft.write_text(json.dumps({"alphabet": "01", "forbidden": ["111"]}))
    rc, out, _ = run(capsys, "classify", "--shift", str(sft),
                     "--period", "5", str(ca))
    assert rc == 0
    assert "contracting: no violation up to period 5" in out


@pytest.mark.parametrize("period", ["0", "-3"])
def test_bounded_searches_reject_non_positive_period(capsys, golden_file,
                                                     period):
    rc, out, err = run(capsys, "classify", "eca:204", "--shift", golden_file,
                       "--period", period)
    assert rc == 3 and "period bound must be positive" in err
    assert "no violation" not in out
    rc, out, err = run(capsys, "uap", "search", golden_file,
                       "--period", period)
    assert rc == 3 and "period bound must be positive" in err
    assert "no violation" not in out


def test_classify_precondition(capsys, golden_file):
    rc, out, _ = run(capsys, "classify", "--precondition",
                     "--shift", golden_file, "--length", "3",
                     "--period", "9")
    assert rc == 0 and "pass" in out


@pytest.mark.parametrize("length, period, bound", [
    ("0", "4", "factor length"), ("-1", "4", "factor length"),
    ("3", "0", "period"), ("3", "-2", "period")])
def test_classify_precondition_rejects_non_positive_bounds(
        capsys, golden_file, length, period, bound):
    rc, out, err = run(capsys, "classify", "--precondition",
                       "--shift", golden_file, "--length", length,
                       "--period", period)
    assert rc == 3 and f"{bound} bound must be positive" in err
    assert "precondition:" not in out


def test_non_object_json_is_an_input_error(capsys, tmp_path, golden_file):
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([1, 2]))
    rc, _, err = run(capsys, "dist", "--to-shift", str(listed),
                     "inf(0).inf(0)")
    assert rc == 2 and "expected a JSON object, got list" in err
    rc, _, err = run(capsys, "classify", str(listed), "--shift",
                     golden_file, "--period", "3")
    assert rc == 2 and "expected a JSON object, got list" in err


def test_dist_needs_two_configurations(capsys):
    rc, _, err = run(capsys, "dist", "--db", "inf(0).inf(01)")
    assert rc == 2 and "dist needs two configurations, got 1" in err


def test_measure_cylinder_rejects_unknown_symbol(capsys, golden_file):
    rc, out, err = run(capsys, "measure", "cylinder", golden_file, "0x")
    assert rc == 2 and "symbol 'x' not in alphabet" in err
    assert "mu(" not in out


@pytest.mark.parametrize("mode, args, takes", [
    ("parry", [], "FILE"),
    ("cylinder", ["GOLDEN"], "FILE WORD"),
    ("decay", ["GOLDEN", "GOLDEN"], "FILE"),
    ("binom-bound", ["5"], "N M P"),
    ("growth-threshold", ["2"], "K A"),
    ("generic", ["01"], "no arguments"),
    ("ball-count", ["0101"], "WORD N EPS"),
    ("complex extract", ["GOLDEN", "GOLDEN"], "FILE"),
    ("complex embed", ["GOLDEN"], "COMPLEX FILE"),
    ("complex coords", ["GOLDEN"], "FILE CONFIG"),
    ("uap nearest", ["GOLDEN"], "FILE CONFIG"),
    ("uap search", ["GOLDEN", "extra"], "FILE"),
    *[(f"shift {mode}", ["GOLDEN", "GOLDEN"], "FILE") for mode in (
        "compile", "cover", "components", "mixing", "sync-word", "entropy",
        "inside", "language")],
    ("shift contains", ["GOLDEN"], "FILE CONFIG"),
    ("path prefix", ["1/2"], "no arguments"),
    ("path sample", ["7"], "no arguments")])
def test_measure_checks_argument_count(capsys, golden_file, mode, args,
                                       takes):
    """Every mode checks its positional argument count; a mode without a
    command is a measure mode."""
    command = mode if " " in mode else f"measure {mode}"
    args = [golden_file if a == "GOLDEN" else a for a in args]
    rc, out, err = run(capsys, *command.split(), *args)
    assert rc == 2 and out == ""
    assert (f"{command} takes {takes}, got {len(args)} argument(s)"
            in err)
    assert "index out of range" not in err and "unpack" not in err


@pytest.mark.parametrize("argv, code, message", [
    (["measure", "growth-threshold", "1/0", "2"], 2, "not a rational number"),
    (["measure", "ball-count", "0101", "3", "1/0"], 2,
     "not a rational number"),
    (["path", "prefix", "-r", "1/0"], 2, "not a rational number"),
    (["path", "embed", "0", "1/0"], 2, "not a rational number"),
    (["path", "window", "-r", "half"], 2, "not a rational number"),
    (["shift", "language", "GOLDEN", "--length", "-2"], 2,
     "factor length must be non-negative"),
    (["measure", "decay", "GOLDEN", "--length", "-1"], 3,
     "length bound must be positive"),
    (["shift", "sync-word", "GOLDEN", "--length", "-5"], 3,
     "word length cap must be positive"),
    (["measure", "generic", "--length", "-3"], 3,
     "prefix length must be non-negative"),
    (["measure", "ball-count", "01", "-3", "1/4"], 3,
     "word length must be non-negative"),
    (["measure", "ball-count", "", "3", "1/4"], 3,
     "need a non-empty period word"),
    (["measure", "ball-count", "01", "30", "1/4"], 4,
     "n = 30 exceeds the enumeration cap 22")])
def test_bad_numeric_arguments_exit_cleanly(capsys, golden_file, argv, code,
                                            message):
    argv = [golden_file if a == "GOLDEN" else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == code and out == "" and message in err


def test_dist_to_shift_takes_one_configuration(capsys, golden_file):
    rc, out, err = run(capsys, "dist", "--to-shift", golden_file,
                       "inf(0).inf(0)", "inf(1).inf(1)")
    assert rc == 2 and out == ""
    assert "dist --to-shift takes one configuration, got 2" in err


def test_shift_commands(capsys, golden_file, even_file):
    rc, out, _ = run(capsys, "shift", "mixing", golden_file)
    assert rc == 0 and "1" in out
    rc, out, _ = run(capsys, "shift", "cover", even_file)
    assert rc == 0 and "2 states" in out
    rc, out, _ = run(capsys, "shift", "sync-word", even_file)
    assert rc == 0 and "'1'" in out
    rc, out, _ = run(capsys, "shift", "entropy", golden_file)
    assert rc == 0 and "True" in out
    rc, out, _ = run(capsys, "shift", "inside", even_file)
    assert rc == 0 and "w='01'" in out
    rc, out, _ = run(capsys, "shift", "language", golden_file,
                     "--length", "2")
    assert rc == 0 and out.split() == ["00", "01", "10"]
    rc, out, _ = run(capsys, "shift", "contains", golden_file,
                     "inf(10).inf(10)")
    assert rc == 0 and "True" in out
    rc, out, _ = run(capsys, "shift", "components", golden_file)
    assert rc == 0 and "1 transitive" in out


def test_uap_commands(capsys, golden_file):
    rc, out, _ = run(capsys, "uap", "nearest", golden_file,
                     "inf(1).inf(1)", "--period", "4")
    assert rc == 0 and "1/2" in out and "inf(01).inf(01)" in out
    rc, out, _ = run(capsys, "uap", "search", golden_file, "--period", "6")
    assert rc == 0 and "witness" in out


def test_path_commands(capsys):
    rc, out, _ = run(capsys, "path", "prefix", "--construction",
                     "intersperse", "-r", "1/2", "--window", "8")
    assert rc == 0 and out.strip() == "01010101"
    rc, out, _ = run(capsys, "path", "sample", "--seed", "5", "--window", "8")
    rc2, out2, _ = run(capsys, "path", "sample", "--seed", "5",
                       "--window", "8")
    assert rc == rc2 == 0 and out == out2
    rc, out, _ = run(capsys, "path", "embed", "0", "1/2", "--window", "8")
    assert rc == 0 and len(out.split()[0]) == 8


def test_measure_commands(capsys, golden_file):
    rc, out, _ = run(capsys, "measure", "parry", golden_file)
    assert rc == 0 and "1.61803398" in out
    rc, out, _ = run(capsys, "measure", "cylinder", golden_file, "0")
    assert rc == 0
    rc, out, _ = run(capsys, "measure", "decay", golden_file,
                     "--length", "8")
    assert rc == 0 and "t = 2" in out
    rc, out, _ = run(capsys, "measure", "binom-bound", "5", "3", "1")
    assert rc == 0 and "True" in out
    rc, out, _ = run(capsys, "measure", "growth-threshold", "2", "1")
    assert rc == 0 and "m = 7" in out
    rc, out, _ = run(capsys, "measure", "generic", "--length", "16")
    assert rc == 0 and len(out.strip()) == 16
    rc, out, _ = run(capsys, "measure", "ball-count", "01", "8", "1/4")
    assert rc == 0 and "True" in out


def test_complex_commands(capsys, tmp_path, golden_file):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({
        "alphabet": "012",
        "states": ["a", "b", "c"],
        "edges": [
            {"from": "a", "to": "a", "label": "0"},
            {"from": "a", "to": "a", "label": "1"},
            {"from": "b", "to": "b", "label": "1"},
            {"from": "b", "to": "b", "label": "2"},
            {"from": "c", "to": "c", "label": "2"},
            {"from": "c", "to": "c", "label": "0"}]}))
    rc, out, _ = run(capsys, "complex", "extract", str(tri))
    assert rc == 0 and "3 vertices, 3 edges, 0 triangles" in out
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"vertices": ["p", "q"],
                                "faces": [["p", "q"]]}))
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"alphabet": "01", "forbidden": []}))
    rc, out, _ = run(capsys, "complex", "embed", str(edge), str(full))
    assert rc == 0 and "marker" in out
    rc, out, _ = run(capsys, "complex", "coords", str(tri),
                     "inf(01).inf(01)")
    assert rc == 0 and "1/2" in out


def test_json_report_and_determinism(capsys, golden_file):
    rc, out1, _ = run(capsys, "--json", "dist", "--db",
                      "inf(01).inf(01)", "inf(0).inf(0)")
    assert rc == 0
    rep1 = json.loads(out1)
    assert rep1["result"]["db"] == {"num": 1, "den": 2, "float": 0.5}
    rc, out2, _ = run(capsys, "--json", "dist", "--db",
                      "inf(01).inf(01)", "inf(0).inf(0)")
    rep2 = json.loads(out2)
    assert rep1["result"] == rep2["result"]
    assert rep1["inputs"] == rep2["inputs"]


def test_report_out_file(capsys, tmp_path, golden_file):
    out_file = tmp_path / "report.json"
    rc, _, _ = run(capsys, "--out", str(out_file), "shift", "mixing",
                   golden_file)
    assert rc == 0
    rep = json.loads(out_file.read_text())
    assert rep["result"]["mixing_distance"] == 1


def test_exit_codes(capsys, tmp_path, golden_file):
    rc, _, err = run(capsys, "dist", "--db", "inf(2).inf(2)",
                     "inf(0).inf(0)")
    assert rc == 2 and "input error" in err
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"alphabet": "01", "forbidden": ["0", "1"]}))
    rc, _, err = run(capsys, "shift", "compile", str(empty))
    assert rc == 3 and "precondition" in err
    orbit = tmp_path / "orbit.json"
    orbit.write_text(json.dumps({
        "alphabet": "01", "states": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "label": "0"},
                  {"from": "b", "to": "a", "label": "1"}]}))
    rc, _, err = run(capsys, "shift", "mixing", str(orbit))
    assert rc == 3 and "period" in err
    # on the orbit of 0011 no symbol synchronizes; 01 is the first word
    orbit4 = tmp_path / "orbit4.json"
    orbit4.write_text(json.dumps({
        "alphabet": "01", "states": ["a", "b", "c", "d"],
        "edges": [{"from": "a", "to": "b", "label": "0"},
                  {"from": "b", "to": "c", "label": "0"},
                  {"from": "c", "to": "d", "label": "1"},
                  {"from": "d", "to": "a", "label": "1"}]}))
    rc, _, err = run(capsys, "shift", "sync-word", str(orbit4),
                     "--length", "1")
    assert rc == 4 and "length <= 1" in err
    rc, out, _ = run(capsys, "shift", "sync-word", str(orbit4),
                     "--length", "2")
    assert rc == 0 and "'01'" in out
    rc, _, _ = run(capsys, "nonsense")
    assert rc == 2


def test_cold_start_loads_neither_numpy_nor_mpmath():
    """Only parry_measure needs numpy and no command needs mpmath, so a
    top-level import of either would slow every cold CLI call."""
    code = ("import sys, shiftgeo.cli\n"
            "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))\n"
            "rc = shiftgeo.cli.main('measure binom-bound 12 4 1'.split())\n"
            "print(rc, 'mpmath' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(shiftgeo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "bound holds: True", "0 False"]
