import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import shiftgeo
from shiftgeo import cli
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


@pytest.mark.parametrize("flags", [("--dw", "--dc"), ("--db", "--dw"),
                                   ("--dc", "--db"), ("--db", "--dw", "--dc")])
def test_dist_metric_flags_are_exclusive(capsys, flags):
    rc, out, err = run(capsys, "dist", *flags,
                       "inf(0).1inf(1)", "inf(0).inf(0)")
    assert rc == 2 and out == ""
    assert "not allowed with argument" in err


# each subcommand's modes, in the order its parser lists them
MODES = {
    "complex": ["extract", "embed", "coords"],
    "path": ["prefix", "window", "embed", "sample"],
    "uap": ["nearest", "search"],
    "shift": ["compile", "cover", "components", "mixing", "sync-word",
              "entropy", "inside", "language", "contains"],
    "measure": ["parry", "cylinder", "decay", "binom-bound",
                "growth-threshold", "generic", "ball-count"],
}


def test_each_subcommand_offers_exactly_its_modes():
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "cmd").choices
    for cmd, parser in subparsers.items():
        mode = [a for a in parser._actions if a.dest == "mode"]
        assert [list(a.choices) for a in mode] == \
            ([MODES[cmd]] if cmd in MODES else []), cmd
    assert {c for (c, _m) in cli._ARGS} == set(MODES)


def test_path_embed_skips_the_argument_count_check(capsys):
    ns = cli.build_parser().parse_args(["path", "embed", "1/2", "1/3",
                                        "1/5"])
    cli._check_arg_count(ns)  # takes one or more coordinates
    rc, out, _ = run(capsys, "path", "embed", "1/2", "1/3", "1/5",
                     "--window", "8")
    assert rc == 0 and len(out.strip()) == 8
    rc, _, err = run(capsys, "path", "sample", "1/2")
    assert rc == 2 and "path sample takes no arguments" in err


@pytest.mark.parametrize("head, option, tail", [
    (["path", "embed"], ["--window", "8"], ["1/2"]),
    (["path", "embed"], ["--window", "8"], ["0", "1/2"]),
    (["measure", "cylinder"], ["--json"], ["GOLDEN", "0"]),
    (["measure", "decay"], ["--length", "6"], ["GOLDEN"]),
    (["measure", "binom-bound"], ["--json"], ["5", "3", "1"]),
    (["measure", "ball-count"], ["--json"], ["01", "3", "1/4"]),
    (["measure", "ball-count"], ["--json"], ["01", "-3", "1/4"]),
    (["dist", "inf(01).inf(01)"], ["--db"], ["inf(0).inf(0)"]),
    (["uap", "nearest", "GOLDEN"], ["--period", "4"], ["inf(1).inf(1)"]),
], ids=lambda v: "-".join(v))
def test_positionals_may_follow_an_option(capsys, golden_file, head, option,
                                          tail):
    """Positionals after an option join the subcommand's arguments, in
    order: both argv orders give one result and exit code."""
    head, tail = ([golden_file if t == "GOLDEN" else t for t in part]
                  for part in (head, tail))
    before = run(capsys, *head, *tail, *option)
    after = run(capsys, *head, *option, *tail)
    assert before[0] in (0, 3) and before[::2] == after[::2]
    if before[0] == 0 and "--json" in option:  # the report echoes argv
        assert json.loads(before[1])["result"] == \
            json.loads(after[1])["result"]
    else:
        assert before == after


@pytest.mark.parametrize("argv, left", [
    (["path", "embed", "1/2", "--bogus", "3"], "--bogus 3"),
    (["path", "embed", "--window", "8", "-1/2"], "-1/2"),
    (["classify", "eca:30", "--period", "3", "eca:90"], "eca:90"),
])
def test_leftover_options_are_still_rejected(capsys, argv, left):
    """An unknown option, and a positional that no argument list takes,
    still end the parse with exit 2 naming them."""
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert f"unrecognized arguments: {left}" in err


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
    edge = {"from": "a", "to": "a", "label": "0"}
    for command, field, bad in [
            ("shift compile", "forbidden", {"alphabet": "01",
                                            "forbidden": "11"}),
            ("shift compile", "alphabet", {"alphabet": 5,
                                           "forbidden": ["11"]}),
            ("shift compile", "forbidden", {"alphabet": "01",
                                            "forbidden": [11]}),
            ("shift compile", "states", {"alphabet": "01", "states": 5,
                                         "edges": [edge]}),
            ("shift compile", "states", {"alphabet": "01",
                                         "states": [["a"]], "edges": []}),
            ("shift compile", "edges", {"alphabet": "01", "states": ["a"],
                                        "edges": [5]}),
            ("shift compile", "from", {"alphabet": "01", "states": ["a"],
                                       "edges": [{**edge, "from": ["a"]}]}),
            ("shift compile", "label", {"alphabet": "01", "states": ["a"],
                                        "edges": [{**edge, "label": [0]}]}),
            ("classify", "table", {"alphabet": "01", "offsets": [0, 0],
                                   "table": [1]}),
            ("classify", "table", {"alphabet": "01", "offsets": [0, 0],
                                   "table": {"0": 1, "1": "0"}}),
            ("classify", "offsets", {"alphabet": "01", "offsets": 0,
                                     "table": {"0": "1", "1": "0"}})]:
        listed.write_text(json.dumps(bad))
        rc, out, err = run(capsys, *command.split(), str(listed))
        assert (rc, out) == (2, "") and \
            f"field {field!r} has the wrong type" in err, bad


def test_state_names_load_as_strings(capsys, tmp_path):
    """A compiled presentation names its states by strings, so 0 and "0"
    are one name: a file naming both has a duplicate state, and numeric
    names load as their strings, which read back unchanged."""
    path = tmp_path / "shift.json"
    path.write_text(json.dumps({
        "alphabet": "01", "states": ["0", 0],
        "edges": [{"from": "0", "to": 0, "label": "0"},
                  {"from": 0, "to": "0", "label": "1"}]}))
    rc, out, err = run(capsys, "shift", "compile", str(path))
    assert (rc, out) == (2, "") and "duplicate state '0'" in err
    edges = [(0, 1, "0"), (1, 0, "1"), (1, 2.5, "0"), (2.5, 0, "0")]
    compiled = []
    for name in (lambda s: s, str):
        path.write_text(json.dumps({
            "alphabet": "01", "states": [name(s) for s in (0, 1, 2.5)],
            "edges": [{"from": name(s), "to": name(t), "label": a}
                      for (s, t, a) in edges]}))
        rc, out, _ = run(capsys, "--json", "shift", "compile", str(path))
        assert rc == 0
        compiled.append(json.loads(out)["result"]["presentation"])
    assert compiled[0] == compiled[1]
    assert compiled[0]["states"] == ["0", "1", "2.5"]


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
              st.text("01a", max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["from", "to", "label", "0", "1"]),
                        inner, max_size=3)), max_leaves=6)


@st.composite
def shift_or_rule_file(draw):
    """A small JSON object shaped like an SFT, presentation or rule file,
    each field well typed (often still invalid), of any JSON type, or
    missing.  Alphabets have at most three symbols and forbidden words at
    most four, so compiled SFTs stay small."""
    ab = draw(st.sampled_from(["01", "0", "a10", ["0", "1"], ""]))
    syms = st.sampled_from([*ab, "x"])  # x is outside every alphabet
    names = st.sampled_from(["a", "b", 0])
    lo = draw(st.integers(-1, 1))
    hi = draw(st.integers(lo, 1))
    good = {
        "alphabet": st.just(ab),
        "forbidden": st.lists(st.text(syms, min_size=1, max_size=4),
                              max_size=3),
        "states": st.lists(names, max_size=3),
        "edges": st.lists(st.fixed_dictionaries(
            {"from": names, "to": names, "label": syms}), max_size=4),
        "offsets": st.just([lo, hi]),
        "table": st.fixed_dictionaries(
            {"".join(p): st.sampled_from([*ab])
             for p in itertools.product(ab, repeat=hi - lo + 1)}),
    }
    fields = draw(st.sampled_from([("alphabet", "forbidden"),
                                   ("alphabet", "states", "edges"),
                                   ("alphabet", "offsets", "table")]))
    d = {}
    for key in fields:
        how = draw(st.sampled_from(["good", "good", "good", "any", "none"]))
        if how != "none":
            d[key] = draw(good[key] if how == "good" else _JSON_VALUES)
    return d


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(shift_or_rule_file())
def test_malformed_shift_and_rule_files_never_end_in_a_traceback(
        tmp_path_factory, d):
    path = tmp_path_factory.mktemp("fuzz") / "file.json"
    path.write_text(json.dumps(d))
    for argv in (["shift", "compile", str(path)],
                 ["classify", str(path), "--period", "2"]):
        assert main(argv) in (0, 2, 3), (argv, d)


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
     "n = 30 exceeds the enumeration cap 22"),
    (["measure", "ball-count", "0", "23", "1/4"], 4,
     "n = 23 exceeds the enumeration cap 22"),
    (["measure", "growth-threshold", "2", "1/1000"], 4,
     "exceeds the cap of 4194304 bits; no block count m < 23990 meets the "
     "condition"),
    (["classify", "eca:"], 2, "'' is not an integer"),
    (["classify", "eca:x"], 2, "'x' is not an integer"),
    (["classify", "eca:1e3"], 2, "'1e3' is not an integer"),
    (["classify", "eca:256"], 2, "elementary rule number must be in [0, 255]"),
    (["measure", "binom-bound", "x", "2", "1"], 2, "'x' is not an integer"),
    (["measure", "binom-bound", "5", "3", "1/2"], 2,
     "'1/2' is not an integer"),
    (["measure", "ball-count", "01", "x", "0.5"], 2,
     "'x' is not an integer")])
def test_bad_numeric_arguments_exit_cleanly(capsys, golden_file, argv, code,
                                            message):
    argv = [golden_file if a == "GOLDEN" else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == code and out == "" and message in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("flags, named", [
    (["--dw"], "--dw"), (["--dc"], "--dc"), (["--estimate"], "--estimate"),
    (["--estimate", "--dw"], "--dw, --estimate"),
])
def test_dist_to_shift_rejects_other_distances(capsys, golden_file, flags,
                                               named):
    """The distance to a shift is the Besicovitch one: a flag asking for
    another distance is refused, not silently ignored."""
    rc, out, err = run(capsys, "dist", "--to-shift", golden_file,
                       "inf(1).inf(0)", *flags)
    assert rc == 2 and out == ""
    assert ("dist --to-shift gives the Besicovitch distance only and "
            f"cannot take {named}") in err


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
    rc, out, _ = run(capsys, "measure", "growth-threshold", "2", "2000")
    assert rc == 0 and "m = 2, verified from n0 = 2" in out
    rc, out, _ = run(capsys, "measure", "generic", "--length", "16")
    assert rc == 0 and len(out.strip()) == 16
    rc, out, _ = run(capsys, "measure", "ball-count", "01", "8", "1/4")
    assert rc == 0 and "True" in out
    for w in ("2", "22"):  # counted over {0, 2}: only 222 is within 0
        rc, out, _ = run(capsys, "measure", "ball-count", w, "3", "1/4")
        assert rc == 0 and \
            out.strip() == f"count 1 <= bound {2 * len(w)}: True"


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


def test_report_out_to_unwritable_path_is_an_input_error(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "x.json"
    rc, out, err = run(capsys, "--out", str(missing), "dist",
                       "inf(0).inf(0)", "inf(1).inf(1)")
    assert (rc, out) == (2, "")
    assert err == f"input error: cannot write {missing}: " \
        "No such file or directory\n"
    assert "Traceback" not in err and not missing.exists()


def test_complex_with_mixed_vertex_name_types_is_an_input_error(capsys,
                                                              tmp_path):
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"vertices": ["a", 1], "faces": [["a", 1]]}))
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"alphabet": "01", "forbidden": []}))
    rc, out, err = run(capsys, "complex", "embed", str(mixed), str(full))
    assert (rc, out) == (2, "")
    assert err == "input error: vertex names of mixed types\n"


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


def test_classify_on_shift_over_another_alphabet_is_input_error(capsys,
                                                              tmp_path):
    ab = tmp_path / "ab.json"
    ab.write_text(json.dumps({"alphabet": "ab", "forbidden": ["bb"]}))
    rc, out, err = run(capsys, "classify", "eca:30", "--shift", str(ab))
    assert (rc, out) == (2, "") and "alphabet mismatch" in err


def test_classify_ca_over_larger_alphabet_is_input_error(capsys, tmp_path,
                                                         golden_file):
    # the identity over 012 maps every point of the golden mean into it,
    # but the verdicts would be about configurations over 012
    ca = tmp_path / "id012.json"
    ca.write_text(json.dumps({"alphabet": "012", "offsets": [0, 0],
                              "table": {"0": "0", "1": "1", "2": "2"}}))
    rc, out, err = run(capsys, "classify", str(ca), "--shift", golden_file)
    assert (rc, out) == (2, "") and "alphabet mismatch" in err


def _run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(shiftgeo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_cold_start_loads_neither_numpy_nor_mpmath(capsys, golden_file):
    """No command needs numpy or mpmath (both are test-only), so a cold CLI
    call imports neither, and the measure modes built on parry_measure run
    with numpy blocked and print what they print in process."""
    proc = _run_python(
        "import sys, shiftgeo.cli\n"
        "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))\n"
        "rc = shiftgeo.cli.main('measure binom-bound 12 4 1'.split())\n"
        "print(rc, 'mpmath' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "bound holds: True", "0 False"]
    blocked = ("import sys\n"
               "sys.modules['numpy'] = None\n"
               "import shiftgeo.cli\n"
               "sys.exit(shiftgeo.cli.main(sys.argv[1:]))\n")
    for argv in (["measure", "parry", golden_file],
                 ["measure", "decay", golden_file, "--length", "8"]):
        rc, out, _ = run(capsys, *argv)
        proc = _run_python(blocked, *argv)
        assert rc == 0 and (proc.returncode, proc.stdout) == (0, out), \
            proc.stderr


# the names `shiftgeo` exported, by home module, when it imported every
# submodule eagerly
EXPORTS = {
    "configs": ["Alphabet", "BINARY", "Configuration", "format_config",
                "hamming", "parse_config", "periodic_config", "shift",
                "window"],
    "shifts": ["ShiftPresentation", "SftSpec", "compile_sft",
               "contains_config", "disjoint_union", "even_shift",
               "full_shift", "golden_mean", "intersect", "language",
               "language_equal", "language_subset", "mixing_distance",
               "mixing_sft_inside", "positive_entropy", "shannon_cover",
               "transitive_components", "find_unbordered_synchronizing"],
    "metrics": ["d_besicovitch", "d_cantor", "d_weyl", "density_estimate",
                "distance_to_shift", "nearest_periodic",
                "unique_approximation_search", "weyl_estimate"],
    "paths": ["block_path_prefix", "block_path_source", "block_path_window",
              "embed_point", "intersperse", "intersperse_path_prefix",
              "intersperse_path_source", "intersperse_path_window",
              "sample_block_path"],
    "homotopy": ["AbstractComplex", "BarycentricPoint", "average",
                 "complex_coordinates", "embed_complex", "extract_complex",
                 "inverse_weighted_average", "project"],
    "automata": ["CellularAutomaton", "apply_ca", "ca_pseudometric",
                 "check_on_subshift", "classify_full_shift", "elementary_ca",
                 "isometric_ca_precondition", "isometry_decomposition",
                 "minimal_neighborhood"],
    "measures": ["MarkovMeasure", "bernoulli_prefix",
                 "binomial_growth_threshold", "cylinder",
                 "cylinder_decay_bound", "hamming_ball_count",
                 "parry_measure", "verify_binomial_bound"],
}
SUBMODULES = ["configs", "shifts", "metrics", "paths", "homotopy",
              "automata", "measures", "errors", "_graph"]


def test_namespace_resolves_every_name_on_first_use():
    """A bare `import shiftgeo` loads no submodule, yet every submodule and
    every exported name resolves from it, to the same object as in its
    home module; `import *` and `dir` see the same names as before."""
    names = [n for ns in EXPORTS.values() for n in ns]
    assert len(names) == len(set(names)) == 69
    proc = _run_python(
        "import json, sys\n"
        "import shiftgeo\n"
        "exports, submodules = json.loads(sys.argv[1])\n"
        "bare = [m for m in sys.modules if m.startswith('shiftgeo.')]\n"
        "modules = [getattr(shiftgeo, m).__name__ for m in submodules]\n"
        "differ = [n for home, ns in exports.items() for n in ns\n"
        "          if getattr(shiftgeo, n)\n"
        "          is not getattr(sys.modules['shiftgeo.' + home], n)]\n"
        "star = {}\n"
        "exec('from shiftgeo import *', star)\n"
        "print(json.dumps({'bare': bare, 'modules': modules,\n"
        "                  'differ': differ,\n"
        "                  'star': sorted(set(star) - {'__builtins__'}),\n"
        "                  'dir': dir(shiftgeo),\n"
        "                  'nope': hasattr(shiftgeo, 'nope')}))\n",
        json.dumps([EXPORTS, SUBMODULES]))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["bare"] == []
    assert got["modules"] == ["shiftgeo." + m for m in SUBMODULES]
    assert got["differ"] == []
    assert got["star"] == sorted(names)
    assert set(names + SUBMODULES) <= set(got["dir"])
    assert got["nope"] is False
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        shiftgeo.nope


BASE = ["cli", "configs", "errors"]


@pytest.mark.parametrize("argv, loaded, uses_hashlib", [
    (["path", "sample", "--seed", "7", "--window", "64"], ["paths"], False),
    (["measure", "binom-bound", "12", "4", "1"],
     ["_graph", "shifts", "measures"], False),
    (["dist", "--db", "inf(01).inf(01)", "inf(0).inf(0)"],
     ["_graph", "shifts", "metrics"], False),
    (["classify", "eca:232"], ["_graph", "shifts", "metrics", "automata"],
     False),
    (["complex", "extract", "GOLDEN"],
     ["_graph", "shifts", "metrics", "paths", "homotopy"], True),
])
def test_each_command_loads_only_the_modules_it_calls(golden_file, argv,
                                                      loaded, uses_hashlib):
    """A cold call imports the library modules its handler calls and no
    others, and hashes its inputs only when it has a file argument."""
    argv = [golden_file if a == "GOLDEN" else a for a in argv]
    proc = _run_python(
        "import contextlib, io, json, sys\n"
        "import shiftgeo\n"
        "bare = [m for m in sys.modules if m.startswith('shiftgeo.')]\n"
        "import shiftgeo.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = shiftgeo.cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, bare, sorted(\n"
        "    m[len('shiftgeo.'):] for m in sys.modules\n"
        "    if m.startswith('shiftgeo.')), 'hashlib' in sys.modules]))\n",
        *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [], sorted(BASE + loaded),
                                       uses_hashlib]


_CLI_CHILD = ("import sys, shiftgeo.cli\n"
              "sys.exit(shiftgeo.cli.main(sys.argv[1:]))\n")


def test_shift_file_from_a_pipe(capsys, golden_file):
    """A pipe is not digested, so its command reads all of it (as from
    process substitution, `shift compile <(...)`)."""
    rc, want, _ = run(capsys, "shift", "compile", golden_file)
    r, w = os.pipe()
    try:
        with open(golden_file, "rb") as fh:
            os.write(w, fh.read())
        os.close(w)
        rc2, out, err = run(capsys, "shift", "compile", f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert (rc, rc2, out) == (0, 0, want), err


@pytest.mark.parametrize("argv, message", [
    (["dist", "--db", "/dev/zero", "inf(0).inf(0)"],
     "configuration literal"),
    (["shift", "compile", "/dev/zero"],
     "cannot read /dev/zero: not a regular file or pipe")])
def test_devices_are_neither_digested_nor_read(argv, message):
    """/dev/zero has no end. The child runs under a 256 MB address-space
    cap, so reading it would end in a MemoryError, not fill the host."""
    proc = _run_python("import resource\n"
                       "resource.setrlimit(resource.RLIMIT_AS,\n"
                       "                   (1 << 28, 1 << 28))\n"
                       + _CLI_CHILD, *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and message in proc.stderr


def test_fifo_argument_is_not_digested(tmp_path):
    """Opening a FIFO with no writer blocks, so the digest never opens
    one; the argument is then just a malformed configuration literal."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    proc = _run_python(_CLI_CHILD, "dist", "--db", str(fifo),
                       "inf(0).inf(0)")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, \
        proc.stderr


@pytest.mark.parametrize("complex_, message", [
    ({"vertices": "ab", "faces": 5}, "field 'vertices' has the wrong type"),
    ({"vertices": ["a", "b"], "faces": 5}, "field 'faces' has the wrong type"),
    ({"vertices": ["p", "q"], "faces": "pq"},
     "field 'faces' has the wrong type"),
    ({"vertices": ["p"], "faces": [5]}, "field 'faces' has the wrong type"),
    ({"vertices": ["p"], "faces": [["p", ["p"]]]},
     "field 'faces' has the wrong type"),
    ({"vertices": [["p"]], "faces": []},
     "field 'vertices' has the wrong type"),
    ({"vertices": ["p", "q"]}, "missing field 'faces'"),
    ({"faces": []}, "missing field 'vertices'")])
def test_malformed_complex_files_are_input_errors(capsys, tmp_path,
                                                  golden_file, complex_,
                                                  message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(complex_))
    rc, out, err = run(capsys, "complex", "embed", str(path), golden_file)
    assert (rc, out) == (2, "") and message in err


@pytest.mark.parametrize("offsets", [[0, 0, 1], [0], []])
def test_rule_offsets_must_be_a_pair(capsys, tmp_path, golden_file, offsets):
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps({"alphabet": "01", "offsets": offsets,
                                "table": {"0": "1", "1": "0"}}))
    rc, out, err = run(capsys, "classify", str(rule), "--shift", golden_file)
    assert (rc, out) == (2, "") and \
        "field 'offsets' must hold two offsets [lo, hi]" in err


@pytest.mark.parametrize("argv", [
    ["path", "prefix", "-r", "1/3", "--window", "-3"],
    ["path", "prefix", "-r", "1/3", "--window", "-3", "--construction",
     "intersperse"],
    ["path", "embed", "1/2", "--window", "-5"]])
def test_path_prefixes_reject_negative_length(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "") and \
        "prefix length must be non-negative" in err


@pytest.mark.parametrize("argv", [
    ["measure", "generic", "--alphabet", ""],
    ["dist", "--db", "inf(0).inf(0)", "inf(1).inf(1)", "--alphabet", ""]])
def test_empty_alphabet_flag_is_an_input_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "") and "alphabet must be nonempty" in err


@pytest.mark.parametrize("error", [AssertionError("closure broke"),
                                   RuntimeError("no convergence")])
def test_internal_errors_exit_5_without_a_traceback(capsys, monkeypatch,
                                                    error):
    def broken(ns, rep):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "dist", broken)
    rc, out, err = run(capsys, "dist", "--db", "inf(0).inf(0)",
                       "inf(1).inf(1)")
    assert (rc, out) == (5, "")
    assert err == f"internal error: {error}\n"
    assert "Traceback" not in err


def test_uap_certification_runs_under_optimized_python(capsys, tmp_path):
    """The exact distance that certifies a UAP tie, the batched CA check
    on a subshift (its guard-bit test included: the and rule leaves only
    ``contracting`` open), and the exact distance to a shift from points
    whose two arms share one period (one arm's Karp results serve the
    other) keep their invariants as raises, which `python -O` does not
    strip."""
    block = tmp_path / "block.json"
    block.write_text(json.dumps({
        "alphabet": "01", "states": ["s0", "s1"],
        "edges": [{"from": "s0", "to": "s1", "label": "0"},
                  {"from": "s1", "to": "s0", "label": "0"},
                  {"from": "s1", "to": "s0", "label": "1"}]}))
    no111 = tmp_path / "no111.json"
    no111.write_text(json.dumps({"alphabet": "01", "forbidden": ["111"]}))
    and2 = tmp_path / "and.json"
    and2.write_text(json.dumps({
        "alphabet": "01", "offsets": [-1, 0],
        "table": {"00": "0", "01": "0", "10": "0", "11": "1"}}))
    sft14 = tmp_path / "sft14.json"
    sft14.write_text(json.dumps({"alphabet": "01",
                                 "forbidden": ["1111", "0000", "10101"]}))
    src = os.path.dirname(os.path.dirname(shiftgeo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    results = []
    for argv in (["uap", "search", str(block), "--period", "8"],
                 ["classify", "eca:204", "--shift", str(no111),
                  "--period", "6"],
                 ["classify", str(and2), "--shift", str(no111),
                  "--period", "6"],
                 ["dist", "--to-shift", str(sft14),
                  "inf(1111010100).inf(1111010100)"],
                 ["dist", "--to-shift", str(sft14),
                  "inf(0000101011)1.0inf(0000101011)"]):
        rc, out, _ = run(capsys, *argv, "--json")
        assert rc == 0
        proc = subprocess.run([sys.executable, "-O", "-m", "shiftgeo.cli",
                               *argv, "--json"], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)["result"]
        assert got == json.loads(out)["result"]
        results.append(got)
    assert results[0]["violation"] and results[0]["witness"] == \
        "inf(00011011).inf(00011011)"
    assert results[1] == {"contracting": True, "isometric": True,
                          "expanding": True}
    assert (results[2]["contracting"], results[2]["isometric"],
            results[2]["expanding"]) == (True, False, False)
    assert results[2]["expanding_witness"]["y"] == "inf(01).inf(01)"
    assert [(r["distance"]["num"], r["distance"]["den"])
            for r in results[3:]] == [(1, 10), (1, 5)]


# -- no input reaches a traceback ------------------------------------------

# (file name, JSON text): well-formed and degenerate shift, rule and
# complex files, small enough that every search on them stays fast
_FUZZ_FILES = {
    "golden.json": {"alphabet": "01", "forbidden": ["11"]},
    "even.json": {"alphabet": "01", "states": ["e", "o"],
                  "edges": [{"from": "e", "to": "e", "label": "1"},
                            {"from": "e", "to": "o", "label": "0"},
                            {"from": "o", "to": "e", "label": "0"}]},
    "tri.json": {"alphabet": "012", "states": ["a", "b", "c"],
                 "edges": [{"from": q, "to": q, "label": a}
                           for q, pair in zip("abc", ("01", "12", "20"))
                           for a in pair]},
    "one.json": {"alphabet": "0", "forbidden": []},
    "empty_shift.json": {"alphabet": "01", "forbidden": ["0", "1"]},
    "no_edges.json": {"alphabet": "01", "states": ["a"], "edges": []},
    "no_states.json": {"alphabet": "01", "states": [], "edges": []},
    "stray_state.json": {"alphabet": "01", "states": ["a"],
                         "edges": [{"from": "a", "to": "b", "label": "0"}]},
    "stray_label.json": {"alphabet": "01", "states": ["a"],
                         "edges": [{"from": "a", "to": "a", "label": "2"}]},
    "long_label.json": {"alphabet": "01", "states": ["a"],
                        "edges": [{"from": "a", "to": "a", "label": "01"}]},
    "empty_alphabet.json": {"alphabet": "", "forbidden": []},
    "dup_alphabet.json": {"alphabet": "00", "forbidden": []},
    "word_alphabet.json": {"alphabet": ["ab", "c"], "forbidden": ["c"]},
    "stray_forbidden.json": {"alphabet": "01", "forbidden": ["2", ""]},
    "and.json": {"alphabet": "01", "offsets": [-1, 0],
                 "table": {"00": "0", "01": "0", "10": "0", "11": "1"}},
    "short_table.json": {"alphabet": "01", "offsets": [-1, 0],
                         "table": {"00": "0"}},
    "stray_output.json": {"alphabet": "01", "offsets": [0, 0],
                          "table": {"0": "2", "1": "0"}},
    "reversed_offsets.json": {"alphabet": "01", "offsets": [1, -1],
                              "table": {}},
    "rule3.json": {"alphabet": "012", "offsets": [0, 0],
                   "table": {"0": "1", "1": "2", "2": "0"}},
    "edge.json": {"vertices": ["p", "q"], "faces": [["p", "q"]]},
    "hollow.json": {"vertices": [1, 2, 3],
                    "faces": [[1, 2], [2, 3], [1, 3]]},
    "no_vertices.json": {"vertices": [], "faces": []},
    "stray_vertex.json": {"vertices": ["p"], "faces": [["p", "q"]]},
    "empty_face.json": {"vertices": ["p"], "faces": [[]]},
    "dup_vertex.json": {"vertices": ["p", "p"], "faces": [["p", "p"]]},
    "list.json": [1, 2],
    "scalar.json": "x",
}
# raw texts that are not JSON objects, and paths that cannot be read
_FUZZ_RAW = {"truncated.json": '{"alphabet": "01", ', "blank.json": ""}

_FUZZ_VALUES = {
    "config": ["inf(0).inf(0)", "inf(01)1.0inf(01)", "inf(0).1inf(1)",
               "inf(011).inf(10)", "inf(2).inf(0)", "inf().inf(0)",
               "inf(01.inf(1)", "0.1", "inf(0)", "", "inf(ab).inf(a)"],
    "number": ["-1", "0", "1", "3", "1/2", "0.5", "x", "", "1/0", "-1/2",
               "1e3"],
    "word": ["0", "01", "", "2", "a", "012"],
    "ca": ["eca:30", "eca:204", "eca:256", "eca:x", "eca:", "eca:1e3"],
}
# the positional arguments of each (command, mode), by kind; "rule" is a
# CA literal or a file
_FUZZ_SIGNATURES = {
    ("dist", None): ("config", "config"), ("classify", None): ("rule",),
    ("complex", "extract"): ("file",), ("complex", "embed"): ("file", "file"),
    ("complex", "coords"): ("file", "config"),
    **{("path", mode): () for mode in ("prefix", "window", "sample")},
    ("path", "embed"): ("number", "number"),
    ("uap", "nearest"): ("file", "config"), ("uap", "search"): ("file",),
    **{("shift", mode): ("file",) for mode in (
        "compile", "cover", "components", "mixing", "sync-word", "entropy",
        "inside", "language")},
    ("shift", "contains"): ("file", "config"),
    ("measure", "parry"): ("file",), ("measure", "decay"): ("file",),
    ("measure", "cylinder"): ("file", "word"),
    ("measure", "binom-bound"): ("number",) * 3,
    ("measure", "growth-threshold"): ("number",) * 2,
    ("measure", "generic"): (),
    ("measure", "ball-count"): ("word", "number", "number"),
}
# each command's flags with their values (None for a switch), kept small
# so that every bounded search stays fast
_FUZZ_FLAGS = {
    "dist": {"--db": None, "--dw": None, "--dc": None, "--estimate": None,
             "--window": ["5", "-2", "x", "0", "3"], "--to-shift": "file"},
    "classify": {"--shift": "file", "--period": ["3", "-1", "x", "0", "2"],
                 "--precondition": None, "--zero": ["0", "2", "01", "1"],
                 "--length": ["2", "-1", "x", "0", "3"]},
    "complex": {},
    "path": {"--construction": ["block", "intersperse", "x"],
             "-r": ["1/3", "3/2", "-1", "x", "0", "1"],
             "--window": ["5", "-2", "x", "0", "3"]},
    "uap": {"--period": ["3", "-1", "x", "0", "2"]},
    "shift": {"--length": ["2", "-1", "x", "0", "3"]},
    "measure": {"--length": ["2", "-1", "x", "0", "3"]},
}
_FUZZ_COMMON = {"--json": None, "--seed": ["0", "-1", "x", "5"],
                "--alphabet": ["01", "", "ab", "0", "012"], "--out": "out"}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_cli")
    for name, d in _FUZZ_FILES.items():
        (root / name).write_text(json.dumps(d))
    for name, text in _FUZZ_RAW.items():
        (root / name).write_text(text)
    return [str(root / name) for name in (*_FUZZ_FILES, *_FUZZ_RAW)] + \
        [str(root), str(root / "missing.json")]


@st.composite
def cli_argv(draw, files):
    """A command and mode, usually with its positional arguments by kind
    (each drawn from the files and from well-formed and malformed
    literals), sometimes with any number of them or an unknown mode; then
    its own flags and the common ones with small or invalid values, and
    now and then another command's flag."""
    cmd, mode = draw(st.sampled_from(list(_FUZZ_SIGNATURES)))
    root = os.path.dirname(files[0])
    pools = {**_FUZZ_VALUES, "file": files,
             "rule": files + _FUZZ_VALUES["ca"],
             "out": [os.path.join(root, name) for name in (
                 "report.json", "missing/report.json", "")]}
    kinds = _FUZZ_SIGNATURES[cmd, mode]
    # hypothesis favours the ends of a range, so the rare branches take a
    # value from its middle
    if draw(st.integers(0, 9)) == 5:
        kinds = draw(st.lists(st.sampled_from(sorted(pools)), max_size=3))
    if mode is not None and draw(st.integers(0, 19)) == 10:
        mode = "bogus"
    argv = [cmd] + ([mode] if mode else [])
    argv += [draw(st.sampled_from(pools[k])) for k in kinds]
    flags = {**_FUZZ_FLAGS[cmd], **_FUZZ_COMMON}
    if draw(st.integers(0, 9)) == 5:
        flags.update(draw(st.sampled_from(list(_FUZZ_FLAGS.values()))))
    for flag in draw(st.lists(st.sampled_from(list(flags)), max_size=3,
                              unique=True)):
        values = flags[flag]
        argv += [flag] if values is None else \
            [flag, draw(st.sampled_from(
                pools[values] if isinstance(values, str) else values))]
    # the bounded searches run at a small period unless it was drawn above
    if cmd in ("classify", "uap") and "--period" not in argv:
        argv += ["--period", "3"]
    return argv


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.data())
def test_cli_fuzz_never_ends_in_a_traceback(fuzz_files, data):
    """Every run exits 0, 2, 3 or 4 with no traceback on stderr; exit 5
    (a broken invariant) fails too.  An uncaught exception fails the test
    with its argv."""
    argv = data.draw(cli_argv(fuzz_files))
    rc, err = _run_captured(argv)
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    assert "Traceback" not in err, argv
    assert "invalid literal" not in err, (argv, err)
