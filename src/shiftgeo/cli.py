"""Command-line front end.

Every command is deterministic given its flags and ``--seed`` and prints a
reproducible result section; ``--json`` emits a machine-readable run report
instead.  Exit codes: 0 success, 1 standard output closed by its reader,
2 input error, 3 precondition violation, 4 resource cap exceeded or out of
memory, 5 internal error (a broken invariant).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
import time
from fractions import Fraction

from . import __version__
from .configs import Alphabet, format_config, json_field, parse_config
from .errors import CapError, InputError, PreconditionError

# Each handler imports the library modules it calls, so a cold call
# compiles only what its command runs.


def _digest(path: str) -> str:
    import hashlib
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _load_json(path: str, from_dict):
    """from_dict of the JSON object in the file at path; an unreadable file,
    a device, another JSON value or a missing field is an InputError."""
    try:
        mode = os.stat(path).st_mode
        if stat.S_ISCHR(mode) or stat.S_ISBLK(mode):
            raise InputError(f"cannot read {path}: not a regular file or pipe")
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from e
    if not isinstance(d, dict):
        raise InputError(f"{path}: expected a JSON object, got "
                         f"{type(d).__name__}")
    try:
        return from_dict(d)
    except KeyError as e:
        raise InputError(f"{path}: missing field {e}") from e


def _shift_from_dict(d: dict) -> shifts.ShiftPresentation:
    """Accepts both presentation files and SFT spec files."""
    from . import shifts
    if "forbidden" not in d:
        return shifts.ShiftPresentation.from_dict(d)
    return shifts.compile_sft(shifts.SftSpec(
        Alphabet(json_field(d, "alphabet", (str, list))),
        tuple(json_field(d, "forbidden", list, str))))


def load_shift(path: str) -> shifts.ShiftPresentation:
    return _load_json(path, _shift_from_dict)


def load_ca(spec: str) -> automata.CellularAutomaton:
    from . import automata
    if spec.startswith("eca:"):
        rule = _integer(spec[4:])
        try:
            return automata.elementary_ca(rule)
        except ValueError as e:
            raise InputError(str(e)) from e
    return _load_json(spec, automata.CellularAutomaton.from_dict)


def _frac(x: Fraction) -> str:
    num = f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)
    return f"{num} ~ {float(x):.12g}"


def _frac_json(x: Fraction):
    return {"num": x.numerator, "den": x.denominator, "float": float(x)}


class Report:
    def __init__(self, args, inputs):
        self.started = time.monotonic()
        self.data = {
            "command": " ".join(args),
            "inputs": inputs,
            "result": {},
            "version": __version__,
        }
        self.lines: list[str] = []

    def put(self, key, value, line: str | None = None):
        self.data["result"][key] = value
        if line is not None:
            self.lines.append(line)

    def emit(self, ns) -> None:
        self.data["timing_ms"] = round(
            (time.monotonic() - self.started) * 1000, 3)
        text = "\n".join(self.lines)
        payload = json.dumps(self.data, indent=2, sort_keys=True)
        if ns.out:
            try:
                with open(ns.out, "w") as fh:
                    fh.write(payload + "\n")
            except OSError as e:
                raise InputError(
                    f"cannot write {ns.out}: {e.strerror or e}") from e
        if ns.json:
            print(payload)
        elif text:
            print(text)


def _alphabet_from(ns) -> Alphabet:
    return Alphabet("01" if ns.alphabet is None else ns.alphabet)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"{text!r} is not a rational number") from e


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as e:
        raise InputError(f"{text!r} is not an integer") from e


# every (command, mode), in the order each command lists its modes, with
# the positional arguments it takes; None for `path embed`, whose one or
# more coordinates paths.embed_point checks
_ARGS = {
    ("complex", "extract"): "FILE", ("complex", "embed"): "COMPLEX FILE",
    ("complex", "coords"): "FILE CONFIG",
    ("path", "prefix"): "", ("path", "window"): "", ("path", "embed"): None,
    ("path", "sample"): "",
    ("uap", "nearest"): "FILE CONFIG", ("uap", "search"): "FILE",
    **{("shift", mode): "FILE" for mode in (
        "compile", "cover", "components", "mixing", "sync-word", "entropy",
        "inside", "language")},
    ("shift", "contains"): "FILE CONFIG",
    ("measure", "parry"): "FILE", ("measure", "cylinder"): "FILE WORD",
    ("measure", "decay"): "FILE", ("measure", "binom-bound"): "N M P",
    ("measure", "growth-threshold"): "K A", ("measure", "generic"): "",
    ("measure", "ball-count"): "WORD N EPS",
}


def _modes(cmd: str) -> list[str]:
    return [mode for (c, mode) in _ARGS if c == cmd]


def _check_arg_count(ns) -> None:
    names = _ARGS.get((ns.cmd, getattr(ns, "mode", None)))
    if names is not None and len(ns.args) != len(names.split()):
        raise InputError(f"{ns.cmd} {ns.mode} takes "
                         f"{names or 'no arguments'}, got {len(ns.args)} "
                         f"argument(s)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_dist(ns, rep: Report) -> None:
    from . import metrics
    ab = _alphabet_from(ns)
    if ns.to_shift:
        conflict = [flag for flag, on in (("--dw", ns.dw), ("--dc", ns.dc),
                                          ("--estimate", ns.estimate)) if on]
        if conflict:
            raise InputError(f"dist --to-shift gives the Besicovitch distance "
                             f"only and cannot take {', '.join(conflict)}")
        if len(ns.args) != 1:
            raise InputError(f"dist --to-shift takes one configuration, "
                             f"got {len(ns.args)}")
        Y = load_shift(ns.to_shift)
        x = parse_config(ns.args[0], Y.alphabet)
        d = metrics.distance_to_shift(x, Y)
        rep.put("distance", _frac_json(d), f"distance to shift: {_frac(d)}")
        return
    if len(ns.args) != 2:
        raise InputError(f"dist needs two configurations, got {len(ns.args)}")
    x = parse_config(ns.args[0], ab)
    y = parse_config(ns.args[1], ab)
    if ns.estimate:
        d = metrics.density_estimate(x, y, ns.window)
        rep.put("estimate", _frac_json(d),
                f"window density (N={ns.window}): {_frac(d)}")
        return
    kind = "dw" if ns.dw else ("dc" if ns.dc else "db")
    fn = {"db": metrics.d_besicovitch, "dw": metrics.d_weyl,
          "dc": metrics.d_cantor}[kind]
    d = fn(x, y)
    rep.put(kind, _frac_json(d), f"{kind}: {_frac(d)}")


def _witness_json(x, y, d_in: Fraction, d_out: Fraction) -> dict:
    return {"x": format_config(x), "y": format_config(y),
            "d_in": _frac_json(d_in), "d_out": _frac_json(d_out)}


def cmd_classify(ns, rep: Report) -> None:
    from . import automata
    if ns.precondition:
        if not ns.shift:
            raise InputError("--precondition requires --shift")
        X = load_shift(ns.shift)
        res = automata.isometric_ca_precondition(
            X, ns.zero, ns.length, ns.period)
        rep.put("passed", res.passed,
                f"precondition: {'pass' if res.passed else 'fail'}")
        if res.failing:
            rep.put("failing", list(res.failing),
                    f"failing pair: {res.failing}")
        return
    if not ns.ca:
        raise InputError("classify needs a CA argument")
    f = load_ca(ns.ca)
    if ns.shift:
        X = load_shift(ns.shift)
        chk = automata.check_on_subshift(f, X, ns.period)
        for prop in ("contracting", "isometric", "expanding"):
            w = getattr(chk, prop)
            rep.put(prop, w is None, chk.verdict(prop))
            if w is not None:
                rep.put(prop + "_witness",
                        _witness_json(w.x, w.y, w.d_in, w.d_out))
        return
    c = automata.classify_full_shift(f)
    rep.put("essential_offsets", list(c.neighborhood.essential))
    rep.put("contracting", c.contracting)
    rep.put("isometric", c.isometric)
    rep.put("expanding", c.expanding)
    rep.lines.append(
        f"offsets {list(c.neighborhood.essential)}; "
        f"contracting={c.contracting} isometric={c.isometric} "
        f"expanding={c.expanding}")
    if c.decomposition:
        off, g = c.decomposition
        rep.put("decomposition", {"shift": off, "map": g},
                f"decomposition: shift {off}, map {g}")
    if c.witness:
        x, y, din, dout = c.witness
        rep.put("witness", _witness_json(x, y, din, dout),
                f"witness: {format_config(x)} vs {format_config(y)}: "
                f"{_frac(din)} -> {_frac(dout)}")


def cmd_complex(ns, rep: Report) -> None:
    from . import homotopy
    if ns.mode == "extract":
        X = load_shift(ns.args[0])
        ext = homotopy.extract_complex(X)
        rep.put("complex", ext.complex.to_dict())
        rep.put("poset", [
            {"name": e.name,
             "components": sorted(e.component_set),
             "states": len(e.shift.states)} for e in ext.poset.elements])
        k = ext.complex
        rep.lines.append(
            f"{len(k.vertices)} vertices, "
            f"{len(k.faces_of_size(2))} edges, "
            f"{len(k.faces_of_size(3))} triangles; "
            f"dimension {k.dimension()}")
    elif ns.mode == "embed":
        K = _load_json(ns.args[0], homotopy.AbstractComplex.from_dict)
        X = load_shift(ns.args[1])
        emb = homotopy.embed_complex(K, X)
        rep.put("marker", emb.marker)
        rep.put("filler", emb.filler)
        rep.put("vertex_words", {str(k): v
                                 for k, v in emb.vertex_words.items()})
        rep.put("faces", [
            {"face": sorted(map(str, face)), "shift": Y.to_dict()}
            for face, Y in sorted(emb.face_shifts.items(),
                                  key=lambda kv: (len(kv[0]),
                                                  sorted(map(str, kv[0]))))])
        rep.lines.append(
            f"marker {emb.marker!r}, filler {emb.filler!r}, "
            f"vertex words {emb.vertex_words}")
    else:  # coords
        X = load_shift(ns.args[0])
        ext = homotopy.extract_complex(X)
        x = parse_config(ns.args[1], X.alphabet)
        pt = homotopy.complex_coordinates(x, ext)
        rep.put("weights", {v: _frac_json(w) for v, w in pt.weights})
        rep.lines.append("barycentric point: " + ", ".join(
            f"{v}: {_frac(w)}" for v, w in pt.weights))


def cmd_path(ns, rep: Report) -> None:
    from . import paths
    if ns.mode in ("prefix", "window") and ns.r is None:
        raise InputError(f"path {ns.mode} needs -r RATIONAL")
    r = _rational(ns.r) if ns.r is not None else None
    n = ns.window
    if ns.mode == "embed":
        w = paths.embed_point([_rational(t) for t in ns.args], n)
    elif ns.mode == "sample":
        w = paths.sample_block_path(ns.seed, n)
    else:  # prefix, window
        w = getattr(paths, f"{ns.construction}_path_{ns.mode}")(r, n)
    rep.put("word", w, w)
    if ns.mode == "sample":
        zero = Fraction(w.count("0"), len(w))
        rep.put("zero_density", _frac_json(zero),
                f"zero density {_frac(zero)}")


def cmd_uap(ns, rep: Report) -> None:
    from . import metrics
    X = load_shift(ns.args[0])
    if ns.mode == "nearest":
        y = parse_config(ns.args[1], X.alphabet)
        ms = metrics.nearest_periodic(X, y, ns.period)
        rep.put("distance", _frac_json(ms.distance))
        rep.put("minimizers", [format_config(z) for z in ms.minimizers])
        rep.lines.append(
            f"distance {_frac(ms.distance)}; minimizers: "
            + ", ".join(format_config(z) for z in ms.minimizers))
    else:
        v = metrics.unique_approximation_search(X, ns.period)
        rep.put("violation", v.violation)
        if v.violation:
            rep.put("witness", format_config(v.witness))
            rep.put("distance", _frac_json(v.distance))
            rep.put("minimizers", [format_config(z) for z in v.minimizers])
        rep.lines.append(str(v))


def cmd_shift(ns, rep: Report) -> None:
    from . import shifts
    mode = ns.mode
    X = load_shift(ns.args[0])
    if mode == "compile":
        rep.put("presentation", X.to_dict(),
                f"{len(X.states)} states, {len(X.edges)} edges")
    elif mode == "cover":
        C = shifts.shannon_cover(X)
        rep.put("cover", C.to_dict(),
                f"cover: {len(C.states)} states, {len(C.edges)} edges")
    elif mode == "components":
        dec = shifts.transitive_components(X)
        rep.put("components", [c.to_dict() for c in dec.components],
                f"{len(dec.components)} transitive component(s)")
    elif mode == "mixing":
        m = shifts.mixing_distance(X)
        rep.put("mixing_distance", m, f"mixing distance {m}")
    elif mode == "sync-word":
        cap = 16 if ns.length is None else ns.length
        w = shifts.find_unbordered_synchronizing(X, cap=cap)
        rep.put("word", w, f"unbordered synchronizing word: {w!r}")
    elif mode == "entropy":
        pos = shifts.positive_entropy(X)
        rep.put("positive_entropy", pos, f"positive entropy: {pos}")
    elif mode == "inside":
        res = shifts.mixing_sft_inside(X)
        rep.put("w", res.w)
        rep.put("u", res.u)
        rep.put("v", res.v)
        rep.put("shift", res.shift.to_dict())
        rep.lines.append(f"w={res.w!r} u={res.u!r} v={res.v!r}")
    elif mode == "language":
        words = shifts.language(X, 3 if ns.length is None else ns.length)
        rep.put("words", words, " ".join(words))
    else:  # contains
        x = parse_config(ns.args[1], X.alphabet)
        res = shifts.contains_config(X, x)
        rep.put("contains", res, str(res))


def cmd_measure(ns, rep: Report) -> None:
    from . import measures
    mode = ns.mode
    if mode in ("parry", "cylinder", "decay"):
        X = load_shift(ns.args[0])
        mu = measures.parry_measure(X)
        if mode == "parry":
            report = mu.report()
            rep.put("measure", report,
                    f"eigenvalue {mu.eigenvalue:.12g}; residuals "
                    f"{report['stationarity_residual']:.2e}")
        elif mode == "cylinder":
            w = ns.args[1]
            p = measures.cylinder(mu, w)
            rep.put("cylinder", p, f"mu([{w}]) = {p:.12g}")
        else:
            cert = measures.cylinder_decay_bound(
                mu, 12 if ns.length is None else ns.length)
            rep.put("gamma", _frac_json(cert.gamma))
            rep.put("t", cert.t)
            rep.put("verified_length", cert.verified_length)
            rep.lines.append(
                f"gamma ~ {float(cert.gamma):.6g}, t = {cert.t}, "
                f"verified to length {cert.verified_length}")
    elif mode == "binom-bound":
        n, m, p = map(_integer, ns.args)
        ok = measures.verify_binomial_bound(n, m, p)
        rep.put("holds", ok, f"bound holds: {ok}")
    elif mode == "growth-threshold":
        k, a = _rational(ns.args[0]), _rational(ns.args[1])
        m, n0 = measures.binomial_growth_threshold(k, a)
        rep.put("m", m)
        rep.put("n0", n0)
        rep.lines.append(f"m = {m}, verified from n0 = {n0}")
    elif mode == "generic":
        ab = _alphabet_from(ns)
        w = measures.bernoulli_prefix(
            ab, ns.seed, 64 if ns.length is None else ns.length)
        rep.put("word", w, w)
    else:  # ball-count
        w = ns.args[0]
        n = _integer(ns.args[1])
        eps = _rational(ns.args[2])
        count, bound, ok = measures.hamming_ball_count(w, n, eps)
        rep.put("count", count)
        rep.put("bound", bound)
        rep.put("ok", ok)
        rep.lines.append(f"count {count} <= bound {bound}: {ok}")


# ---------------------------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    # shared flags, usable before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit a JSON run report")
    common.add_argument("--out", metavar="FILE", default=argparse.SUPPRESS,
                        help="also write the report to a file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--alphabet", default=argparse.SUPPRESS,
                        help="alphabet for configuration literals")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    ap = argparse.ArgumentParser(
        prog="shiftgeo",
        description="exact geometry of shift spaces in the density "
                    "pseudometrics",
        parents=[common])
    sub = ap.add_subparsers(dest="cmd", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[common], **kw))

    p = sub.add_parser("dist", help="distances between configurations")
    metric = p.add_mutually_exclusive_group()
    for flag in ("--db", "--dw", "--dc"):
        metric.add_argument(flag, action="store_true")
    p.add_argument("--estimate", action="store_true",
                   help="finite centered-window estimate over --window N")
    p.add_argument("--window", type=int, default=1000, metavar="N")
    p.add_argument("--to-shift", metavar="FILE")
    p.add_argument("args", nargs="+")

    p = sub.add_parser("classify", help="cellular automaton geometry")
    p.add_argument("ca", nargs="?")
    p.add_argument("--shift", metavar="FILE")
    p.add_argument("--period", type=int, default=8)
    p.add_argument("--precondition", action="store_true")
    p.add_argument("--zero", default="0")
    p.add_argument("--length", type=int, default=4)

    p = sub.add_parser("complex", help="simplicial complex translations")
    p.add_argument("mode", choices=_modes("complex"))
    p.add_argument("args", nargs="+")

    p = sub.add_parser("path", help="path constructions and sampling")
    p.add_argument("mode", choices=_modes("path"))
    p.add_argument("--construction", choices=["intersperse", "block"],
                   default="block")
    p.add_argument("-r", help="rational parameter in [0, 1]")
    p.add_argument("--window", type=int, default=32, metavar="N")
    p.add_argument("args", nargs="*")

    p = sub.add_parser("uap", help="nearest periodic points and the unique "
                                   "approximation property")
    p.add_argument("mode", choices=_modes("uap"))
    p.add_argument("--period", type=int, default=8)
    p.add_argument("args", nargs="+")

    p = sub.add_parser("shift", help="sofic shift machinery")
    p.add_argument("mode", choices=_modes("shift"))
    p.add_argument("--length", type=int)
    p.add_argument("args", nargs="+")

    p = sub.add_parser("measure", help="Markov measures and exact bounds")
    p.add_argument("mode", choices=_modes("measure"))
    p.add_argument("--length", type=int)
    p.add_argument("args", nargs="*")
    return ap


# argparse's own test for a negative number, which it reads as a positional
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _parse(ap: argparse.ArgumentParser, argv: list):
    """``ap.parse_args(argv)``, except that positionals after an option join
    the subcommand's ``args`` list, in order.  argparse matches that list
    against the positionals before the first option (a "*" list even when
    there are none), so later ones are left over; anything else left over
    is an error, as in ``parse_args``."""
    ns, extra = ap.parse_known_args(argv)
    if extra and hasattr(ns, "args") and not any(
            t[:1] == "-" and t != "-" and not _NEGATIVE_NUMBER.fullmatch(t)
            for t in extra):
        ns.args = ns.args + extra
    elif extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    return ns


_HANDLERS = {
    "dist": cmd_dist,
    "classify": cmd_classify,
    "complex": cmd_complex,
    "path": cmd_path,
    "uap": cmd_uap,
    "shift": cmd_shift,
    "measure": cmd_measure,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        ns = _parse(ap, argv)
    except SystemExit as e:
        return 2 if e.code else 0
    for attr, default in (("json", False), ("out", None), ("seed", 0),
                          ("alphabet", None)):
        if not hasattr(ns, attr):
            setattr(ns, attr, default)
    inputs = {}
    for a in argv:
        # only a regular file: a pipe would be drained before its command
        # reads it, and a device read without end
        try:
            if stat.S_ISREG(os.stat(a).st_mode):
                inputs[a] = _digest(a)
        except OSError:
            pass
    rep = Report(["shiftgeo"] + argv, inputs)
    try:
        _check_arg_count(ns)
        _HANDLERS[ns.cmd](ns, rep)
        rep.emit(ns)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 4
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return 4
    except (AssertionError, RuntimeError) as e:  # a broken invariant
        print(f"internal error: {e}", file=sys.stderr)
        return 5
    except PreconditionError as e:
        print(f"precondition violation: {e}", file=sys.stderr)
        return 3
    except (InputError, ValueError, IndexError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
