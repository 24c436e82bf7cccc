"""Batch command-line interface.

One command per process; a single structured JSON report on stdout, human
logs on stderr.  Exit codes: 0 success, 1 parse/usage, 2 hypothesis or
contract violation, 3 cap exceeded, 4 internal error: any exception that is
not a domain error, such as a failed self-check (an LP optimum whose dual
certificate does not verify).  Rationals are emitted as exact "p/q" strings.
Reports for a fixed input and seed are byte-identical; wall-clock timing
goes to stderr unless --timing asks for it in the report.

The cyclic garbage collector is off while a command runs and is put back
as the caller had it afterwards.  A command runs once per process, and its
bulk (edge tuples, dicts of edges, integer masks) holds no reference
cycles, so the collector's passes over it free nothing.

tcg format: line 1 "tcg 1"; line 2 "k=<int> n=<int>"; then one edge per
line "<R|B> v1 ... vk" with strictly increasing vertices; "#" starts a
comment; UTF-8 with LF line endings.  Each rule is checked once: the parser
checks the header, the letters, the integers and the arity of each block of
lines, and `hypergraph.build` checks k >= 2 and n >= k, then the order and
range of each block's vertices; a block that fails, and every block after
one out of canonical order, is scanned line by line and built edge by
edge, which finds the first faulty line.
"""
from __future__ import annotations

import argparse
import functools
import gc
import io
import itertools
import json
import operator
import re
import sys
import time
from enum import Enum
from fractions import Fraction

from . import blowup as blowup_mod
from . import blueprint as blueprint_mod
from . import extremal as extremal_mod
from . import hypergraph as hypergraph_mod
from . import matchings as matchings_mod
from .augment import (AugmentationState, DriverParams, augment_once, growth_setup,
                      initial_matching, run_driver)
from .errors import (MalformedEdge, ParseError, SearchCapExceeded, SizeCapExceeded,
                     TcrError, Unsupported, UsageError)
from .extremal import TargetSpec
from .hypergraph import LETTER_COLOUR, Colour, ColouredKGraph, _Blocks, build, canon_edge
from .tight import monochromatic_components, tight_components

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

PARAM_NAMES = ("eps", "gamma", "delta", "eta", "c")   # DriverParams, in order

# defaults of the options that some mode of their command does not read, and
# those options per (command, mode): given another value there, they are a
# usage error rather than silently ignored
DEFAULTS = {"host": "all", "component": None, "s": 1, "beta": Fraction(1, 100), "i": 0}
UNREAD = {("match", "mu"): ("component", "host"),
          ("match", "exact"): ("s", "beta"),
          ("match", "lp"): ("s", "beta"),
          ("extremal", "split"): ("i",)}

# (exception classes, exit code, stderr label) for a failed command; the
# first row that matches wins
FAILURES = (
    ((ParseError, UsageError, FileNotFoundError), EXIT_USAGE, "error"),
    ((SearchCapExceeded, SizeCapExceeded), EXIT_CAP, "cap exceeded"),
    ((TcrError,), EXIT_CONTRACT, "violation"),
    ((Exception,), EXIT_INTERNAL, "internal error"),
)


LETTERS = {"R", "B"}


def _block_tokens(block: list, k: int, table: dict):
    """The letters and integer vertices of a block of body lines, each with
    its line ending, in the plain layout that serialize writes, or None
    when some line needs the per-line scan.

    The block passes when it holds no "#", every non-empty line starts
    "R " or "B ", the letter slots (every (k+1)-th token) are the line
    starts and every other token is an integer.  A line with the wrong
    arity moves a letter out of its slot or breaks the token count.  Order
    and range are `build`'s one block check.

    Vertices are read through `table`, the parse's str -> int map of the
    plain decimal vertices; a block with any other token ("07", "+7", a
    vertex beyond the table) is converted by `int` instead, so every value
    and every error is `int`'s."""
    chunk = "".join(block)
    if "#" in chunk:
        return None
    # a line starts at a slot iff it starts with a letter; the empty lines
    # start none
    lined = "\n" + chunk
    starts = lined.count("\nR ") + lined.count("\nB ")
    if starts != len(block) - block.count("\n"):
        return None
    tokens = chunk.split()
    letters = tokens[::k + 1]
    del tokens[::k + 1]
    if (len(tokens) != k * len(letters) or len(letters) != starts
            or not LETTERS.issuperset(letters)):
        return None
    try:
        return letters, list(map(table.__getitem__, tokens))
    except KeyError:
        pass
    try:
        return letters, list(map(int, tokens))
    except ValueError:
        return None


def _scanned_lines(block: list, lineno: int, k: int, n: int):
    """The (letter, edge) pairs of a block of body lines whose first line is
    `lineno`, checked line by line; the first faulty line raises ParseError."""
    for lineno, raw in enumerate(block, start=lineno):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] not in LETTERS:
            raise ParseError(f"colour must be R or B, got {fields[0]!r}", lineno)
        try:
            verts = tuple(map(int, fields[1:]))
        except ValueError:
            line = raw.split("#", 1)[0].strip()
            raise ParseError(f"non-integer vertex in {line!r}", lineno) from None
        if any(map(operator.ge, verts, verts[1:])):
            raise ParseError("vertices must be strictly increasing", lineno)
        try:
            canon_edge(verts, k, n)
        except MalformedEdge as exc:
            raise ParseError(str(exc), lineno) from None
        yield fields[0], verts


def parse_coloured_hypergraph(source) -> ColouredKGraph:
    """Parse the tcg format from its text or from any iterable of its lines
    with their endings (an open file); failures carry the offending line
    number.

    The body is streamed: it is read `hypergraph.BLOCK` lines at a time, a
    `str` through `io.StringIO`, so no list of all lines, and from a file
    not the text either, is alive while `build` runs.  The parser checks a
    block's tokens as a whole (`_block_tokens`: layout, letters, integers,
    arity) and hands the letters and integers to `build`, which checks
    order and range once (`hypergraph._columns`) and rejects an edge given
    in both colours.  Vertex tokens are read through one str -> int table
    of the plain decimals up to min(n, body lines read so far), so its size
    follows the input; a block with any other token is read by `int`.  A
    block that fails either check, and every block after one out of
    canonical order, is scanned line by line, which raises at the first
    faulty line; a block after one out of canonical order skips the token
    check, whose result it would not read.  So a line fault is reported at
    the first faulty line, and a colour conflict only when no line before
    it in its block or an earlier one is faulty."""
    lines = io.StringIO(source) if isinstance(source, str) else iter(source)
    header = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            header.append((lineno, stripped))
            if len(header) == 2:
                break
    if not header:
        raise ParseError("empty input")
    lineno, first = header[0]
    if first != "tcg 1":
        raise ParseError(f"expected 'tcg 1' header, got {first!r}", lineno)
    if len(header) < 2:
        raise ParseError("missing 'k=... n=...' line", lineno)
    lineno, dims = header[1]
    parts = dims.split()
    if (len(parts) != 2 or not parts[0].startswith("k=")
            or not parts[1].startswith("n=")):
        raise ParseError(f"expected 'k=<int> n=<int>', got {dims!r}", lineno)
    try:
        k = int(parts[0][2:])
        n = int(parts[1][2:])
    except ValueError:
        raise ParseError(f"non-integer dimensions in {dims!r}", lineno) from None

    table = {}

    def flattened(block):
        tokens = _block_tokens(block, k, table)
        if tokens is None:
            return None, None, None
        letters, verts = tokens
        return map(LETTER_COLOUR.__getitem__, letters), None, verts

    def blocks():
        size = hypergraph_mod.BLOCK
        start = lineno   # the lines read before the block
        for block in iter(lambda: list(itertools.islice(lines, size)), []):
            top = min(n, start + len(block) - lineno)   # body lines read so far
            table.update((str(v), v) for v in range(len(table) + 1, top + 1))
            yield functools.partial(flattened, block), _scanned_lines(block, start + 1, k, n)
            start += len(block)

    try:
        return build(k, n, _Blocks(blocks()))
    except MalformedEdge as exc:   # only the dimensions: the edges were checked above
        raise ParseError(str(exc), lineno) from None


def serialize_coloured_hypergraph(CH: ColouredKGraph) -> str:
    """The canonical tcg text: the sorted edges, each lettered by a merge
    with the red class (a subsequence of them), so no colour dict is read."""
    lines = ["tcg 1", f"k={CH.k} n={CH.n}"]
    reds = iter(CH.edges_of(Colour.RED))
    red = next(reds, None)
    for e in CH.graph.sorted_edges:
        if e == red:
            letter, red = "R ", next(reds, None)
        else:
            letter = "B "
        lines.append(letter + " ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def to_jsonable(obj):
    """A JSON-ready copy: Fractions as "p/q", enums by value, tuples as lists
    and tuple keys as their space-joined vertices.  `emit` sorts the keys."""
    if isinstance(obj, Fraction):
        return rat(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {" ".join(map(str, k)) if isinstance(k, tuple) else str(k): to_jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def emit(report: dict, timing_ms=None) -> None:
    report = dict(report)
    report["timing_ms"] = timing_ms
    sys.stdout.write(json.dumps(to_jsonable(report), sort_keys=True,
                                separators=(",", ":")) + "\n")


def _load(path: str) -> ColouredKGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coloured_hypergraph(fh)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _require(ok: bool, message: str) -> None:
    """A parameter value the command cannot take is a usage error."""
    if not ok:
        raise UsageError(message)


def _host_edges(CH: ColouredKGraph, host: str, component):
    if component is not None:
        _require(host == DEFAULTS["host"], "--component takes no --host")
        decomp = monochromatic_components(CH)
        if not 0 <= component < len(decomp.components):
            raise Unsupported(
                f"component {component} outside 0..{len(decomp.components) - 1}")
        return decomp._sorted[component]
    if host == "all":
        return CH.graph.sorted_edges
    colour = Colour.RED if host == "red" else Colour.BLUE
    return CH.edges_of(colour)


def _reject_unread(args) -> None:
    for name in UNREAD.get((args.command, args.mode), ()):
        _require(getattr(args, name) == DEFAULTS[name],
                 f"{args.command} {args.mode} takes no --{name}")


class _Parser(argparse.ArgumentParser):
    """Raises UsageError, so that a usage error still gets a JSON report."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tcr", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock milliseconds in the report "
                        "(breaks byte-for-byte reproducibility)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("components", help="tight / monochromatic components")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mono", action="store_true",
                    help="decompose the two colour classes separately")

    sp = sub.add_parser("match", help="matchings: exact, lp, or mu estimate")
    sp.add_argument("mode", choices=["exact", "lp", "mu"])
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--host", choices=["all", "red", "blue"], default=DEFAULTS["host"])
    sp.add_argument("--component", type=int)
    sp.add_argument("--s", type=int, default=DEFAULTS["s"])
    sp.add_argument("--beta", type=_fraction_arg, default=DEFAULTS["beta"])

    sp = sub.add_parser("blueprint", help="build a blueprint and check it")
    sp.add_argument("mode", choices=["build", "check"])
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--eps", type=_fraction_arg, required=True)

    sp = sub.add_parser("blowup", help="r-blow-up with verification counts")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--r", type=int, required=True)

    for command, text in (("augment", "initial matching plus one growth step"),
                          ("driver", "full matching-growth driver")):
        sp = sub.add_parser(command, help=text)
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--seed", type=int, required=True)
        for name in PARAM_NAMES:
            sp.add_argument(f"--{name}", type=_fraction_arg,
                            default=getattr(DriverParams, name))

    sp = sub.add_parser("extremal", help="extremal colourings and verification")
    sp.add_argument("mode", choices=["split", "parity"])
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--i", type=int, default=DEFAULTS["i"])
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--len", dest="length", type=int)
    sp.add_argument("--out", help="write the colouring to this tcg file")

    sp = sub.add_parser("ramsey", help="tiny-scale exhaustive Ramsey search")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--target", required=True,
                    help="c<len> for a tight cycle or p<len> for a tight path")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--no-seeds", action="store_true",
                    help="skip the extremal-colouring fast path")
    for sp in sub.choices.values():   # --timing is also accepted after the command
        sp.add_argument("--timing", action="store_true", default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    return p


def _cmd_components(args) -> dict:
    CH = _load(args.infile)
    decomp = monochromatic_components(CH) if args.mono else tight_components(CH.graph)
    comps = []
    for cid, comp in enumerate(decomp._sorted):
        entry = {"id": cid, "edges": len(comp), "support": decomp.support(cid)}
        if decomp.colour_of is not None:
            entry["colour"] = decomp.colour(cid).value
        comps.append(entry)
    return {"result": {"components": comps, "count": len(comps)}}


def _cmd_match(args) -> dict:
    _reject_unread(args)
    CH = _load(args.infile)
    if args.mode == "mu":
        est = matchings_mod.mu_estimate(CH, args.s, args.beta)
        return {"result": {"value": est.value, "exact": est.exact,
                           "components": est.components}}
    host = _host_edges(CH, args.host, args.component)
    if args.mode == "exact":
        cert = matchings_mod.max_matching_exact(host)
        return {"result": {"size": cert.size, "edges": cert.edges,
                           "optimal": cert.optimal, "nodes": cert.nodes}}
    phi, dual = matchings_mod.max_fractional_lp(host)
    return {"result": {"weight": phi.weight(), "weights": phi.weights, "dual": dual}}


def _cmd_blueprint(args) -> dict:
    _require(args.eps >= 0, f"--eps must be >= 0, got {args.eps}")
    CH = _load(args.infile)
    res = blueprint_mod.build_blueprint(CH, args.eps)
    check = blueprint_mod.check_blueprint(CH, res.blueprint)
    out = {"coverage": len(res.blueprint.assign), "omitted": res.omitted,
           "discarded": res.discarded,
           "blueprint_eps": res.blueprint.eps,
           "min_degree": res.blueprint.min_degree(),
           "check_ok": check.ok, "violations": check.violations}
    if args.mode == "build":
        out["assign"] = res.blueprint.assign
    return {"result": out}


def _cmd_blowup(args) -> dict:
    _require(args.r >= 1, f"--r must be >= 1, got {args.r}")
    CH = _load(args.infile)
    blown, bmap = blowup_mod.blow_up(CH, args.r)
    base_comps = monochromatic_components(CH)
    blown_comps = monochromatic_components(blown)
    return {"result": {
        "base_edges": CH.graph.m, "blown_edges": blown.graph.m,
        "r": args.r, "expected_edges": CH.graph.m * args.r ** CH.k,
        "base_components": len(base_comps.components),
        "blown_components": len(blown_comps.components)}}


def _params(args) -> DriverParams:
    chain = [("0", 0), *((f"--{name}", getattr(args, name)) for name in PARAM_NAMES[:4]),
             ("1", 1)]
    for (low, x), (high, y) in zip(chain, chain[1:]):
        _require(x < y, f"need {low} < {high}, got {x} >= {y}")
    return DriverParams(*(getattr(args, name) for name in PARAM_NAMES))


def _cmd_augment(args) -> dict:
    import random
    params = _params(args)
    work, swapped, bp, R_id, _ = growth_setup(_load(args.infile), params)
    rng = random.Random(args.seed)
    init = initial_matching(work, bp, R_id, params, rng)
    colour = init.colour.opposite if swapped else init.colour
    out = {"colour_swapped": swapped,
           "initial": {"status": init.status, "kind": init.kind,
                       "size": len(init.matching),
                       "colour": colour, "trace": init.trace}}
    if init.status == "ok":
        state = AugmentationState(init.matching, init.colour, init.component)
        step = augment_once(work, bp, R_id, state, params, rng)
        out["step"] = {"status": step.status, "weight": step.fractional.weight(),
                       "trace": step.trace}
    return {"result": out}


def _cmd_driver(args) -> dict:
    params = _params(args)
    rep = run_driver(_load(args.infile), params, args.seed)
    return {"result": {
        "status": rep.status, "n_vertices": rep.n_vertices,
        "n_scale": rep.n_scale, "target": rep.target,
        "colour_swapped": rep.colour_swapped,
        "initial_kind": rep.initial_kind, "iterations": rep.iterations,
        "weight": rep.best.weight(), "colour": rep.final_colour,
        "component": rep.final_component, "reached": rep.status == "reached",
        "min_weight_ok": rep.min_weight_ok, "support_good": rep.support_good,
        "weights": rep.best.weights, "trace": rep.trace}}


def _cmd_extremal(args) -> dict:
    _reject_unread(args)
    _require(args.k >= 2, f"--k must be >= 2, got {args.k}")
    # parity with i = 0 and n = 1 would have N = k - 1 vertices
    least_n = 1 if args.mode == "parity" and args.i != 0 else 2
    _require(args.n >= least_n, f"--n must be >= {least_n}, got {args.n}")
    _require(0 <= args.i < args.k, f"--i must be in 0..{args.k - 1}, got {args.i}")
    length = args.k * args.n + args.i
    _require(args.length in (None, length), f"--len must be k*n + i = {length}, got {args.length}")
    if args.mode == "split":
        CH, spec = extremal_mod.split_coloring(args.k, args.n)
    else:
        CH, spec = extremal_mod.parity_coloring(args.k, args.n, args.i)
    red = len(CH.edges_of(Colour.RED))
    out = {"kind": spec.kind, "k": spec.k, "n": spec.n, "i": spec.i, "d": spec.d,
           "N": spec.N, "X": spec.X, "Y": spec.Y,
           "red_edges": red, "blue_edges": CH.graph.m - red}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_coloured_hypergraph(CH))
        out["written"] = args.out
    if args.verify:
        cert = extremal_mod.verify_no_mono_cycle(CH, spec)
        out["certificate"] = {"ok": cert.ok, "method": cert.method, "length": length,
                              "details": cert.details,
                              "witness": cert.witness}
    return {"result": out}


def _cmd_ramsey(args) -> dict:
    _require(args.k >= 2, f"--k must be >= 2, got {args.k}")
    _require(args.N >= args.k, f"--N must be >= --k = {args.k}, got {args.N}")
    form = re.fullmatch(r"([cp])([0-9]+)", args.target)
    _require(form is not None, f"--target must look like c6 or p5, got {args.target!r}")
    kind = "cycle" if form[1] == "c" else "path"
    length, least = int(form[2]), args.k + 1 if kind == "cycle" else args.k
    _require(length >= least,
             f"--target {kind} length must be >= {least} for k = {args.k}, got {length}")
    res = extremal_mod.ramsey_search_tiny(args.k, TargetSpec(kind, length), args.N,
                                          allow_seeds=not args.no_seeds)
    out = {"all_coloured": res.all_coloured, "nodes": res.nodes,
           "prunes": res.prunes, "seeded": res.seeded}
    if res.counterexample is not None:
        out["counterexample"] = serialize_coloured_hypergraph(res.counterexample)
    return {"result": out}


HANDLERS = {
    "components": _cmd_components,
    "match": _cmd_match,
    "blueprint": _cmd_blueprint,
    "blowup": _cmd_blowup,
    "augment": _cmd_augment,
    "driver": _cmd_driver,
    "extremal": _cmd_extremal,
    "ramsey": _cmd_ramsey,
}


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        command = next((a for a in argv if a in HANDLERS), None)
        emit({"command": command,
              "error": {"kind": type(exc).__name__, "message": str(exc)}})
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit:   # --help
        return EXIT_OK
    started = time.monotonic()
    inputs = {k: v for k, v in vars(args).items() if k != "timing" and v is not None}
    report = {"command": args.command, "inputs": inputs}
    collecting = gc.isenabled()
    gc.disable()
    try:
        report.update(HANDLERS[args.command](args))
    except tuple(c for classes, _, _ in FAILURES for c in classes) as exc:
        code, label = next((code, label) for classes, code, label in FAILURES
                           if isinstance(exc, classes))
        report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        emit(report, None)
        sys.stderr.write(f"{label}: {exc}\n")
        return code
    finally:
        if collecting:
            gc.enable()
    elapsed_ms = int((time.monotonic() - started) * 1000)
    emit(report, elapsed_ms if args.timing else None)
    sys.stderr.write(f"{args.command}: ok in {elapsed_ms} ms\n")
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
