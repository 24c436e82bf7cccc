import dataclasses
import gc
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse_outcome, threshold_colouring
from oracles import parse_reference
from tcr import augment, cli, extremal, hypergraph, lp
from tcr.blueprint import BWResult, build_blueprint
from tcr.cli import (EXIT_CAP, EXIT_CONTRACT, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE,
                     parse_coloured_hypergraph, run,
                     serialize_coloured_hypergraph)
from tcr.errors import (ConflictingColour, HypothesisViolated, InconsistentWitness,
                        ParseError)
from tcr.extremal import split_coloring
from tcr.hypergraph import Colour, build


def run_captured(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_two_edges():
    ch = parse_coloured_hypergraph("tcg 1\nk=4 n=8\nR 1 2 3 4\nB 5 6 7 8\n")
    assert ch.graph.m == 2
    assert ch.colour[(1, 2, 3, 4)] is Colour.RED
    assert ch.colour[(5, 6, 7, 8)] is Colour.BLUE


def test_parse_comments_and_blank_lines():
    text = "# header comment\ntcg 1\n\nk=4 n=5  # dims\nR 1 2 3 4\n"
    ch = parse_coloured_hypergraph(text)
    assert ch.graph.m == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_coloured_hypergraph("tcg 1\nk=4 n=8\nR 1 2 3\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_coloured_hypergraph("tcg 2\nk=4 n=8\n")
    with pytest.raises(ParseError):
        parse_coloured_hypergraph("tcg 1\nk=4 n=8\nR 4 3 2 1\n")
    with pytest.raises(ParseError):
        parse_coloured_hypergraph("tcg 1\nk=4 n=8\nG 1 2 3 4\n")


def test_round_trip_on_split_file():
    ch, _ = split_coloring(4, 2)
    text = serialize_coloured_hypergraph(ch)
    again = parse_coloured_hypergraph(text)
    assert serialize_coloured_hypergraph(again) == text
    assert again.colour == ch.colour


CORRUPTIONS = ("none", "letter", "arity_short", "arity_long", "non_integer",
               "out_of_range", "unsorted", "repeated", "split_line", "joined_lines",
               "moved_break", "conflict", "header")


def tcg_text(rng, corruption, size=25):
    """A random tcg text of at most `size` edges, most with comments, blank
    lines and indentation, and at most one corrupted line."""
    k = rng.randint(2, 5)
    n = rng.randint(k, 9)
    while comb(n, k) < size:
        n += 1
    pool = list(itertools.combinations(range(1, n + 1), k))
    edges = rng.sample(pool, rng.randint(0, min(len(pool), size)))
    lines = [[rng.choice("RB"), *map(str, e)] for e in edges]
    if lines and rng.random() < 0.3:   # a repeat with its own colour is accepted
        lines.append(list(rng.choice(lines)))
    if corruption == "conflict" and lines:
        twin = list(rng.choice(lines))
        twin[0] = "B" if twin[0] == "R" else "R"
        lines.insert(rng.randint(0, len(lines)), twin)
    elif corruption not in ("none", "header", "conflict") and lines:
        bad = rng.choice(lines)
        if corruption == "letter":
            bad[0] = rng.choice(["G", "r", "RB", "1"])
        elif corruption == "arity_short":
            del bad[rng.randint(1, k)]
        elif corruption == "arity_long":
            bad.append(str(n + rng.randint(1, 3)))
        elif corruption == "non_integer":
            bad[rng.randint(1, k)] = rng.choice(["x", "1.5", "?", "--"])
        elif corruption == "out_of_range":
            if rng.random() < 0.5:
                bad[-1] = str(n + rng.randint(1, 3))
            else:
                bad[1] = str(-rng.randint(0, 2))
        elif corruption == "unsorted":
            bad[1], bad[2] = bad[2], bad[1]
        elif corruption == "repeated":
            bad[2] = bad[1]
        elif corruption == "split_line":   # the right token count, over two lines
            cut = rng.randint(1, k)
            i = lines.index(bad)
            lines[i:i + 1] = [bad[:cut], bad[cut:]]
        elif corruption in ("joined_lines", "moved_break") and len(lines) > 1:
            # two edges on one line, or the break between them moved
            i = min(lines.index(bad), len(lines) - 2)
            fields = lines[i] + lines[i + 1]
            cut = len(fields) if corruption == "joined_lines" else rng.choice(
                [c for c in range(1, len(fields)) if c != len(lines[i])])
            lines[i:i + 2] = [fields[:cut], fields[cut:]] if cut < len(fields) else [fields]
    body = [" ".join(fields) for fields in lines]
    header = ["tcg 1", f"k={k} n={n}"]
    if corruption == "header":
        header[rng.randint(0, 1)] = rng.choice(["tcg 2", f"k={k}", f"k=x n={n}", "n=4 k=4"])
    plain = rng.random() < 0.25   # as serialize writes it: no comments, blanks or indents
    out = []
    for line in header + body:
        while not plain and rng.random() < 0.15:
            out.append(rng.choice(["", "# comment", "   ", "  # R 1 2"]))
        if not plain and rng.random() < 0.2:
            line = "  " + line + "  # note"
        out.append(line)
    return "\n".join(out) + rng.choice(["\n", "", "\n\n"])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(CORRUPTIONS),
       st.sampled_from([25, 25, 25, 2 * hypergraph.BLOCK]))
def test_parser_agrees_with_reference_parser(seed, corruption, size):
    """On random tcg texts with at most one corrupted line, the parser
    accepts exactly what the reference parser accepts, builds an equal
    graph, and raises the same error class at the same line.  Some texts
    run over several blocks of lines, with the corrupted line in any one."""
    text = tcg_text(random.Random(seed), corruption, size)
    expected = parse_outcome(parse_reference, text)
    assert parse_outcome(parse_coloured_hypergraph, text) == expected
    if corruption not in ("none", "header", "conflict") and expected[0] is ParseError:
        assert expected[1] is not None


@pytest.mark.parametrize("gap, expected", [(0, (ParseError, 5)),
                                           (hypergraph.BLOCK, (ConflictingColour, None))])
def test_line_fault_after_a_conflict(gap, expected):
    """A faulty line after an edge given in both colours is reported when it
    lies in the conflict's block of lines; a conflict in an earlier block
    is reported first."""
    filler = [f"R {a} {b}" for a, b in itertools.combinations(range(3, 100), 2)][:gap]
    text = "tcg 1\nk=2 n=99\nR 1 2\nB 1 2\n" + "".join(f + "\n" for f in filler) + "R 1\n"
    assert parse_outcome(parse_coloured_hypergraph, text) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_parse_serialize_round_trip(seed):
    """serialize(parse(text)) is the canonical text of the same graph, and
    parsing it again gives the graph back."""
    rng = random.Random(seed)
    text = tcg_text(rng, "none")
    ch = parse_coloured_hypergraph(text)
    canonical = serialize_coloured_hypergraph(ch)
    again = parse_coloured_hypergraph(canonical)
    assert (again.k, again.n, again.colour) == (ch.k, ch.n, ch.colour)
    assert again.graph == ch.graph
    assert serialize_coloured_hypergraph(again) == canonical
    direct = build(ch.k, ch.n, [(c, e) for e, c in ch.colour.items()])
    assert serialize_coloured_hypergraph(direct) == canonical


@pytest.mark.parametrize("plain, token", [("7", "07"), ("7", "+7"), ("10", "1_0"),
                                          ("3", "\u0663"), ("1", "0"), ("12", "13")])
def test_tokens_outside_the_table_are_read_by_int(plain, token):
    """The parser reads plain decimal vertices through a table and any
    other token through `int`, in whichever block it sits: "07", "+7",
    "1_0" and an Arabic-Indic 3 give the graph of the plain text, and 0 or
    n + 1 the reference parser's ParseError at its line."""
    lines = [c + " " + " ".join(map(str, e)) for c, e in (
        ("R" if sum(e) % 3 else "B", e) for e in itertools.combinations(range(1, 13), 4))][:40]
    at = next(i for i in range(8, 40) if plain in lines[i].split())
    odd = [*lines]
    odd[at] = " ".join(token if f == plain else f for f in lines[at].split())
    text, plain_text = ("tcg 1\nk=4 n=12\n" + "\n".join(body) + "\n" for body in (odd, lines))
    expected = parse_outcome(parse_reference, text)
    assert expected == (parse_outcome(parse_reference, plain_text) if token not in ("0", "13")
                        else (ParseError, at + 3))
    for block in (8, hypergraph.BLOCK):
        with mock.patch.object(hypergraph, "BLOCK", block):
            assert parse_outcome(parse_coloured_hypergraph, text) == expected


def test_huge_vertex_count_over_a_short_body():
    """A header with n = 10^9 over three lines parses in under a megabyte:
    the vertex table is bounded by the body, and a vertex beyond it is read
    by `int`."""
    top = 10**9
    text = (f"tcg 1\nk=4 n={top}\nR 1 2 3 4\nB 1 2 3 {top}\n"
            f"R {top - 3} {top - 2} {top - 1} {top}\n")
    tracemalloc.start()
    try:
        got = parse_outcome(parse_coloured_hypergraph, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == parse_outcome(parse_reference, text)
    assert got[:2] == (4, top) and len(got[3]) == 3
    assert peak < 1 << 20


def test_cli_extremal_split_verify(capsys):
    code, out, err = run_captured(
        capsys, ["extremal", "split", "--k", "4", "--n", "2",
                 "--verify", "--len", "8"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["command"] == "extremal"
    assert report["result"]["certificate"]["ok"] is True


def test_cli_ramsey_allcoloured(capsys):
    code, out, err = run_captured(
        capsys, ["ramsey", "--k", "2", "--target", "c4", "--N", "6"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["all_coloured"] is True


def test_cli_components_and_match(tmp_path, capsys):
    ch, _ = split_coloring(4, 2)
    path = tmp_path / "split.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    code, out, _ = run_captured(capsys, ["components", "--in", str(path), "--mono"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["count"] == 2
    code, out, _ = run_captured(capsys, ["match", "exact", "--in", str(path),
                                         "--host", "red"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["size"] == 1
    code, out, _ = run_captured(capsys, ["match", "lp", "--in", str(path),
                                         "--component", "1"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["weight"] == "7/4"
    # without --host or --component every edge is the host: K_8^(4) holds
    # 2 disjoint edges, and its fractional optimum is 8/4
    code, out, _ = run_captured(capsys, ["match", "exact", "--in", str(path)])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["size"] == 2 and result["optimal"] is True
    assert len({v for e in result["edges"] for v in e}) == 8
    code, out, _ = run_captured(capsys, ["match", "lp", "--in", str(path)])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["weight"] == "2/1"
    assert sum(map(Fraction, result["weights"].values())) == 2


def test_cli_mu(tmp_path, capsys):
    ch, _ = split_coloring(4, 2)
    path = tmp_path / "split.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    code, out, _ = run_captured(capsys, ["match", "mu", "--in", str(path),
                                         "--s", "1", "--beta", "1/100"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["value"] == "7/4"


def test_cli_driver_and_determinism(tmp_path, capsys):
    ch, _ = split_coloring(4, 3)
    path = tmp_path / "split13.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    argv = ["driver", "--in", str(path), "--seed", "5"]
    code1, out1, _ = run_captured(capsys, argv)
    code2, out2, _ = run_captured(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    report = json.loads(out1)
    assert report["result"]["status"] in ("reached", "improved", "step_failed")


@pytest.mark.parametrize("make", [lambda: split_coloring(4, 3)[0],
                                  lambda: threshold_colouring(24, 1),
                                  lambda: extremal.parity_coloring(4, 4, 2)[0],
                                  lambda: threshold_colouring(24, 3)],
                         ids=["split13", "threshold24", "parity442", "threshold24_t3"])
def test_cli_augment_and_driver_share_the_setup(tmp_path, capsys, make):
    """`augment` starts where `driver` does: the same colour frame, the same
    initial matching (its trace follows the driver's trim), and the same
    first step.  On threshold24_t3 the spanning component is blue, so both
    swap colours."""
    path = tmp_path / "in.tcg"
    path.write_text(serialize_coloured_hypergraph(make()), encoding="utf-8")
    reports = {}
    for command in ("augment", "driver"):
        code, out, _ = run_captured(capsys, [command, "--in", str(path), "--seed", "7"])
        assert code == EXIT_OK
        reports[command] = json.loads(out)["result"]
    aug, drv = reports["augment"], reports["driver"]
    init = aug["initial"]
    assert aug["colour_swapped"] == drv["colour_swapped"]
    assert init["kind"] == drv["initial_kind"]
    assert drv["trace"][0]["claim"] == "trim"
    assert drv["trace"][1:len(init["trace"]) + 1] == init["trace"]
    if drv["iterations"] == 0:
        assert init["status"] == "target_reached"
        assert init["colour"] == drv["colour"]
        assert Fraction(drv["weight"]) == init["size"]
    else:
        step_1 = next(t for t in drv["trace"] if t["claim"] == "step_1")
        assert (aug["step"]["status"], aug["step"]["weight"]) == (step_1["status"],
                                                                 step_1["weight"])


def test_cli_seed_required_for_driver(tmp_path, capsys):
    ch, _ = split_coloring(4, 2)
    path = tmp_path / "s.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    code, out, err = run_captured(capsys, ["driver", "--in", str(path)])
    assert code == EXIT_USAGE
    report = json.loads(out)
    assert report["command"] == "driver"
    assert report["error"]["kind"] == "UsageError"
    assert "--seed" in report["error"]["message"]


def test_cli_usage_error_without_command(capsys):
    code, out, _ = run_captured(capsys, [])
    assert code == EXIT_USAGE
    report = json.loads(out)
    assert report["command"] is None
    assert report["error"]["kind"] == "UsageError"


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("argv", [["driver", "--seed", "1"], ["augment", "--seed", "1"],
                                  ["blueprint", "build", "--eps", "1/20"]])
def test_cli_blueprint_layers_need_k4(tmp_path, capsys, k, argv):
    import itertools
    from tcr.hypergraph import build
    ch = build(k, 8, [("R" if e[0] <= 2 else "B", e)
                      for e in itertools.combinations(range(1, 9), k)])
    path = tmp_path / f"k{k}.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    code, out, _ = run_captured(capsys, argv + ["--in", str(path)])
    assert code == EXIT_CONTRACT
    error = json.loads(out)["error"]
    assert error["kind"] == "HypothesisViolated"
    assert f"k = {k}" in error["message"]


@pytest.mark.parametrize("beta", ["-1", "0"])
def test_cli_mu_rejects_nonpositive_beta(tmp_path, capsys, beta):
    ch, _ = split_coloring(4, 2)
    path = tmp_path / "split.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    code, out, _ = run_captured(capsys, ["match", "mu", "--in", str(path),
                                         "--s", "1", "--beta", beta])
    assert code == EXIT_CONTRACT
    assert json.loads(out)["error"]["kind"] == "Unsupported"


@pytest.mark.parametrize("argv, name", [
    (["driver", "--in", "FILE", "--seed", "1", "--eps", "1/2"], "--eps"),
    (["augment", "--in", "FILE", "--seed", "1", "--eta", "1"], "--eta"),
    (["blowup", "--in", "FILE", "--r", "0"], "--r"),
    (["blueprint", "check", "--in", "FILE", "--eps", "-1"], "--eps"),
    (["extremal", "parity", "--k", "4", "--n", "2", "--i", "7"], "--i"),
    (["extremal", "split", "--k", "4", "--n", "2", "--verify", "--len", "9"], "--len"),
    (["extremal", "split", "--k", "1", "--n", "2"], "--k"),
    (["extremal", "parity", "--k", "4", "--n", "0", "--i", "1"], "--n"),
    (["ramsey", "--k", "2", "--target", "c1", "--N", "6"], "--target"),
    (["ramsey", "--k", "2", "--target", "c2", "--N", "6"], "--target"),
    (["ramsey", "--k", "2", "--target", "p1", "--N", "6"], "--target"),
    (["ramsey", "--k", "2", "--target", "x1", "--N", "6"], "--target"),
    (["ramsey", "--k", "2", "--target", "c", "--N", "6"], "--target"),
    (["ramsey", "--k", "2", "--target", "", "--N", "6"], "--target"),
    (["ramsey", "--k", "0", "--target", "c3", "--N", "6"], "--k"),
    (["ramsey", "--k", "4", "--target", "c5", "--N", "3"], "--N"),
    (["extremal", "parity", "--k", "4", "--n", "1", "--i", "0"], "--n"),
    (["match", "mu", "--in", "FILE", "--component", "99"], "--component"),
    (["extremal", "split", "--k", "4", "--n", "2", "--len", "9"], "--len"),
    (["extremal", "split", "--k", "4", "--n", "2", "--i", "3"], "--i"),
    (["match", "mu", "--in", "FILE", "--host", "red"], "--host"),
    (["match", "lp", "--in", "FILE", "--s", "3"], "--s"),
    (["match", "lp", "--in", "FILE", "--beta", "1/2"], "--beta"),
    (["match", "exact", "--in", "FILE", "--s", "2"], "--s"),
    (["match", "exact", "--in", "FILE", "--beta", "1/3"], "--beta"),
    (["match", "lp", "--in", "FILE", "--component", "1", "--host", "red"], "--host"),
])
def test_cli_bad_parameter_value_is_usage_error(tmp_path, capsys, argv, name):
    path = tmp_path / "split.tcg"
    path.write_text(serialize_coloured_hypergraph(split_coloring(4, 2)[0]), encoding="utf-8")
    code, out, _ = run_captured(capsys, [str(path) if a == "FILE" else a for a in argv])
    assert code == EXIT_USAGE
    error = json.loads(out)["error"]
    assert error["kind"] == "UsageError"
    assert name in error["message"]


def test_cli_failed_certificate_is_internal_error(tmp_path, capsys, monkeypatch):
    """A failed self-check exits 4 with a JSON report, never 2."""
    path = tmp_path / "split.tcg"
    path.write_text(serialize_coloured_hypergraph(split_coloring(4, 2)[0]), encoding="utf-8")
    monkeypatch.setattr(lp, "check_certificate", lambda *args: False)
    code, out, _ = run_captured(capsys, ["match", "lp", "--in", str(path), "--component", "0"])
    assert code == EXIT_INTERNAL
    assert json.loads(out)["error"]["kind"] == "CertificateFailed"


@pytest.mark.parametrize("exc", [ValueError("bad value"), KeyError("missing")])
def test_cli_non_domain_exception_is_internal_error(capsys, monkeypatch, exc):
    """An exception that is not a TcrError exits 4 with a JSON report."""
    def broken(args):
        raise exc
    monkeypatch.setitem(cli.HANDLERS, "ramsey", broken)
    code, out, err = run_captured(capsys, ["ramsey", "--k", "2", "--target", "c3", "--N", "6"])
    assert code == EXIT_INTERNAL
    error = json.loads(out)["error"]
    assert error["kind"] == type(exc).__name__
    assert err.startswith("internal error:")


def _collector_off(args):
    assert not gc.isenabled()
    return {"result": {}}


def _raises(exc):
    def handler(args):
        assert not gc.isenabled()
        raise exc
    return handler


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, handler, code", [
    (["extremal", "split", "--k", "4", "--n", "2"], None, EXIT_OK),
    (["ramsey", "--k", "2", "--target", "c3", "--N", "6"], _collector_off, EXIT_OK),
    (["extremal", "split", "--k", "1", "--n", "2"], None, EXIT_USAGE),
    (["extremal", "split"], None, EXIT_USAGE),
    (["ramsey", "--k", "2", "--target", "c3", "--N", "6"],
     _raises(HypothesisViolated("no")), EXIT_CONTRACT),
    (["ramsey", "--k", "2", "--target", "c3", "--N", "6"],
     _raises(ValueError("bad value")), EXIT_INTERNAL)])
def test_cli_restores_the_collector(capsys, monkeypatch, enabled, argv, handler, code):
    """A command runs with the cyclic collector off and leaves it as the
    caller had it, whatever its exit."""
    if handler is not None:
        monkeypatch.setitem(cli.HANDLERS, "ramsey", handler)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run_captured(capsys, argv)[0] == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_cli_parse_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.tcg"
    path.write_text("tcg 1\nk=4 n=8\nR 1 2 3\n", encoding="utf-8")
    code, out, err = run_captured(capsys, ["components", "--in", str(path)])
    assert code == EXIT_USAGE
    assert "error" in json.loads(out)


@pytest.mark.parametrize("text", ["tcg 1\nk=1 n=5\nR 3\n", "tcg 1\nk=4 n=3\n"])
def test_cli_bad_dimensions_are_a_parse_error(tmp_path, capsys, text):
    """k < 2 or n < k on the `k=… n=…` line is a malformed input line."""
    path = tmp_path / "dims.tcg"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_captured(capsys, ["components", "--in", str(path)])
    assert code == EXIT_USAGE
    error = json.loads(out)["error"]
    assert error["kind"] == "ParseError"
    assert error["message"].startswith("line 2:")
    with pytest.raises(ParseError) as exc:
        parse_coloured_hypergraph(text)
    assert exc.value.line == 2


@pytest.mark.parametrize("text, argv, kind, message", [
    ("", ["components"], "ParseError", "empty input"),
    ("tcg 1\n\n# no dimensions\n", ["components"], "ParseError",
     "line 1: missing 'k=... n=...' line"),
    ("tcg 1\nk=4 n=8\nR 1 2 3 4\n", ["blueprint", "build", "--eps", "x"], "UsageError",
     "argument --eps: not a rational: 'x'"),
    ("tcg 1\nk=4 n=8\nR 1 2 3 4\n", ["blueprint", "build", "--eps", "1/0"], "UsageError",
     "argument --eps: not a rational: '1/0'")])
def test_cli_reports_empty_input_missing_dimensions_and_bad_rationals(
        tmp_path, capsys, text, argv, kind, message):
    """An empty file, a header with no dimensions line and an --eps that is
    not a rational each exit 1 with a JSON error report naming the fault."""
    path = tmp_path / "input.tcg"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_captured(capsys, [*argv, "--in", str(path)])
    assert code == EXIT_USAGE
    error = json.loads(out)["error"]
    assert (error["kind"], error["message"]) == (kind, message)


def test_cli_component_out_of_range(tmp_path, capsys):
    ch, _ = split_coloring(4, 2)
    path = tmp_path / "s.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    code, out, _ = run_captured(capsys, ["match", "lp", "--in", str(path),
                                         "--component", "9"])
    assert code == EXIT_CONTRACT
    assert json.loads(out)["error"]["kind"] == "Unsupported"


def test_cli_cap_exit_code(capsys):
    code, out, err = run_captured(
        capsys, ["ramsey", "--k", "2", "--target", "c3", "--N", "9",
                 "--no-seeds"])
    assert code == EXIT_CAP
    assert json.loads(out)["error"]["kind"] == "SizeCapExceeded"
    code, out, err = run_captured(
        capsys, ["ramsey", "--k", "2", "--target", "c3", "--N", "8",
                 "--no-seeds"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["all_coloured"] is True


def test_cli_ramsey_checks_size_before_a_target_longer_than_N(capsys, monkeypatch):
    """A target longer than N is answered by a colouring of K_N^(k), so
    N above the support cap exits 3 before anything is built."""
    def no_build(*args):
        raise AssertionError("built a colouring")
    monkeypatch.setattr(extremal, "build", no_build)
    code, out, err = run_captured(
        capsys, ["ramsey", "--k", "4", "--target", "c60", "--N", "50"])
    assert code == EXIT_CAP
    assert json.loads(out)["error"]["kind"] == "SizeCapExceeded"


def test_cli_ramsey_failed_self_check_is_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(extremal, "_verify_counterexample", lambda *args: False)
    code, out, err = run_captured(
        capsys, ["ramsey", "--k", "2", "--target", "c4", "--N", "5", "--no-seeds"])
    assert code == EXIT_INTERNAL
    assert json.loads(out)["error"]["kind"] == "InternalError"


def test_cli_contract_exit_code(tmp_path, capsys):
    # sparse input violates the density hypothesis of the shared growth set-up
    path = tmp_path / "sparse.tcg"
    path.write_text("tcg 1\nk=4 n=12\nR 1 2 3 4\nB 5 6 7 8\n", encoding="utf-8")
    for command in ("driver", "augment"):
        code, out, err = run_captured(capsys, [command, "--in", str(path), "--seed", "1"])
        assert code == EXIT_CONTRACT
        error = json.loads(out)["error"]
        assert error["kind"] == "HypothesisViolated" and "eps" in error["message"]


def _split13(tmp_path):
    path = tmp_path / "split13.tcg"
    path.write_text(serialize_coloured_hypergraph(split_coloring(4, 3)[0]), encoding="utf-8")
    return str(path)


# small enough that split-13's red greedy matching of size 1 passes as
# "ok" (3 delta n <= 1 < n/4), so `augment` takes its growth step
SMALL_DELTA = ["--eps", "1/100", "--gamma", "1/80", "--delta", "1/40"]


def _trim_blue(monkeypatch):
    trim = augment.trim_spanning_component
    monkeypatch.setattr(augment, "trim_spanning_component",
                        lambda F, eps: dataclasses.replace(trim(F, eps), colour=Colour.BLUE))


def _no_good_edge_no_B_W(monkeypatch):
    def failed(*args):
        raise InconsistentWitness("forced")
    monkeypatch.setattr(augment, "is_good", lambda bp, e: False)
    monkeypatch.setattr(augment, "compute_B_W", failed)


def _every_candidate_empty(monkeypatch):
    def no_triples(CH, bp, R_id, W):
        decomp = bp.decomposition
        return BWResult(next(c for c in range(len(decomp.components))
                             if decomp.colour(c) is Colour.BLUE), {})
    monkeypatch.setattr(augment, "is_good", lambda bp, e: False)
    monkeypatch.setattr(augment, "compute_B_W", no_triples)


@pytest.mark.parametrize("force, message", [
    (_trim_blue, "canonical_red_spanning: the trimmed spanning component is blue "
                 "in both colour frames"),
    (_no_good_edge_no_B_W, "initial_matching: no good red edge, and B_W failed: forced"),
    (_every_candidate_empty, "initial_matching: every candidate matching is empty")],
    ids=["trim_blue", "no_B_W", "all_empty"])
def test_cli_stuck_growth_is_one_contract_error(tmp_path, capsys, monkeypatch, force,
                                                message):
    """A growth set-up with no red spanning component in either frame, or an
    initial matching with no edge, is the same ContractUnmet, exit 2, for
    `augment` and `driver`."""
    force(monkeypatch)
    path = _split13(tmp_path)
    for command in ("augment", "driver"):
        code, out, err = run_captured(capsys, [command, "--in", path, "--seed", "7"])
        assert code == EXIT_CONTRACT
        assert json.loads(out)["error"] == {"kind": "ContractUnmet", "message": message}
        assert err == f"violation: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["augment", *SMALL_DELTA], "constructed weighting invalid: forced"),
    (["driver"], "driver output failed validation: forced")])
def test_cli_invalid_growth_output_is_internal_error(tmp_path, capsys, monkeypatch,
                                                     argv, message):
    """The growth step and the driver revalidate their output; a failed
    revalidation is a self-check, exit 4, not a contract violation.  At the
    default parameters the driver meets its target before any step."""
    monkeypatch.setattr(augment, "validate_fractional", lambda H, phi: (False, "forced"))
    code, out, _ = run_captured(capsys, [*argv, "--in", _split13(tmp_path), "--seed", "7"])
    assert code == EXIT_INTERNAL
    assert json.loads(out)["error"] == {"kind": "InternalError", "message": message}


def test_cli_augment_steps_from_a_small_red_greedy_matching(tmp_path, capsys):
    """At delta = 1/40 split-13's red greedy matching (size 1) is "ok"
    before any blue search: n = 13 / (5/4 + 3 eta) = 130/17, and
    3 delta n = 39/68 <= 1 < n/4 = 65/34."""
    code, out, _ = run_captured(capsys, ["augment", "--in", _split13(tmp_path),
                                         "--seed", "7", *SMALL_DELTA])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["colour_swapped"] is False
    assert result["initial"] == {"status": "ok", "kind": "red_greedy", "size": 1,
                                 "colour": "R",
                                 "trace": [{"claim": "greedy_red", "size": 1}]}
    assert result["step"]["status"] == "improved"


def test_cli_blowup_and_blueprint(tmp_path, capsys):
    ch, _ = split_coloring(4, 2)
    path = tmp_path / "s.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    code, out, _ = run_captured(capsys, ["blowup", "--in", str(path), "--r", "2"])
    assert code == EXIT_OK
    rep = json.loads(out)["result"]
    assert rep["blown_edges"] == rep["expected_edges"] == 70 * 16
    assert rep["base_components"] == rep["blown_components"]
    reports = {}
    for mode in ("build", "check"):
        code, out, _ = run_captured(capsys, ["blueprint", mode, "--in", str(path),
                                             "--eps", "1/20"])
        assert code == EXIT_OK
        reports[mode] = json.loads(out)["result"]
    assert reports["check"]["check_ok"] is True
    # `build` adds the assignment pair -> component id to what `check` prints
    assign = reports["build"].pop("assign")
    assert reports["build"] == reports["check"]
    expected = build_blueprint(ch, Fraction(1, 20)).blueprint.assign
    assert assign == {f"{a} {b}": cid for (a, b), cid in expected.items()}
    assert len(assign) == reports["check"]["coverage"] > 0


def test_cli_extremal_out_writes_parseable_file(tmp_path, capsys):
    out_path = tmp_path / "parity.tcg"
    code, out, _ = run_captured(
        capsys, ["extremal", "parity", "--k", "3", "--n", "2", "--i", "0",
                 "--out", str(out_path)])
    assert code == EXIT_OK
    ch = parse_coloured_hypergraph(out_path.read_text(encoding="utf-8"))
    assert ch.k == 3 and ch.n == 6
    assert serialize_coloured_hypergraph(ch) == out_path.read_text(encoding="utf-8")


def test_cli_driver_reaches_target_on_all_red(tmp_path, capsys):
    import itertools
    from tcr.hypergraph import build
    ch = build(4, 20, [("R", e) for e in itertools.combinations(range(1, 21), 4)])
    path = tmp_path / "allred.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    code, out, _ = run_captured(capsys, ["driver", "--in", str(path),
                                         "--seed", "3"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["status"] == "reached" and result["reached"] is True
    assert result["support_good"] is True and result["min_weight_ok"] is True


def test_cli_timing_flag_controls_field(tmp_path, capsys):
    ch, _ = split_coloring(4, 2)
    path = tmp_path / "s.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    _, out, _ = run_captured(capsys, ["components", "--in", str(path)])
    assert json.loads(out)["timing_ms"] is None
    _, out, _ = run_captured(capsys, ["--timing", "components", "--in", str(path)])
    assert json.loads(out)["timing_ms"] is not None


def test_cli_timing_after_the_command(tmp_path, capsys):
    """--timing is accepted after the subcommand as well and stays out of
    the report's inputs; the rest of the report is unchanged."""
    ch, _ = split_coloring(4, 3)
    path = tmp_path / "split13.tcg"
    path.write_text(serialize_coloured_hypergraph(ch), encoding="utf-8")
    argv = ["driver", "--in", str(path), "--seed", "7"]
    reports = []
    for extra_before, extra_after in (([], []), ([], ["--timing"]), (["--timing"], [])):
        code, out, _ = run_captured(capsys, extra_before + argv + extra_after)
        assert code == EXIT_OK
        reports.append(json.loads(out))
    assert reports[0]["timing_ms"] is None
    for report in reports[1:]:
        assert isinstance(report["timing_ms"], int)
        assert "timing" not in report["inputs"]
        assert dict(report, timing_ms=None) == reports[0]
