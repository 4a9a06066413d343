import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import threading
import tracemalloc
import warnings
from unittest import mock

import isoperim.bounds
import isoperim.chains
import isoperim.cli
import isoperim.cuts
import isoperim.io
import isoperim.spectral
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoperim import (
    MarkovChain,
    WeightedGraph,
    as_chain,
    emit_report,
    gen_ht_counterexample,
    load_chain,
    parse_graph,
    write_graph_tsv,
)
from isoperim.cli import cli_main
from isoperim.errors import InputError, IsoperimError, NumericalFailure, TooLarge
from isoperim.families import cycle_graph, ht_counterexample_graph, random_directed_graph, random_reversible_graph
from isoperim.io import cut_to_dict
from oracles import birth_death_matrix, naive_parse_graph, naive_write_graph_tsv


# what an empty file or a bad header is told: the four headers, each picking its reader
_KNOWN_HEADERS = "'undirected', 'directed', 'matrix-kind transition' or 'matrix-kind weight'"


def test_parse_single_edge(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# comment\nundirected\n1\t2\t1.0\n")
    g = parse_graph(str(path))
    assert isinstance(g, WeightedGraph)
    assert g.n == 2 and not g.directed
    assert g.edges.dtype == np.float64 and not g.edges.flags.writeable
    assert np.array_equal(g.edges, [[0.0, 1.0, 1.0]])


def test_parse_duplicate_undirected_edge(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("undirected\n1\t2\t1.0\n2\t1\t0.5\n")
    with pytest.raises(InputError, match="duplicate edge"):
        parse_graph(str(path))


def test_parse_header_required(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("1\t2\t1.0\n")
    with pytest.raises(InputError) as exc:
        parse_graph(str(path))
    assert str(exc.value) == f"{path}:1: header must be {_KNOWN_HEADERS}, got '1\\t2\\t1.0'"


def test_parse_negative_weight(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("undirected\n1\t2\t-1\n")
    with pytest.raises(InputError, match="negative weight"):
        parse_graph(str(path))


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("undirected\n1\t2\t1.0\nbroken line\n")
    with pytest.raises(InputError, match="expected 'u<TAB>v<TAB>w'") as err:
        parse_graph(str(path))
    assert ":3:" in str(err.value)


def test_parse_dense_transition(tmp_path):
    path = tmp_path / "m.txt"
    P = np.array([[0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0]])
    body = "\n".join(" ".join(f"{x:.17g}" for x in row) for row in P)
    path.write_text("matrix-kind transition\n" + body + "\n")
    c = parse_graph(str(path))
    assert isinstance(c, MarkovChain)
    assert c.origin == "raw-matrix"
    assert np.array_equal(c.P, P)


def test_parse_dense_weight_symmetric(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("matrix-kind weight\n0 1\n1 0\n")
    c = parse_graph(str(path))
    assert isinstance(c, MarkovChain) and c.origin == "undirected-graph"
    assert c.P.tobytes() == np.array([[0.0, 1.0], [1.0, 0.0]]).tobytes()


def test_parse_dense_weight_asymmetric_is_directed(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("matrix-kind weight\n0 2 1\n1 0 0\n1 0 0\n")
    c = parse_graph(str(path))
    assert isinstance(c, MarkovChain) and c.origin == "directed-graph"
    W = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert c.P.tobytes() == (W / W.sum(axis=1, keepdims=True)).tobytes()


def test_parse_dense_bad_header(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("matrix-kind foo\n0 1\n1 0\n")
    with pytest.raises(InputError) as exc:
        parse_graph(str(path))
    assert str(exc.value) == f"{path}:1: header must be {_KNOWN_HEADERS}, got 'matrix-kind foo'"


def test_graph_roundtrip_families(tmp_path):
    for g in (cycle_graph(5), ht_counterexample_graph(9), random_reversible_graph(7, 0.5, 3)):
        path = tmp_path / "f.tsv"
        write_graph_tsv(g, str(path))
        g2 = parse_graph(str(path))
        c1, c2 = as_chain(g), as_chain(g2)
        assert np.max(np.abs(c1.P - c2.P)) <= 1e-15
        assert np.max(np.abs(c1.pi - c2.pi)) <= 1e-15


def _tiny_report():
    return {
        "chain": {"n": 2, "origin": "undirected-graph", "reversible": True},
        "spectral": {"lambda2_reversible": 2.0, "residual_reversible": 1.2345678901234567e-16},
        "cuts": [{"p": 1.0, "method": "exact", "subset": [1], "numerator": 0.5, "pi_mass": 0.5, "phi": 1.0}],
        "bounds": [
            {"name": "cheeger:lower", "lhs": 1.0, "rhs": 1.0, "slack": 0.0, "holds": True, "tol": 1e-9},
            {"name": "cheeger:upper", "lhs": 1.0, "rhs": 2.0, "slack": 1.0, "holds": True, "tol": 1e-9},
        ],
        "provenance": {"source": "test", "tool_version": "0.1.0"},
    }


def test_report_json_roundtrip_bit_identical():
    rep = _tiny_report()
    text1 = emit_report(rep, None, format="json")
    parsed = json.loads(text1)
    text2 = emit_report(parsed, None, format="json")
    assert text1 == text2
    assert parsed["spectral"]["residual_reversible"] == 1.2345678901234567e-16
    # an empty section and a None value round-trip too
    sparse = {**rep, "spectral": {}, "provenance": {"source": None, "tool_version": "0.1.0"}}
    text = emit_report(sparse, None)
    assert '"spectral": {},' in text and '"source": null,' in text and json.loads(text) == sparse


def test_report_emit_deterministic(tmp_path):
    rep = _tiny_report()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(rep, str(p1), format="json")
    emit_report(rep, str(p2), format="json")
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(parse_graph, InputError, "{path}: empty file, expected header " + _KNOWN_HEADERS, id="empty"),
        pytest.param(lambda path: emit_report(_tiny_report(), None, format="xml"), InputError, "unknown report format 'xml'", id="report-format"),
        pytest.param(
            lambda path: emit_report({**_tiny_report(), "spectral": {"lambda2_reversible": float("nan")}}, None),
            NumericalFailure,
            "cannot serialize non-finite value nan",
            id="non-finite",
        ),
        pytest.param(
            lambda path: emit_report({**_tiny_report(), "spectral": {"x": {1}}}, None), TypeError, "cannot serialize <class 'set'>", id="unknown-type"
        ),
    ],
)
def test_io_public_refusals(tmp_path, call, error, message):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    with pytest.raises(error) as exc:
        call(str(path))
    assert type(exc.value) is error and str(exc.value) == message.format(path=path)


def test_report_text_table():
    text = emit_report(_tiny_report(), None, format="text")
    lines = text.splitlines()
    table = [ln for ln in lines if ln.startswith("cheeger")]
    assert len(table) == 2
    assert "holds" in table[0]


# --- CLI ----------------------------------------------------------------------

def test_cli_generate_and_verify(tmp_path):
    out = tmp_path / "cycle.tsv"
    assert cli_main(["generate", "--family", "cycle", "--n", "4", "--out", str(out)]) == 0
    assert cli_main(["verify", "--input", str(out), "--suite", "all"]) == 0


def test_cli_verify_all_on_a_birth_death_chain_with_tiny_pi(tmp_path, capsys):
    # pi falls by 2e-6 per state; with every entry right, both certificates
    # succeed and every bound holds
    P = birth_death_matrix(8, 1e-6, 0.5)
    path = tmp_path / "bd8.txt"
    path.write_text("matrix-kind transition\n" + "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in P))
    assert cli_main(["verify", "--input", str(path), "--suite", "all"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["analyze", "--p", "0.5"], ["sweep", "--p", "0.75"], ["verify"]], ids=lambda a: a[0])
def test_cli_on_a_matrix_with_a_negative_rounding_entry(tmp_path, capsys, argv):
    # the -1e-15 entry is zeroed, so no crossing mass is negative and no
    # phi_p or bound is NaN
    path = tmp_path / "negative.txt"
    path.write_text("matrix-kind transition\n0.5 0.500000000000001 -1e-15\n0.1 0.1 0.8\n0.05 0.05 0.9\n")
    assert cli_main([*argv, "--input", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and not re.search(r"\bnan\b", out, re.IGNORECASE) and "VIOLATED" not in out
    if argv[0] == "analyze":
        assert '"phi": 0.44721359549995815' in out


def test_cli_generate_ht_family_roundtrip(tmp_path):
    out = tmp_path / "ht.tsv"
    assert cli_main(["generate", "--family", "ht-counterexample", "--n", "8", "--out", str(out)]) == 0
    c = load_chain(str(out))
    chain = gen_ht_counterexample(8)
    assert np.max(np.abs(c.P - chain.P)) <= 1e-15


def test_cli_analyze_exact_cap_exit_2(tmp_path, capsys):
    out = tmp_path / "big.tsv"
    assert cli_main(["generate", "--family", "cycle", "--n", "30", "--out", str(out)]) == 0
    code = cli_main(["analyze", "--input", str(out), "--p", "0.5,1", "--method", "exact"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_analyze_json_deterministic(tmp_path):
    g = tmp_path / "g.tsv"
    cli_main(["generate", "--family", "random", "--n", "6", "--seed", "5", "--out", str(g)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(["analyze", "--input", str(g), "--p", "0.5,0.75,1", "--method", "both", "--out", str(r1)]) == 0
    assert cli_main(["analyze", "--input", str(g), "--p", "0.5,0.75,1", "--method", "both", "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["chain"]["reversible"] is True
    assert all(b["holds"] for b in doc["bounds"])


def test_cli_analyze_bounds_rederivable_from_sections(tmp_path):
    g = tmp_path / "g.tsv"
    cli_main(["generate", "--family", "random", "--n", "6", "--seed", "5", "--out", str(g)])
    out = tmp_path / "r.json"
    assert cli_main(["analyze", "--input", str(g), "--p", "0.75", "--method", "exact", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    lam = doc["spectral"]["lambda2_reversible"]
    phi = {c["p"]: c["phi"] for c in doc["cuts"] if c["method"] == "exact"}
    for b in doc["bounds"]:
        if b["name"] == "cheeger:lower":
            assert b["lhs"] == lam / 2 and b["rhs"] == phi[1.0]
        elif b["name"] == "cheeger:upper":
            assert b["lhs"] == phi[1.0] and abs(b["rhs"] - (2 * lam) ** 0.5) < 1e-15
        elif b["name"] == "morris_peres":
            import math

            assert abs(b["lhs"] - phi[0.5] ** 2 / (8 * math.log(2 / phi[0.5]))) < 1e-15
            assert b["rhs"] == lam
        elif b["name"] == "phi_p_squared[p=0.75]":
            assert b["lhs"] == phi[0.75] ** 2
            assert abs(b["rhs"] - 4 * lam / 0.5) < 1e-15
        assert b["holds"] == (b["rhs"] - b["lhs"] >= -b["tol"])


@pytest.mark.parametrize("cap", [24, 6])
@pytest.mark.parametrize("directed", [False, True])
def test_cli_analyze_lists_the_cut_of_every_bound(tmp_path, monkeypatch, cap, directed):
    # within the cap the bounds cite exact cuts, which --method sweep does not
    # list; above it they cite the sweep phi_1, which --p 0.75 does not ask
    # for; analyze appends each
    monkeypatch.setattr(isoperim.cuts, "EXACT_MAX_N", cap)
    g, out = tmp_path / "g.tsv", tmp_path / "r.json"
    write_graph_tsv((random_directed_graph if directed else random_reversible_graph)(8, 0.5, 3), str(g))
    reports = []
    real = isoperim.cli.bound_suite

    def recorded(*args):
        reports.extend(real(*args))
        return reports

    monkeypatch.setattr(isoperim.cli, "bound_suite", recorded)
    assert cli_main(["analyze", "--input", str(g), "--p", "0.75", "--method", "sweep", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [b["name"] for b in doc["bounds"]] == [r.name for r in reports]
    for r in reports:
        assert cut_to_dict(r.cut) in doc["cuts"], r.name


def test_cli_sweep(tmp_path):
    g = tmp_path / "g.tsv"
    cli_main(["generate", "--family", "cycle", "--n", "6", "--out", str(g)])
    out = tmp_path / "cut.json"
    assert cli_main(["sweep", "--input", str(g), "--p", "1.0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["spectral"]["guarantee_holds"] is True
    assert doc["cuts"][0]["pi_mass"] <= 0.5 + 1e-12


def test_cli_verify_exit_codes(tmp_path):
    g = tmp_path / "d.tsv"
    g.write_text("directed\n1\t2\t1\n2\t3\t1\n3\t1\t1\n")
    assert cli_main(["verify", "--input", str(g), "--suite", "directed"]) == 0
    # reversible suite on a non-reversible chain is a usage error
    assert cli_main(["verify", "--input", str(g), "--suite", "reversible"]) == 2


def test_cli_scan(tmp_path):
    out = tmp_path / "scan.csv"
    assert cli_main(["scan", "--n-list", "16,32", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,lambda2,phi_half_arc,rho,lambda2_scaled,phi_scaled"
    assert len(lines) == 3


def test_cli_scan_default_nlist_increasing_rho(tmp_path):
    out = tmp_path / "scan.csv"
    assert cli_main(["scan", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6  # header + 5 rows
    rhos = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))


def test_cli_gadgets(capsys):
    assert cli_main(["gadgets", "--p", "0.6,1.0,0.7000001,0.7000002"]) == 0
    out = capsys.readouterr().out
    # a label is the shortest decimal that reads back as p, so close exponents print apart
    labels = [line.split(":")[0] for line in out.splitlines()[:4]]
    assert labels == ["power-increment p=0.6", "power-increment p=1", "power-increment p=0.7000001", "power-increment p=0.7000002"]
    # each line prints the closed form p^2 / (2p - 1) next to 1 / (2p - 1)
    assert out.splitlines()[0] == "power-increment p=0.6: supremum=1.8 bound=5"
    assert "ratio-chain b0=0.25" in out


def test_cli_usage_error_exit_2(tmp_path, capsys):
    assert cli_main(["analyze"]) == 2  # missing --input
    assert cli_main(["frobnicate"]) == 2
    # a file's header picks its reader, scan has one family, and gadgets prints
    # closed forms with no search to size or seed: none of these is an option
    out = tmp_path / "out.txt"
    for option, argv in (
        ("--format", ["analyze", "--input", "g.tsv", "--format", "edge-tsv"]),
        ("--format", ["sweep", "--input", "g.tsv", "--p", "1", "--format", "edge-tsv"]),
        ("--format", ["verify", "--input", "g.tsv", "--format", "dense-matrix"]),
        ("--family", ["scan", "--family", "ht-counterexample", "--n-list", "16", "--out", str(out)]),
        ("--trials", ["gadgets", "--trials", "10"]),
        ("--seed", ["gadgets", "--seed", "0"]),
    ):
        capsys.readouterr()
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {option}" in captured.err
    assert not out.exists()


@pytest.fixture
def random6(tmp_path):
    g = tmp_path / "g.tsv"
    assert cli_main(["generate", "--family", "random", "--n", "6", "--seed", "5", "--out", str(g)]) == 0
    return str(g)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--p", "1.5"],
        ["analyze", "--p", "-0.5", "--method", "sweep"],
        ["analyze", "--p", "0.5,inf"],
        ["sweep", "--p", "nan"],
        ["sweep", "--p", "0.5,0.75"],
    ],
)
def test_cli_bad_exponent_exit_2(random6, capsys, argv):
    assert cli_main([argv[0], "--input", random6, *argv[1:]]) == 2
    assert "--p" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "sweep", "gadgets"])
def test_cli_reads_a_repeated_exponent_once(tmp_path, capsys, command):
    # --p 0.75,0.75 reads as --p 0.75: one exact cut, one sweep cut and one
    # phi_p bound, and sweep takes it as its one exponent
    g = tmp_path / "c.tsv"
    assert cli_main(["generate", "--family", "cycle", "--n", "8", "--out", str(g)]) == 0
    argv = {
        "analyze": ["analyze", "--input", str(g), "--method", "both"],
        "sweep": ["sweep", "--input", str(g)],
        "gadgets": ["gadgets"],
    }[command]
    outs = []
    for p in ("0.75", "0.75,0.75"):
        capsys.readouterr()
        assert cli_main([*argv, "--p", p]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0]
    if command == "analyze":
        doc = json.loads(outs[1])
        assert [b["name"] for b in doc["bounds"]].count("phi_p_squared[p=0.75]") == 1
        assert sorted(c["method"] for c in doc["cuts"] if c["p"] == 0.75) == ["exact", "sweep"]


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--p=-0"], ["analyze", "--p=-0,1"], ["analyze", "--p=-0,1", "--report-format", "text"]],
    ids=["sweep", "analyze-json", "analyze-text"],
)
def test_cli_reads_an_exponent_written_minus_zero_as_zero(random6, capsys, argv):
    # the report is the one of --p=0 (--p=0,1): p is written 0, never -0
    outs = []
    for p in (argv[1], argv[1].replace("-0", "0")):
        capsys.readouterr()
        assert cli_main([argv[0], "--input", random6, p, *argv[2:]]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_output_ignores_the_exact_cap_variable(tmp_path, monkeypatch, capsys):
    # which phi a report uses follows from the input alone: ISO_MAX_EXACT_N,
    # which once set the exact cap, changes no exit code and no byte
    g = tmp_path / "g.tsv"
    write_graph_tsv(random_reversible_graph(20, 0.4, 20), str(g))
    runs = {}
    for value in (None, "6", "30", "abc"):
        if value is None:
            monkeypatch.delenv("ISO_MAX_EXACT_N", raising=False)
        else:
            monkeypatch.setenv("ISO_MAX_EXACT_N", value)
        for argv in (["verify", "--suite", "all"], ["analyze"]):
            code = cli_main([argv[0], "--input", str(g), *argv[1:]])
            runs[value, argv[0]] = (code, *capsys.readouterr())
    for (value, command), run in runs.items():
        assert run == runs[None, command], (value, command)
    assert runs[None, "verify"][0] == 0 and '"method": "exact"' in runs[None, "analyze"][1]


def _derivation_counts(tmp_path, monkeypatch, directed, argv):
    """Calls of exact_minima, is_reversible and numpy's eigvalsh and eigh
    made by one command on a random 6-state chain, reversible or directed."""
    g = tmp_path / ("directed.tsv" if directed else "reversible.tsv")
    write_graph_tsv((random_directed_graph if directed else random_reversible_graph)(6, 0.5, 5), str(g))
    calls = {"exact_minima": 0, "is_reversible": 0, "eigvalsh": 0, "eigh": 0}
    linalg = isoperim.spectral.np.linalg
    targets = [(isoperim.bounds, "exact_minima"), (isoperim.bounds, "is_reversible")]
    with monkeypatch.context() as m:
        for module, name in targets + [(linalg, "eigvalsh"), (linalg, "eigh")]:
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            m.setattr(module, name, counted)
        assert cli_main([argv[0], "--input", str(g), *argv[1:]]) == 0
    return calls


def test_cli_verify_derives_each_quantity_once(tmp_path, monkeypatch):
    # one eigenvalue solve serves both certificates of a reversible chain
    for directed in (False, True):
        calls = _derivation_counts(tmp_path, monkeypatch, directed, ["verify", "--suite", "all"])
        assert calls == {"exact_minima": 1, "is_reversible": 1, "eigvalsh": 1, "eigh": 0}


def test_cli_analyze_directed_spectral_solves_once(tmp_path, monkeypatch):
    for directed in (False, True):
        argv = ["analyze", "--directed-spectral", "--out", str(tmp_path / "r.json")]
        calls = _derivation_counts(tmp_path, monkeypatch, directed, argv)
        assert calls == {"exact_minima": 1, "is_reversible": 1, "eigvalsh": 1, "eigh": 0}


def _sweep_passes(monkeypatch):
    """The (certificate kind, exponents) of every sweep pass ChainAnalysis makes."""
    passes = []
    real = isoperim.bounds.sweep_cuts

    def counted(c, ps, cert):
        passes.append((cert.kind, list(ps)))
        return real(c, ps, cert)

    monkeypatch.setattr(isoperim.bounds, "sweep_cuts", counted)
    return passes


@pytest.mark.parametrize("cap", [24, 4])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("extra", [[], ["--directed-spectral"]])
def test_cli_analyze_sweeps_each_certificate_once(tmp_path, monkeypatch, cap, directed, extra):
    # within the cap only the cuts section sweeps; above it the bound suite
    # reads phi_1 and phi_0.75 of both sides by sweep as well, all from one
    # pass over the chain's own certificate
    monkeypatch.setattr(isoperim.cuts, "EXACT_MAX_N", cap)
    g = tmp_path / "g.tsv"
    write_graph_tsv((random_directed_graph if directed else random_reversible_graph)(7, 0.5, 2), str(g))
    passes = _sweep_passes(monkeypatch)
    argv = ["analyze", "--input", str(g), "--p", "0.5,0.75,1", "--method", "sweep", *extra, "--out", str(tmp_path / "r.json")]
    assert cli_main(argv) == 0
    own = "chung-directed" if directed else "reversible-normalized"
    assert [kind for kind, _ in passes] == [own]
    assert set(passes[0][1]) == {0.5, 0.75, 1.0}


def test_cli_verify_all_above_the_cap_sweeps_once(tmp_path, monkeypatch):
    # both sides of a reversible chain read their cuts from one pass over the
    # reversible certificate, which shares f2 with Chung's
    monkeypatch.setattr(isoperim.cuts, "EXACT_MAX_N", 4)
    g = tmp_path / "g.tsv"
    write_graph_tsv(random_reversible_graph(7, 0.5, 2), str(g))
    passes = _sweep_passes(monkeypatch)
    assert cli_main(["verify", "--input", str(g), "--suite", "all"]) == 0
    assert passes == [("reversible-normalized", [1.0, 0.6, 0.75, 0.9])]


def test_cli_sweep_guarantee_violation_exit_2(random6, tmp_path, monkeypatch, capsys):
    # a certificate that understates lambda2 breaks the sweep guarantee, which
    # sweep_cuts refuses before the report is written
    real = isoperim.bounds.sweep_cuts
    monkeypatch.setattr(isoperim.bounds, "sweep_cuts", lambda c, ps, cert: real(c, ps, dataclasses.replace(cert, lambda2=1e-12)))
    out = tmp_path / "cut.json"
    assert cli_main(["sweep", "--input", random6, "--p", "0.75", "--out", str(out)]) == 2
    assert _one_error_line(capsys).startswith("error: sweep guarantee violated")
    assert not out.exists()


def test_cli_analyze_directed_spectral_bounds_order(random6, tmp_path):
    out = tmp_path / "r.json"
    argv = ["analyze", "--input", random6, "--p", "0.5,0.75,1", "--directed-spectral", "--out", str(out)]
    assert cli_main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["chain"]["reversible"] is True
    # the reversible side's reports, then the directed side's
    assert [b["name"] for b in doc["bounds"]] == [
        "cheeger:lower",
        "cheeger:upper",
        "morris_peres",
        "phi_p_squared[p=0.75]",
        "phi_p_squared[p=1]",
        "chung:lower",
        "chung:upper",
        "morris_peres:directed",
        "phi_p_squared[p=0.75]:directed",
        "phi_p_squared[p=1]:directed",
    ]


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        ("edge-tsv", "undirected\n1\t2\t1\n2\t3\tnan\n", ":3: weight 'nan' is not a finite number"),
        ("edge-tsv", "undirected\n1\t2\tinf\n2\t3\t1\n", ":2: weight 'inf' is not a finite number"),
        ("edge-tsv", "directed\n1\t2\t1e400\n2\t1\t1\n", ":2: weight '1e400' is not a finite number"),
        ("dense-matrix", "matrix-kind weight\n0 nan\n1 0\n", ":2: entry 'nan' is not a finite number"),
        ("dense-matrix", "matrix-kind weight\n0 1\ninf 0\n", ":3: entry 'inf' is not a finite number"),
        ("dense-matrix", "matrix-kind transition\n0.5 0.4\n0.5 0.5\n", "rows of P must sum to 1"),
        ("dense-matrix", "matrix-kind weight\n0 1\n-1 0\n", ":3: negative weight '-1'"),
        ("edge-tsv", "undirected\n1\t2\t1\n0\t2\t1\n", ":3: edge (0, 2) has a vertex id outside 1..2"),
        ("edge-tsv", "undirected\n1\t100000\t1\n", "100000 states exceed the limit of 16384"),
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        ("edge-tsv", "undirected\n1\t2\t1\n2\t3\t1\udcff\n", ":3: not UTF-8 text (byte 0xff)"),
        ("dense-matrix", "matrix-kind weight\r\n0 1\udcff\r\n1 0\r\n", ":2: not UTF-8 text (byte 0xff)"),
    ],
)
def test_cli_bad_input_values_exit_2(tmp_path, capsys, fmt, text, message):
    # the file is named as the other kind would be: only its header picks the reader
    path = tmp_path / ("in.txt" if fmt == "edge-tsv" else "in.tsv")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert cli_main(["analyze", "--input", str(path)]) == 2
    err = _one_error_line(capsys)
    assert message in err
    if message.startswith(":"):
        assert f"{path}{message}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan", "--n-list", "", "--out", "OUT"], "n_list must be nonempty"),
        (["scan", "--n-list=--", "--out", "OUT"], "--n-list needs a value, got '--'"),
        (["generate", "--family", "random", "--n", "6", "--density", "nan", "--out", "OUT"], "density must be a number in [0, 1], got nan"),
        (["generate", "--family", "random", "--n", "6", "--density", "1.5", "--out", "OUT"], "density must be a number in [0, 1], got 1.5"),
        (["generate", "--family", "random", "--n", "6", "--seed", "-1", "--out", "OUT"], "seed must be a nonnegative integer, got -1"),
        (["generate", "--family", "hypercube", "--n", "70", "--out", "OUT"], "hypercube supports d <= 14, got 70"),
        # refused before the size check, which would also fail
        (["generate", "--family", "random", "--n", "100000", "--seed", "-1", "--out", "OUT"], "seed must be a nonnegative integer, got -1"),
        (["generate", "--family", "random", "--n", "100000", "--out", "OUT"], "100000 states exceed the limit of 16384"),
        (["generate", "--family", "ht-counterexample", "--n", "100000", "--out", "OUT"], "100000 states exceed the limit"),
        (["generate", "--family", "dumbbell", "--n", "100000", "--out", "OUT"], "200000 states exceed the limit"),
        (["generate", "--family", "cycle", "--n", "1000000000", "--out", "OUT"], "1000000000 states exceed the limit"),
        (["scan", "--n-list", "1048576", "--out", "OUT"], "scan supports n <= 65536, got 1048576"),
        # append new cases last: pytest names these cases by their position
    ],
)
def test_cli_bad_parameters_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out.txt"
    assert cli_main([str(out) if a == "OUT" else a for a in argv]) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


def test_cli_directed_duplicate_edge(tmp_path, capsys):
    path = tmp_path / "d.tsv"
    path.write_text("directed\n1\t2\t1\n2\t1\t1\n1\t2\t1\n")
    assert cli_main(["verify", "--input", str(path)]) == 2
    err = _one_error_line(capsys)
    assert f"{path}:4: duplicate edge (1, 2)" in err and "undirected" not in err


# Digests of `generate` output recorded before edges became one array; they pin
# the edge order and every weight byte of each family.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["cycle", "--n", "7"], "fab29edff94fa13d8c6ba7bb983372d5e283d0bd09cae6fb40366438b8952cd1"),
        (["hypercube", "--n", "3"], "55fae670ac73c2a8a44fff9ccf962cd5a9e347030fece6ded479983f14828b03"),
        (["dumbbell", "--n", "4"], "e016cd9547e7cec0d89026d1bb32b1dbf015679cf5ae32ddb5d81ceaee189d05"),
        (["ht-counterexample", "--n", "9"], "49515c6fc8d1998d19e7fb949462697016f18f04cd0567b108f596f64f7b39c3"),
        (["random", "--n", "8", "--seed", "0"], "80ddcc4b5e8b5ac221e5746dceb8c43e8b738d8c5925f5df561db7c07875b0bd"),
        (["random", "--n", "8", "--seed", "3"], "f1f4e233ebd57c5a62c8964c35e624091093edf2cf32bed55c209b1abcf6c697"),
    ],
)
def test_cli_generate_bytes_pinned(tmp_path, argv, digest):
    out = tmp_path / "g.tsv"
    assert cli_main(["generate", "--family", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# --- CLI fuzz: any input ends in exit 0, 1 or 2, never a traceback --------------

_GOOD = st.sampled_from(["1", "0.5", "2.5", "3", "1e-3"])
_EXTREME = st.sampled_from(["0", "1e-300", "1e-16", "1e300", "5e-324"])
_BAD = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "0", "x", "", "1 2"])
_HEADERS = st.sampled_from(["Directed", "matrix-kind", "matrix-kind foo", "undirected directed", "# only a comment", ""])


@st.composite
def _faults(draw, header, rows):
    """Up to two faults: a bad header, a bad or extreme token, a dropped or
    extra token, or a stray edge between ids 1..8."""
    rows = [list(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        kind = draw(st.sampled_from(["header", "bad", "extreme", "count", "stray"]))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "header":
            header = draw(_HEADERS)
        elif kind in ("bad", "extreme") and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD if kind == "bad" else _EXTREME)
        elif kind == "stray":
            rows.append([str(draw(st.integers(1, 8))), str(draw(st.integers(1, 8))), draw(_GOOD)])
        elif row and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(_GOOD))
    return [header, *(" ".join(r) if draw(st.booleans()) else "\t".join(r) for r in rows)]


@st.composite
def _edge_tsv(draw):
    """A ring on 2..6 states plus extra edges (duplicate, reversed and self
    edges included), then faults."""
    n = draw(st.integers(2, 6))
    directed = draw(st.booleans())
    rows = [[str(i + 1), str((i + 1) % n + 1), draw(_GOOD)] for i in range(n if directed or n > 2 else 1)]
    ids = st.integers(1, n)
    rows += [[str(u), str(v), draw(_GOOD)] for u, v in draw(st.lists(st.tuples(ids, ids), max_size=3))]
    return draw(_faults("directed" if directed else "undirected", rows))


@st.composite
def _dense(draw):
    """A 1..4 square transition matrix with stochastic rows, or a weight
    matrix, then faults."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["transition", "weight"]))
    rows = []
    for _ in range(n):
        if kind == "transition":
            w = draw(st.lists(st.sampled_from([1, 2, 3, 0]), min_size=n, max_size=n).filter(any))
            rows.append([repr(x / sum(w)) for x in w])
        else:
            rows.append(draw(st.lists(_GOOD, min_size=n, max_size=n)))
    return draw(_faults(f"matrix-kind {kind}", rows))


_P_TEXT = st.one_of(st.sampled_from(["0.5,1", "0.75", "1", "0,0.6", "nan", "", ",", "--", "1.5", "0.5,0.5,inf"]), st.text(max_size=8))
_N_LIST = st.one_of(
    st.lists(st.integers(-2, 64), max_size=4).map(lambda ns: ",".join(map(str, ns))),
    st.text(alphabet=" ,+-.eabc", max_size=6),
)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    fmt=st.sampled_from(["edge-tsv", "dense-matrix"]),
    data=st.data(),
    command=st.sampled_from(["analyze", "sweep", "verify"]),
    p_text=_P_TEXT,
    option=st.sampled_from(["exact", "sweep", "both", "reversible", "directed", "all"]),
)
def test_cli_fuzz_file_commands(fuzz_dir, fmt, data, command, p_text, option):
    path = fuzz_dir / "input.txt"
    path.write_text("\n".join(data.draw(_edge_tsv() if fmt == "edge-tsv" else _dense())) + "\n")
    argv = [command, "--input", str(path)]
    if command == "verify":
        argv += ["--suite", option if option in ("reversible", "directed", "all") else "all"]
    else:
        argv += [f"--p={p_text}"]
    if command == "analyze" and option in ("exact", "sweep", "both"):
        argv += ["--method", option]
    _run_cli(argv)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_list=_N_LIST)
def test_cli_fuzz_scan(fuzz_dir, n_list):
    _run_cli(["scan", f"--n-list={n_list}", "--out", str(fuzz_dir / "scan.csv")])


# --- the reader against the line-by-line oracle --------------------------------

def _outcome(parse, path):
    try:
        obj = parse(str(path))
    except IsoperimError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(obj, MarkovChain):
        return obj.n, obj.origin, obj.P.tobytes(), obj.pi.tobytes()
    return obj.n, obj.directed, obj.edges.tobytes()


def _reads(fmt):
    """The package's reading of a ``fmt`` file and the oracle's, for
    ``_outcome``. The package reads a dense weight matrix straight into a
    chain and the oracle into a graph, so dense files compare as chains."""
    if fmt == "edge-tsv":
        return parse_graph, naive_parse_graph
    return load_chain, lambda path: as_chain(naive_parse_graph(path))


def _write_raw(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \t\n", "\n# note\n", "\r\n  # 1 2 3\r\n", " \n", "\x0b\n", "\x0c\r", "\n\u2028\n"])
_SEPARATORS = st.sampled_from(["\t", " ", "  ", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\x85", "\u2003", "\u3000"])
_ODD = st.sampled_from(["99999999999999999999", "-99999999999999999999", "9" * 400, "\u0661", "+2", "1_0", "2.5", "#", "-0", "1e400", "0x1"])
_LEADS = st.sampled_from(["", "# c\n", "\n\n", "  # c\r\n"])
# ASCII only, with whole-line comments that numpy's C reader takes and a "#" inside a token that it must not
_ASCII_LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\n# note\n", "\r\n  # 1 2 3\r\n", "\n##\n", "\n\x0b# c\n", "\n\x1c#\t#\r\n", " \n", "\x0c\n", "\n#\r"])
_ASCII_SEPARATORS = st.sampled_from(["\t", " ", "  ", "\x0b", "\x0c", "\x1c", "\x1f"])
_ASCII_ODD = st.sampled_from(["99999999999999999999", "9223372036854775808", "+2", "1_0", "2.5", "#", "1#", "-0", "1e400", "0x1"])
_ASCII_LEADS = st.sampled_from(["", "", "", "# c\n"])  # mostly the header alone on the first line


@st.composite
def _laid_out(draw, lines, line_ends=_LINE_ENDS, separators=_SEPARATORS, odd=_ODD, leads=_LEADS):
    """The lines of a file, with drawn separators, line ends and leading
    comments, and now and then one odd token."""
    lines = list(lines)
    if len(lines) > 1 and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(1, len(lines) - 1))
        tokens = lines[k].split()
        if tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(odd)
            lines[k] = " ".join(tokens)
    text = draw(leads)
    for line in lines:
        text += re.sub("[ \t]", lambda _: draw(separators), line) + draw(line_ends)
    return text


@pytest.mark.parametrize("fmt, ascii_only", [("edge-tsv", False), ("dense-matrix", False), ("edge-tsv", True)], ids=["edge-tsv", "dense-matrix", "ascii-edge-tsv"])
@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_parse_matches_oracle(fuzz_dir, fmt, ascii_only, data):
    # the readers accept, build and reject exactly what the line-by-line
    # reading does, with the same message; ASCII files with whole-line
    # comments go to numpy's C reader
    lines = data.draw(_edge_tsv() if fmt == "edge-tsv" else _dense())
    text = data.draw(_laid_out(lines, _ASCII_LINE_ENDS, _ASCII_SEPARATORS, _ASCII_ODD, _ASCII_LEADS) if ascii_only else _laid_out(lines))
    path = fuzz_dir / "oracle.txt"
    _write_raw(path, text)
    read, oracle = _reads(fmt)
    assert _outcome(read, path) == _outcome(oracle, path)


def _big_directed(lines):
    """A valid directed body of ``lines`` distinct edges on ids 1..300."""
    return [f"{k // 299 + 1}\t{(k // 299 + 1 + k % 299) % 300 + 1}\t0.5" for k in range(lines)]


def test_parse_line_faults_match_oracle(tmp_path, capsys):
    path = tmp_path / "in.txt"
    big = _big_directed(70000)  # more lines than one block of the reader
    cases = [
        ("edge-tsv", "undirected\n1\t2\n1\t2\t3\t4\n", ":2: expected"),  # two and four tokens make six
        ("edge-tsv", "undirected\n1\t2\tx\n1\t2\n", ":2: could not convert"),
        ("edge-tsv", "undirected\n1\t2\n1\tx\t1\n", ":2: expected"),
        ("edge-tsv", "undirected\n1\t2\t3\x0b4\x1f5\x0c6\n", ":2: expected"),
        ("edge-tsv", "undirected\n# c\n1\t2\t1\n1\t2.5\t1\n", ":4: invalid literal for int()"),
        ("edge-tsv", "undirected\n1\t2\t1\xa0\n2\t3\t-1\n", ":3: negative weight '-1'"),
        ("edge-tsv", "undirected\n1\t99999999999999999999\t1\n", ":2: vertex id 99999999999999999999: 100000000000000000001 states exceed"),
        ("edge-tsv", "undirected\n1\t2\t1\n# c\n16385\t2\t1\n3\t16384\t1\n", ":4: vertex id 16385: 16385 states exceed"),
        ("edge-tsv", "directed\n1\t2\t1\n-99999999999999999999\t1\t1\n", ":3: edge (-99999999999999999999, 1)"),
        ("edge-tsv", "directed\n1\t2\t1\n1\t" + "9" * 400 + "\t1\n", ":3: int too large to convert to float"),
        ("edge-tsv", "directed\r1\t2\t1\r2\t1\tnan\r\n", ":3: weight 'nan'"),
        ("edge-tsv", "directed\n" + "\n".join(big[:68000] + ["1\tx\t1"] + big[68000:]) + "\n", ":68002: invalid literal"),
        ("edge-tsv", "directed\n" + "\n".join(big[:67000] + ["1\t2"] + big[67000:]) + "\n", ":67002: expected"),
        ("edge-tsv", "directed\n" + "\n".join(big + ["300\t1\t-2"]) + "\n", ":70002: negative weight '-2'"),
        # plain ASCII files: numpy's C reader sees them first; the line loop names a faulty token,
        # and the C reader's own path a row the graph refuses
        ("edge-tsv", "directed\n", ": nothing after the header"),
        ("edge-tsv", "directed\n\n  \n", ": nothing after the header"),
        ("edge-tsv", "undirected\n\t\r\n\x0b\x1c \n", ": nothing after the header"),
        ("edge-tsv", "directed\n" + "\n".join(big[:69999] + ["1\tx\t1"]) + "\n", ":70001: invalid literal"),
        ("edge-tsv", "directed\n" + "\n".join(big[:69999] + ["1\t2"]) + "\n", ":70001: expected"),
        ("edge-tsv", "undirected\n1\t2\t1\n2\t3\t1\n3\t2\t0.5\n", ":4: duplicate edge (3, 2)"),
        ("edge-tsv", "directed\n1\t2\t1\n2\t1\tnan\n", ":3: weight 'nan' is not a finite number"),
        ("edge-tsv", "directed\n1\t2\t1\n16385\t1\t1\n", ":3: vertex id 16385: 16385 states exceed"),
        ("edge-tsv", "directed\n1\t2\t1\n2\t9223372036854775808\t1\n", ":3: vertex id 9223372036854775808: "),
        ("edge-tsv", "directed\n1\t2\t1_0\n2\t1\t1\n", None),
        ("edge-tsv", "\ndirected\n1\t2\t1\n2\t1\t1\n", None),
        ("dense-matrix", "matrix-kind weight\n0 1 1\n1 0\n", ":3: matrix must be square, got a row of 2 entries after one of 3"),
        ("dense-matrix", "matrix-kind weight\n0 1 1\n1 0 1 1\n0 x\n", ":3: matrix must be square, got a row of 4 entries after one of 3"),
        ("dense-matrix", "matrix-kind weight\n0 1\n# c\n1 0\n1 1\n", ":5: matrix must be square, got more than 2 rows of 2 entries"),
        ("dense-matrix", "matrix-kind weight\n0 1 1\n1 0 1\n", ": matrix must be square, got 2 rows of 3 entries"),
        ("dense-matrix", "matrix-kind weight\n0 1 x\n1 0\n", ":2: could not convert"),
        ("dense-matrix", "matrix-kind weight\n0 inf\n1 x\n", ":2: entry 'inf'"),
        ("dense-matrix", "matrix-kind weight\n# c\n0 1\n\n1 -0.5\n", ":5: negative weight '-0.5'"),
        # a symmetric negative pair is named at its upper entry, a negative
        # entry of an asymmetric matrix wherever it is
        ("dense-matrix", "matrix-kind weight\n0 -1.0 1\n-1 0 1\n1 1 0\n", ":2: negative weight '-1.0'"),
        ("dense-matrix", "matrix-kind weight\n0 1 1\n-2 0 1\n1 1 0\n", ":3: negative weight '-2'"),
        ("dense-matrix", "matrix-kind weight\n-3 1\n1 0\n", ":2: negative weight '-3'"),
        ("dense-matrix", "matrix-kind weight\n5\n", "a chain needs at least 2 states, got 1"),
        ("dense-matrix", "matrix-kind weight\n0\n", "vertex 0 has zero weighted degree"),
        ("dense-matrix", "matrix-kind weight\n-0 1 -0\n1 -0 2\n-0 2 0\n", None),
        ("dense-matrix", "matrix-kind weight\n-0 1 -0\n2 0 1\n1 -0 -0\n", None),
        ("dense-matrix", "matrix-kind  weight\r\n0\xa01\r\n# 1 2\r\n1\u30000\r\n", None),
        ("dense-matrix", "# c\nmatrix-kind transition\n0 1\n1 0\n", None),
        ("dense-matrix", "\n\nmatrix-kind foo\n0 1\n1 0\n", ":3: header must be"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print above the error line
        for fmt, text, message in cases:
            _write_raw(path, text)
            read, oracle = _reads(fmt)
            outcome = _outcome(read, path)
            assert outcome == _outcome(oracle, path), text[:60]
            assert outcome[0] in ("InputError", "TooLarge") if message else isinstance(outcome[0], int)
            if message:
                assert message in outcome[1], (text[:60], outcome)
            if message == ": nothing after the header":
                assert cli_main(["analyze", "--input", str(path)]) == 2
                assert f"{path}{message}" in _one_error_line(capsys)


def test_cli_refuses_a_tall_dense_file_in_one_short_line(tmp_path, capsys):
    # the refusal comes at the first row past the first row's width, so the
    # error line does not grow with the file
    path = tmp_path / "tall.txt"
    path.write_text("matrix-kind weight\n" + "0 1 1\n" * 16384)
    assert cli_main(["analyze", "--input", str(path)]) == 2
    err = _one_error_line(capsys)
    assert err == f"error: {path}:5: matrix must be square, got more than 3 rows of 3 entries\n"
    assert len(err.encode()) < 200


def test_parse_opens_each_file_once(tmp_path):
    path = tmp_path / "in.txt"
    for text in [
        "undirected\n1\t2\t1\n2\t3\t1\n",
        "undirected\n1\t2\t1\n# note\n2\t3\t1\n",
        "undirected\n1\t2\t1\n2\t3\n",
        "undirected\n1\t2\t1\n2\t1\t1\n",
        "directed\n\n  \n",
        "undirected\n1\t2\t1\n2\t3\t1\n3\t2\t0.5\n",
        "matrix-kind weight\n0 1\n# note\n1 0\n",
        "matrix-kind weight\n0 1\n1 x\n",
    ]:
        path.write_text(text)
        with mock.patch("builtins.open", wraps=open) as opened:
            try:
                parse_graph(str(path))
            except InputError:
                pass
        assert opened.call_count == 1, text


def test_plain_edge_tsv_never_reaches_the_line_reader(tmp_path, monkeypatch):
    # numpy's C reader converts ASCII files with whole-line comments on its
    # own, and names the line of a row the graph refuses; the line loop runs
    # only for the files the C reader cannot take
    path = tmp_path / "in.txt"
    big = _big_directed(70000)
    texts = [
        "undirected\n1\t2\t0.5\n2\t3\t1e-3\n3 1  +2\n",
        " directed \r\n1\t2\t1\r\n\r\n2\t1\x0b007\x0c\r\n",
        "directed\n" + "\n".join(big) + "\n",
        "directed\n# edges\n" + "\n".join(big[:35000] + ["  # half way", ""] + big[35000:]) + "\n# end",
        "undirected\n##\n1\t2\t1\n## 2\t3\t1\r\n2\t3\t0.5\n#",
        "directed\n\x0b# c\n1\t2\t1\n\x0b\x0c#\t#\n2\t1\t1\n",
        # rows the graph refuses: a duplicate, a nan and a negative weight, too many states
        "directed\n# edges\n" + "\n".join(big[:50000] + ["", big[123]] + big[50000:]) + "\n",
        "undirected\r\n1\t2\t1\r\n\r\n# c\r\n2\t3\tnan\r\n",
        "directed\n" + "\n".join(big[:69999] + ["  # c", "300\t1\t-2"]) + "\n",
        "directed\n1\t2\t1\n\x0b\x0c\n16385\t1\t1\n2\t3\t1\n",
    ]
    wanted = []
    for text in texts:
        _write_raw(path, text)
        wanted.append(_outcome(naive_parse_graph, path))

    assert [want[0] for want in wanted[-4:]] == ["InputError", "InputError", "InputError", "TooLarge"]

    def refuse(*args):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(isoperim.io, "_line_rows", refuse)
    for text, want in zip(texts, wanted):
        _write_raw(path, text)
        assert _outcome(parse_graph, path) == want, text[:60]


def test_c_reader_agrees_with_int_and_float_or_rejects(tmp_path):
    # any ASCII byte before, inside or after each token of a line: numpy's C
    # reader, reading a regular file by path or the bytes of any other input,
    # converts what str.split, int() and float() make of the line, or
    # rejects the file so that the line loop decides
    path = tmp_path / "in.txt"
    for by_path in (True, False):
        _check_c_reader_against_int_and_float(path, by_path)


def _check_c_reader_against_int_and_float(path, by_path):
    converted = set()
    for byte in range(128):
        for k in range(3):
            for at in (0, 1, None):
                tokens = [b"12", b"34", b"0.5"]
                at = len(tokens[k]) if at is None else at
                tokens[k] = tokens[k][:at] + bytes([byte]) + tokens[k][at:]
                body = b"\t".join(tokens)
                raw = b"directed\n" + body + b"\n"
                path.write_bytes(raw)
                try:
                    header, _, is_ascii = isoperim.io._body(str(path), raw)
                except IsoperimError:  # no body line: refused before any conversion
                    continue
                stamp = isoperim.io._stamp(os.stat(path)) if by_path else None
                edges = isoperim.io._c_rows(str(path), raw, header, is_ascii, stamp)
                if edges is None:
                    continue
                rows = [line.split() for line in re.split(r"\r\n|\r|\n", body.decode()) if line.split()]
                assert len(rows) == 1 and len(rows[0]) == 3, body
                u, v, w = rows[0]
                want = np.array([[int(u), int(v), float(w)]])
                assert edges.tobytes() == want.tobytes(), body
                converted.add(body)
    assert {b"+12\t34\t0.5", b"12\x1c\t34\t0.5", b"12\t34\t0.57", b"12\t34\t0.5\x0b"} <= converted


def test_parsers_hand_their_edge_array_to_the_graph_uncopied(tmp_path, monkeypatch):
    # an edge-tsv file's edge array is the graph's edges; a weight matrix
    # builds no graph, and the entries the reader converted are the chain's P
    handed, converted = [], []
    frombuffer = np.frombuffer

    def graph(**kwargs):
        handed.append(kwargs["edges"])
        return WeightedGraph(**kwargs)

    def convert(*args, **kwargs):
        converted.append(frombuffer(*args, **kwargs))
        return converted[-1]

    monkeypatch.setattr(isoperim.io, "WeightedGraph", graph)
    monkeypatch.setattr(isoperim.io.np, "frombuffer", convert)
    path = tmp_path / "in.txt"
    path.write_text("undirected\n1\t2\t1\n2\t3\t1\n")
    assert parse_graph(str(path)).edges is handed[-1]
    path.write_text("matrix-kind weight\n0 1\n1 0\n")
    c = parse_graph(str(path))
    assert len(handed) == 1 and c.P.base is converted[-1]


def _loadtxt_sources(monkeypatch, before=None):
    """The first argument of each np.loadtxt call the parser makes; ``before``
    runs ahead of each call."""
    real, sources = np.loadtxt, []

    def loadtxt(source, *args, **kwargs):
        sources.append(source)
        if before is not None:
            before()
        return real(source, *args, **kwargs)

    monkeypatch.setattr(isoperim.io.np, "loadtxt", loadtxt)
    return sources


@pytest.mark.parametrize("change", ["append", "replace", "touch"])
def test_file_changed_during_the_c_read_exits_2(tmp_path, monkeypatch, capsys, change):
    # the regular file is read again by path; one rewritten in between, in
    # place, by a rename or only in its modification time, is refused
    path = tmp_path / "g.tsv"
    write_graph_tsv(random_directed_graph(12, 0.5, 3), str(path))
    raw = path.read_bytes()

    def rewrite():
        if change == "append":
            path.write_bytes(raw + b"1\t1\t1\n")
        elif change == "replace":
            (tmp_path / "new.tsv").write_bytes(raw)
            os.replace(tmp_path / "new.tsv", path)
        else:
            st = os.stat(path)
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))

    sources = _loadtxt_sources(monkeypatch, rewrite)
    assert cli_main(["analyze", "--input", str(path), "--method", "sweep"]) == 2
    assert capsys.readouterr().err.strip().endswith(f"{path}: changed while it was read")
    assert sources == [os.path.abspath(path)]


def test_fifo_input_gives_the_report_of_the_regular_file(tmp_path, monkeypatch, capsys):
    # a pipe can be read only once: its bytes go to the C reader, and the
    # report is the regular file's, up to the path it names
    path, fifo = tmp_path / "g.tsv", tmp_path / "g.fifo"
    write_graph_tsv(random_directed_graph(30, 0.5, 4), str(path))
    os.mkfifo(fifo)
    sources = _loadtxt_sources(monkeypatch)
    assert cli_main(["analyze", "--input", str(path), "--method", "sweep"]) == 0
    want = capsys.readouterr().out.replace(str(path), "INPUT")

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        assert cli_main(["analyze", "--input", str(fifo), "--method", "sweep"]) == 0
    finally:
        if writer.is_alive():  # the reader never opened the pipe: let the writer's open return
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(10)
    assert capsys.readouterr().out.replace(str(fifo), "INPUT") == want
    assert sources[0] == os.path.abspath(path) and isinstance(sources[1], io.BytesIO)


def test_plain_file_with_a_compressed_suffix_is_read_from_its_bytes(tmp_path, monkeypatch):
    # numpy would open a .gz path through gzip; the parser reads its bytes
    path = tmp_path / "g.tsv"
    write_graph_tsv(random_directed_graph(12, 0.5, 3), str(path))
    sources = _loadtxt_sources(monkeypatch)
    want = _outcome(parse_graph, path)
    for suffix in (".gz", ".bz2", ".xz", ".lzma"):
        named = tmp_path / ("g.tsv" + suffix)
        named.write_bytes(path.read_bytes())
        assert _outcome(parse_graph, named) == want
    assert sources[0] == os.path.abspath(path) and all(isinstance(s, io.BytesIO) for s in sources[1:])
    assert len(sources) == 5


def test_line_loop_peak_memory_is_the_bytes_and_the_edges(tmp_path):
    # a 768-state directed file with one non-ASCII separator, or one comment
    # line with a character above U+FFFF: past the bytes, the UTF-8 check and
    # the line loop hold O(line) temporaries and the growing edge array
    g = random_directed_graph(768, 0.5, 1)
    path = tmp_path / "g.tsv"
    write_graph_tsv(g, str(path))
    raw = path.read_bytes()
    for old, new in [(b"\t", "\xa0"), (b"\n", "\n# \U0001F600\n")]:
        at = raw.index(old, 1000)
        path.write_bytes(raw[:at] + new.encode() + raw[at + 1 :])
        tracemalloc.start()
        try:
            parsed = parse_graph(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.edges.tobytes() == g.edges.tobytes()
        assert peak < len(raw) + 4 * g.edges.nbytes, new


_UTF8_CASES = [
    "undirected\n1\xa02\t1\n# \U0001F600\u3000\n2\t3\t1\n",
    "undirected\n1\t2\t1\n2\t3\t1\udcff\n",
    "directed\r\n# \u20ac\udce2\udc82x\r\n1\t2\t1\r\n",
    "directed\n1\t2\t1\n# \udcf0\udc9f\udc98",
    "directed\n# \udced\udca0\udc80\n1\t2\t1\n",
    "matrix-kind weight\r0 1\r# \udcc0\udcaf\r1 0\r",
]


@pytest.mark.parametrize("piece", [1, 2, 3, 5])
def test_utf8_check_in_pieces_names_the_byte_one_piece_names(tmp_path, monkeypatch, piece):
    # valid, invalid, truncated, surrogate and overlong sequences cut at
    # every piece boundary give what one piece of the whole file gives
    path = tmp_path / "in.txt"
    wanted = []
    for text in _UTF8_CASES:
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        wanted.append(_outcome(parse_graph, path))
    assert sum("not UTF-8" in str(want[1]) for want in wanted) == 5
    monkeypatch.setattr(isoperim.io, "_UTF8_PIECE", piece)
    for text, want in zip(_UTF8_CASES, wanted):
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert _outcome(parse_graph, path) == want, text


@pytest.mark.parametrize("kind", ["transition", "weight"])
def test_dense_rows_above_the_state_limit_are_refused_at_their_line(tmp_path, monkeypatch, kind):
    # the first row longer than the cap is refused before it is converted
    monkeypatch.setattr(isoperim.chains, "MAX_STATES", 4)
    path = tmp_path / "m.txt"
    path.write_text(f"matrix-kind {kind}\n# 5 x 5\n" + "0.2 0.2 0.2 0.2 0.2\n" * 5)
    with pytest.raises(TooLarge) as info:
        parse_graph(str(path))
    assert str(info.value) == f"{path}:3: 5 states exceed the limit of 4"
    with pytest.raises(TooLarge, match="5 states exceed the limit of 4"):
        MarkovChain(P=np.full((5, 5), 0.2), pi=None)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
def test_weight_matrix_load_peak_memory_in_n_squared_doubles(tmp_path, symmetric):
    # a 256-state weight matrix at 17 digits, 2.5 n^2 doubles of text: its
    # converted entries are divided into the chain's P in place, and the text
    # is dropped before the chain is built, so the peak comes while the text
    # is converted, symmetric or not (3.7 n^2 doubles), and not during the
    # directed chain's stationary solve
    n = 256
    W = np.random.default_rng(256).random((n, n))
    if symmetric:
        W = np.triu(W) + np.triu(W, 1).T
    path = tmp_path / "w.txt"
    path.write_text("matrix-kind weight\n" + "\n".join(" ".join(f"{x:.17g}" for x in row) for row in W) + "\n")
    tracemalloc.start()
    try:
        c = load_chain(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.origin == ("undirected-graph" if symmetric else "directed-graph")
    assert c.P.tobytes() == (W / W.sum(axis=1, keepdims=True)).tobytes()
    assert peak <= 4.0 * 8 * n * n, peak / (8 * n * n)


_TRIANGLE_1E308 = "undirected\n1\t2\t1e308\n2\t3\t1e308\n1\t3\t1e308\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_TRIANGLE_1E308, "vertex 0 has a weighted degree past the float range"),
        ("matrix-kind weight\n0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n", "vertex 0 has a weighted degree past the float range"),
        ("matrix-kind weight\n0 1 1\n1 0 1\n1e308 1e308 0\n", "vertex 2 has a weighted degree past the float range"),
        ("undirected\n1\t2\t1e308\n", "the weighted degrees sum past the float range"),
        ("matrix-kind weight\n1e308 1e308\n1e308 1e308\n", "vertex 0 has a weighted degree past the float range"),
        ("matrix-kind weight\n0 1e308\n1e308 0\n", "the weighted degrees sum past the float range"),
    ],
    ids=["triangle-edge-tsv", "triangle-dense", "asymmetric-dense", "pair-edge-tsv", "full-dense", "pair-dense"],
)
def test_overflowing_degrees_are_one_typed_error(tmp_path, capsys, text, message):
    # a degree, or on an undirected graph the degrees' total, past the float
    # range is refused before numpy can warn
    path = tmp_path / "in.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as info:
            load_chain(str(path))
        assert str(info.value) == message
        assert cli_main(["verify", "--input", str(path)]) == 2
    assert _one_error_line(capsys) == f"error: {message}\n"


def test_directed_degrees_may_sum_past_the_float_range(tmp_path):
    # pi of a directed graph is solved for, so only each degree must be finite
    path = tmp_path / "in.txt"
    for text in ["directed\n1\t2\t1e308\n2\t1\t1e308\n", "matrix-kind weight\n0 1e308\n1.5e308 0\n"]:
        path.write_text(text)
        c = load_chain(str(path))
        assert c.origin == "directed-graph" and c.P.tolist() == [[0.0, 1.0], [1.0, 0.0]] and c.pi.tolist() == [0.5, 0.5]


def test_analyze_of_a_path_with_weights_2_to_the_minus_60_is_the_unit_report(tmp_path, capsys):
    # scaling every weight leaves the walk unchanged, and only an exact zero
    # degree is refused, however small the weights
    reports = []
    for w in ("1", repr(2.0**-60)):
        path = tmp_path / f"path-{w}.tsv"
        path.write_text(f"undirected\n1\t2\t{w}\n2\t3\t{w}\n")
        assert cli_main(["analyze", "--input", str(path)]) == 0
        reports.append(capsys.readouterr().out.replace(str(path), "INPUT"))
    assert reports[0] == reports[1] and '"origin": "undirected-graph"' in reports[0]


def test_write_graph_tsv_formats_each_weight_bit_pattern(tmp_path):
    # repeated weights are formatted once; -0.0 equals 0.0 but keeps its sign
    edges = [(0, 1, -0.0), (1, 2, 0.0), (0, 2, 0.1), (2, 3, 0.1), (0, 3, 1 / 3)]
    path = tmp_path / "g.tsv"
    write_graph_tsv(WeightedGraph(n=4, edges=edges), str(path))
    rows = [f"{u + 1}\t{v + 1}\t{w:.17g}" for u, v, w in edges]
    assert path.read_text() == "undirected\n" + "\n".join(rows) + "\n"
    assert rows[0].endswith("-0")


_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0, 1e300]),
    st.floats(min_value=0.0, max_value=1e308, allow_nan=False),
)


@st.composite
def _graphs(draw):
    """Graphs on up to 12 ids, directed or not, with self-loops and weights
    that repeat, are -0.0 or subnormal."""
    n = draw(st.integers(1, 12))
    directed = draw(st.booleans())
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair if directed else pair.map(sorted).map(tuple), unique=True, max_size=40))
    edges = [(u, v, draw(_WEIGHTS)) for u, v in pairs]
    return WeightedGraph(n=n, edges=edges, directed=directed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=_graphs(), block=st.sampled_from([1, 7, 1 << 16]))
@example(g=WeightedGraph(n=1, edges=[]), block=1)
@example(g=WeightedGraph(n=1, edges=[]), block=7)
def test_write_graph_tsv_matches_oracle(fuzz_dir, g, block):
    # blocks of 1 and 7 lines split every file the strategy draws
    path, ref = fuzz_dir / "written.tsv", fuzz_dir / "reference.tsv"
    with mock.patch.object(isoperim.io, "_BLOCK", block):
        write_graph_tsv(g, str(path))
    naive_write_graph_tsv(g, str(ref))
    assert path.read_bytes() == ref.read_bytes()


def test_write_graph_tsv_peak_memory_stays_below_twice_the_edges(tmp_path):
    # 523,776 lines, a 15 MiB file: the writer holds one block of lines,
    # never the whole text
    g = ht_counterexample_graph(1024)
    tracemalloc.start()
    try:
        write_graph_tsv(g, str(tmp_path / "g.tsv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.edges.nbytes
