"""The demos, the README's library quick start and its CLI examples run on
the current API, and that API exports the names it is pinned to."""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import isoperim
from isoperim.cli import cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    values = capsys.readouterr().out.split()
    assert len(values) == 3 and all(float(v) > 0 for v in values)


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    # each line reads the files the lines above it wrote
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n.*?```\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "isoperim", line
        assert cli_main(argv[1:]) == 0, line


# One public name per quantity: a chain's certificates are read through
# ChainAnalysis.cert, its exact minima through exact_minima or
# ChainAnalysis.exact, its sweep cuts through sweep_cuts or
# ChainAnalysis.sweep, its bound lines through bound_suite, and its
# stationary vector as MarkovChain(P).pi.
PUBLIC_NAMES = {
    # the modules the package imports
    "bounds", "chains", "cuts", "errors", "families", "io", "spectral",
    # bounds
    "BoundReport", "ChainAnalysis", "bound_suite", "geometric_chain_sum", "power_increment_supremum",
    # chains
    "MarkovChain", "WeightedGraph", "chain_from_graph", "is_irreducible", "is_reversible",
    "lazy_transform",
    # cuts
    "CutResult", "PhiProfile", "exact_minima", "phi_p_of_set", "phi_profile", "sweep_cuts",
    # families
    "PartitionBlocks", "ScanRow", "arc_phi_half", "block_log_sum", "block_merge_residual", "check_block_lower_bound",
    "circulant_lambda2", "cycle_graph", "dumbbell_graph", "gen_ht_counterexample", "ht_counterexample_graph",
    "hypercube_graph", "normalizer", "random_directed_graph", "random_reversible_graph", "scaling_scan",
    "sqrt_crossweight",
    # io
    "as_chain", "emit_report", "load_chain", "parse_graph", "write_graph_tsv",
    # spectral
    "SpectralCertificate", "chung_laplacian", "truncated_eigenvector",
}


def test_public_names_are_pinned():
    # a second path to a quantity cannot come back unnoticed; isoperim.cli is
    # bound only once something imports it
    public = {name for name in vars(isoperim) if not name.startswith("_")} - {"cli"}
    assert len(PUBLIC_NAMES) == 49
    assert public == PUBLIC_NAMES
