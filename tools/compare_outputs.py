"""Compare the isoperim CLI's outputs of two checkouts, byte for byte.

    python3 tools/compare_outputs.py --parent DIR --change DIR

Both DIRs are roots of an isoperim checkout (each with ``src/isoperim``).
The script writes one set of input files, then runs a fixed command matrix
through ``isoperim.cli.cli_main`` in one fresh interpreter per checkout, and
then each of the change's ``demos/*.py`` in an interpreter of its own, run
from that checkout with ``PYTHONPATH=<root>/src``. The matrix holds:

- every command of the three benchmark workloads for seeds 1 and 2, taken
  from ``perfbench/run.py`` with inputs from ``perfbench/inputs.py``;
- ``generate`` for every family, and three files past the writer's block of
  65536 lines (``ht-counterexample --n 400``, 79800 lines;
  ``random --n 400 --seed 1 --density 0.9``, about 72000; ``dumbbell --n 300``,
  89701);
- ``analyze``, ``verify`` and ``sweep`` on edge-tsv files (one of them a
  directed chain on 300 states) and on dense weight and transition matrices,
  self-loops included;
- ``sweep --p=-0`` and ``analyze --p=-0,1`` (JSON and text) on a random
  chain on 8 states, each with a twin that writes ``0`` for ``-0``;
- ``sweep`` and ``analyze --method sweep`` at p = 0, 1/2 and 1 on cycles,
  hypercubes and dumbbells within and above the exact cap, whose symmetric
  eigenvectors give tied level sets;
- ``verify --suite all`` and ``--suite directed`` and ``analyze --method
  sweep --directed-spectral`` on a 40-cycle, a 5-cube, a dumbbell of two K_15
  and a random reversible chain on 40 states, above the exact cap, where one
  eigensolve serves both certificates, and ``analyze`` with the default
  ``--method`` (``both``) on that random chain, which exits 2 above the cap;
- ``verify`` with each suite and ``analyze --directed-spectral`` on two
  chains written as dense transition matrices whose pi falls below 1e-11:
  a birth-death chain on 8 states (up-rate 1e-6, down-rate 1/2), where the
  stationary solve must get every entry of pi right for both certificates
  to succeed and agree, and the same chain on 6 states with up-rate 1e-3
  and 0.01 more on 3 -> 4, 4 -> 5 and 5 -> 3 (``light-cycle6``), whose
  cycle flows are below 1e-10 of the largest flow but have no reverse flow,
  so it fails detailed balance: the reversible suite exits 2, while the
  other commands, and ``sweep --p 0.75`` and ``analyze --method sweep`` on
  it, read Chung's certificate;
- ``analyze --method both`` on a birth-death chain on 12 states with
  up-rate 1e-8, whose pi falls to 2e-85;
- ``analyze --method exact`` at p = 0, 0.3, 1/2, 0.6, 0.9 and 1, and
  ``verify``, on a birth-death chain on 14 states with up-rate 4e-15
  (``birth-death14``), whose pi falls to 5.5e-184, below 2^-400, where the
  enumerator scores every exponent term by term on every set;
- ``analyze --method exact`` at p = 0, 0.3, 1/2, 3/4 and 1 on a cycle, a
  hypercube and a dumbbell, whose minimizers tie, and on random reversible
  and directed chains on 18 states, more than one block of the enumerator;
  the same at p = 0.6 and 0.9 on the tied chains and at p = 0.55 and 0.99 on
  the random ones, exponents in (1/2, 1) without 1/2 and 1;
- ``analyze --method both`` and ``verify --suite all`` on random reversible
  and directed chains on 20 states, ``analyze --method exact`` at p = 0.55
  and 0.99 on them, and ``analyze --method exact`` at p = 0, 1/2 and 1 on a
  20-cycle, whose blocks the enumerator splits across threads;
- ``analyze --p 0.7000001,0.7000002``, JSON and ``--report-format text``,
  on the reversible chain on 20 states and, with ``--method sweep``, on a
  random reversible chain on 40 states, above the exact cap: two exponents
  that agree to 6 significant digits;
- the first two of those on the reversible chain again, with the
  environment variable ``ISO_MAX_EXACT_N`` set to ``6`` and to ``abc``, each
  with its run without the variable as its twin: checkouts before the exact
  cap became a constant read the variable, and later ones ignore it;
- ``analyze --method exact`` at p = 0, 1/2, 3/4 and 1 on random reversible
  and directed chains on 14 states, one block of two slices that the
  enumerator splits across threads, and on a dense transition matrix of two
  pairs of states with an entry of 5e-16 between them, which is below the
  structural zero and so is no boundary;
- ``analyze`` and ``verify --suite all`` on a dense transition matrix on 3
  states with an entry of -1e-15, rounding that the chain sets to zero in a
  copy of the matrix it is handed;
- ``analyze --method exact`` at p = 0, 0.3, 1/2, 3/4 and 1, and at p = 0.6
  and 0.9 (the bracket without 1/2 and 1), on a random reversible chain on
  24 states, the default exact cap: 256 blocks of the high bits, each split
  across threads;
- ``analyze --method exact`` at p = 0.6, 3/4 and 0.9 on a dense transition
  matrix on 18 states whose rows sum to 1 + 5e-13, where the bracket's top,
  the largest row sum, is above 1;
- ``analyze`` and ``verify`` on dense weight matrices with a negative
  symmetric pair, a negative entry below the diagonal of an asymmetric
  matrix and one on the diagonal, on the 1 x 1 matrices ``5`` and ``0``, on
  a symmetric and an asymmetric matrix with ``-0`` entries, and on a
  triangle with weights 1e308, whose degrees overflow, as edge-tsv and as a
  dense matrix;
- ``scan`` on every n from 8 to 300, odd and even, and on 4095 and the cap
  65536, beyond the benchmark's five sizes;
- ``analyze`` on valid files laid out in the ways the readers accept:
  comments between body lines, CRLF and CR line ends, blank lines and
  ``\x0b`` / ``\x1f`` / ``\xa0`` separators, a ``1_0`` weight and a blank line
  before the header; on two copies of the 300-state directed file, past 65536
  lines, one with comment lines (numpy's C reader) and one with a ``\xa0``
  separator (the line loop); and on a 200 x 200 dense weight matrix;
- malformed or invalid files, which must exit 2, among them one per parse
  error of both formats, a ``#`` after the tokens of a line, a dense matrix
  of 16384 rows of 3 entries, and plain ASCII edge-tsv files that numpy's C
  reader converts or rejects before the line loop names the fault.

Each command built here names its input's format with ``--format``, which
checkouts before the file's header picked its reader required for a dense
matrix. In a checkout whose ``analyze`` has no ``--format``, each command
runs with ``--format <value>`` dropped, so that the two checkouts read each
file with the same reader.

A plan entry may name environment variables, set for its command alone,
and a twin: the id of another command whose results it must match in the
change's checkout. It may also be marked ``bound_names``: its bound names
may differ from the parent's.

It compares exit codes, standard output and every output file, and a
demo's standard error too, checks that each command that exits 2 wrote
exactly one ``error:`` line and nothing else to standard error, and prints
the error messages that differ. It exits 1 when an exit code, a standard
output or an output file differs, when a demo's standard error differs, when
a command's results differ from its twin's in the change's checkout, or
when that checkout writes a traceback or a malformed error;
otherwise 0.

Four kinds of difference are expected and reported as ``EXPECTED``: on
a file that is not UTF-8, checkouts before the UTF-8 check raise
``UnicodeDecodeError`` (a traceback), and later ones exit 2 with one
``error:`` line; a command with a twin may differ from the parent's run
when the change's run is the twin's: checkouts before ``-0`` read as ``0``
report such an exponent as ``-0``, and checkouts before the exact cap
became a constant follow ``ISO_MAX_EXACT_N``; a ``bound_names`` command
may differ in the ``p=`` of its ``phi_p_squared`` names (and the text
table's padding) when the change's names are distinct: checkouts before
names printed the shortest decimal that reads back as p wrote
``phi_p_squared[p=0.7]`` for both exponents; and on an empty file or a bad
header, where both exit 2, the change's one error line may list the four
headers where the parent's listed the two of the format it was given:
checkouts before the header picked the reader named only that format's.

Sizes above the state limit are left out: older checkouts try to allocate
them. A run takes about a minute on two cores; BLAS uses two threads.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from unittest import mock

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
_P_NAME = re.compile(r"phi_p_squared\[p=[^\]]*\](:directed)?")
# the headers an error names, after "expected header " or "header must be "
_HEADER_LIST = re.compile(r"(?<=expected header ).*|(?<=header must be ).*?(?=, got )")
HEADERS = ("undirected", "directed", "matrix-kind transition", "matrix-kind weight")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import inputs  # noqa: E402
import run as perfbench_run  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# 69999 distinct directed edges on ids 1..300, one per line.
_PLAIN_BODY = "".join(f"{k // 299 + 1}\t{(k // 299 + 1 + k % 299) % 300 + 1}\t0.5\n" for k in range(69999))

# Files that are not valid input, written as they are: (name, format, text).
FAULTY = [
    ("nan-weight.tsv", "edge-tsv", "undirected\n1\t2\t1\n2\t3\tnan\n"),
    ("negative-weight.tsv", "edge-tsv", "undirected\n1\t2\t1\n2\t3\t-1\n"),
    ("zero-id.tsv", "edge-tsv", "undirected\n1\t2\t1\n0\t2\t1\n"),
    ("reversed-duplicate.tsv", "edge-tsv", "undirected\n1\t2\t1\n2\t3\t1\n2\t1\t0.5\n"),
    ("directed-duplicate.tsv", "edge-tsv", "directed\n1\t2\t1\n2\t1\t1\n1\t2\t1\n"),
    ("bad-token.tsv", "edge-tsv", "undirected\n1\t2\t1\n2\tx\t1\n"),
    ("float-id.tsv", "edge-tsv", "undirected\n1\t2.5\t1\n"),
    ("token-count.tsv", "edge-tsv", "undirected\n1\t2\t1\t4\n"),
    ("bad-header.tsv", "edge-tsv", "graph\n1\t2\t1\n"),
    ("no-edges.tsv", "edge-tsv", "undirected\n# nothing\n"),
    ("empty.tsv", "edge-tsv", ""),
    ("isolated.tsv", "edge-tsv", "undirected\n1\t2\t1\n3\t3\t0\n"),
    ("one-state.tsv", "edge-tsv", "undirected\n1\t1\t2\n"),
    ("disconnected.tsv", "edge-tsv", "directed\n1\t2\t1\n2\t1\t1\n2\t3\t1\n"),
    ("negative-entry.txt", "dense-matrix", "matrix-kind weight\n0 1\n-1 0\n"),
    ("nan-entry.txt", "dense-matrix", "matrix-kind weight\n0 nan\n1 0\n"),
    ("not-square.txt", "dense-matrix", "matrix-kind weight\n0 1 1\n1 0 1\n"),
    ("not-square-16384.txt", "dense-matrix", "matrix-kind weight\n" + "0 1 1\n" * 16384),
    ("not-stochastic.txt", "dense-matrix", "matrix-kind transition\n0.5 0.4\n0.5 0.5\n"),
    ("bad-kind.txt", "dense-matrix", "matrix-kind foo\n0 1\n1 0\n"),
    ("no-body.txt", "dense-matrix", "matrix-kind weight\n"),
    ("crlf-bad-header.tsv", "edge-tsv", "# c\r\nundirected graph\r\n1\t2\t1\r\n"),
    ("dense-bad-header.txt", "dense-matrix", "\n# c\nmatrix-kind\n0 1\n1 0\n"),
    ("two-tokens.tsv", "edge-tsv", "directed\n1\t2\t1\n2\t1\n"),
    ("fault-then-misfit.tsv", "edge-tsv", "directed\n1\t2\tx\n2\t1\n"),
    ("misfit-then-fault.tsv", "edge-tsv", "directed\n1\t2\n2\tx\t1\n"),
    ("overflow-id.tsv", "edge-tsv", "undirected\n1\t99999999999999999999\t1\n"),
    ("negative-overflow-id.tsv", "edge-tsv", "directed\n1\t2\t1\n-99999999999999999999\t1\t1\n"),
    ("huge-id.tsv", "edge-tsv", "directed\n1\t2\t1\n2\t" + "9" * 400 + "\t1\n"),
    ("bad-weight.tsv", "edge-tsv", "undirected\n1\t2\t1\n2\t3\t1,5\n"),
    ("inf-weight.tsv", "edge-tsv", "undirected\n1\t2\tinf\n2\t3\t1\n"),
    ("comment-then-fault.tsv", "edge-tsv", "undirected\n1\t2\t1\n# note\n\n2\tx\t1\n"),
    ("comment-then-duplicate.tsv", "edge-tsv", "undirected\r\n1\t2\t1\r\n  # note\r\n2\t1\t1\r\n"),
    ("comment-then-entry.txt", "dense-matrix", "matrix-kind weight\n0 1\n# note\n1 x\n"),
    ("inf-then-token.txt", "dense-matrix", "matrix-kind weight\n0 inf\n1 x\n"),
    ("token-not-square.txt", "dense-matrix", "matrix-kind weight\n0 1 x\n1 0\n"),
    ("overflow-entry.txt", "dense-matrix", "matrix-kind transition\n0 1e400\n1 0\n"),
    ("hash-after-tokens.tsv", "edge-tsv", "directed\n# c\n1\t2\t1\n2\t1\t1\n1\t2\t3 # x\n"),
    # plain ASCII files, which numpy's C reader sees before the line loop
    ("plain-header-only.tsv", "edge-tsv", "directed\n"),
    ("plain-blank-body.tsv", "edge-tsv", "directed\n\n  \n"),
    ("plain-last-token.tsv", "edge-tsv", "directed\n" + _PLAIN_BODY + "1\tx\t1\n"),
    ("plain-last-two-tokens.tsv", "edge-tsv", "directed\n" + _PLAIN_BODY + "1\t2\n"),
    ("plain-duplicate.tsv", "edge-tsv", "undirected\n1\t2\t1\n2\t3\t1\n3\t2\t0.5\n"),
    ("plain-nan.tsv", "edge-tsv", "directed\n1\t2\t1\n2\t1\tnan\n"),
    ("plain-id-16385.tsv", "edge-tsv", "directed\n1\t2\t1\n16385\t1\t1\n"),
    ("plain-id-past-int64.tsv", "edge-tsv", "directed\n1\t2\t1\n2\t9223372036854775808\t1\n"),
    ("plain-blank-then-header.tsv", "edge-tsv", "\ndirected\n1\t2\t1\n2\t3\t1\n"),
]

# Files that are not UTF-8: "\udcff" is written as the byte 0xff.
NOT_UTF8 = [
    ("not-utf8.tsv", "edge-tsv", "undirected\n1\t2\t1\n2\t3\t1\udcff\n"),
    ("not-utf8-header.tsv", "edge-tsv", "undirected\udcff\n1\t2\t1\n"),
    ("not-utf8.txt", "dense-matrix", "matrix-kind weight\r\n0 1\udcff\r\n1 0\r\n"),
]

# Valid files laid out in the ways the readers accept: (name, format, text).
LAID_OUT = [
    ("laid-out.tsv", "edge-tsv", "# a graph\nundirected\r\n1\t2\t1\r\n\r\n# note\r\n2 3  0.5\r3\x0b4\x1f0.25\n\n  # 1 2 3\n4\xa01\t2\n \t\n"),
    ("laid-out-directed.tsv", "edge-tsv", "directed \n1\t2\t1\n# 2\t1\t1\n2\t3\t1\x0c\n3\t1\t1e-3\r\n3\t2\t2\n"),
    ("laid-out-weight.txt", "dense-matrix", "\n# weights\nmatrix-kind   weight\r\n0 1\xa00.5\r\n# row 2\r\n1\t0\x0b2\r\n\r\n0.5 2\x1f0\r\n"),
    ("laid-out-transition.txt", "dense-matrix", "matrix-kind transition\r0 1\r# note\r0.5 0.5\r"),
    ("underscore-weight.tsv", "edge-tsv", "directed\n1\t2\t1_0\n2\t1\t1\n"),
    ("blank-then-header.tsv", "edge-tsv", "\ndirected\n1\t2\t1\n2\t1\t1\n"),
]


# Dense weight matrices read straight into the walk, and degrees past the
# float range: (name, format, text), each given to analyze and verify.
WALKS = [
    ("negative-pair.txt", "dense-matrix", "matrix-kind weight\n0 -1.0 1\n-1 0 1\n1 1 0\n"),
    ("negative-below-diagonal.txt", "dense-matrix", "matrix-kind weight\n0 1 1\n-2 0 1\n1 1 0\n"),
    ("negative-diagonal.txt", "dense-matrix", "matrix-kind weight\n0 1\n1 -0.5\n"),
    ("one-by-one-5.txt", "dense-matrix", "matrix-kind weight\n5\n"),
    ("one-by-one-0.txt", "dense-matrix", "matrix-kind weight\n0\n"),
    ("triangle-1e308.tsv", "edge-tsv", "undirected\n1\t2\t1e308\n2\t3\t1e308\n1\t3\t1e308\n"),
    ("triangle-1e308.txt", "dense-matrix", "matrix-kind weight\n0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n"),
    ("minus-zero-sym.txt", "dense-matrix", "matrix-kind weight\n-0 1 -0\n1 -0 2\n-0 2 0\n"),
    ("minus-zero-asym.txt", "dense-matrix", "matrix-kind weight\n-0 1 -0\n2 0 1\n1 -0 -0\n"),
]


def _write_dense(path: str, kind: str, M: np.ndarray) -> None:
    body = "\n".join(" ".join(f"{x:.17g}" for x in row) for row in M)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"matrix-kind {kind}\n{body}\n")


def _birth_death(n: int, up: float, down: float) -> np.ndarray:
    """Transition matrix of the birth-death chain on n states with the given
    rates, holding on the diagonal."""
    P = np.diag(np.full(n - 1, up), 1) + np.diag(np.full(n - 1, down), -1)
    P[np.diag_indices(n)] = 1.0 - P.sum(axis=1)
    return P


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        fh.write(text)


def _file_commands(name: str, path: str, fmt: str) -> list[dict]:
    """analyze, verify and sweep on one valid input, to files and to stdout."""
    base = ["--input", path, "--format", fmt]
    return [
        {"id": f"analyze-{name}", "argv": ["analyze", *base, "--p", "0,0.5,0.75,1", "--out", "OUT/a.json"]},
        {"id": f"analyze-text-{name}", "argv": ["analyze", *base, "--method", "sweep", "--report-format", "text", "--out", "OUT/a.txt"]},
        {"id": f"analyze-directed-{name}", "argv": ["analyze", *base, "--p", "0.5,1", "--directed-spectral"]},
        {"id": f"verify-{name}", "argv": ["verify", *base, "--suite", "all"]},
        {"id": f"sweep-{name}", "argv": ["sweep", *base, "--p", "0.75", "--out", "OUT/s.json"]},
        {"id": f"sweep-stdout-{name}", "argv": ["sweep", *base, "--p", "1"]},
    ]


def _write_tied(path: str, family: str, size: int) -> None:
    """Unit-weight cycle on ``size`` vertices, hypercube of dimension
    ``size``, or two cliques K_size joined by one edge."""
    if family == "cycle":
        inputs.write_cycle(path, size)
        return
    if family == "hypercube":
        pairs = [(a, a ^ (1 << i)) for a in range(1 << size) for i in range(size) if not (a >> i) & 1]
    else:
        pairs = [(a + k, b + k) for k in (0, size) for a in range(size) for b in range(a + 1, size)] + [(size - 1, size)]
    lines = ["undirected"] + [f"{a + 1}\t{b + 1}\t1" for a, b in pairs]
    _write_text(path, "\n".join(lines) + "\n")


def _tied_commands(name: str, path: str) -> list[dict]:
    base = ["--input", path, "--format", "edge-tsv"]
    plan = [{"id": f"sweep-p{p}-{name}", "argv": ["sweep", *base, "--p", p]} for p in ("0", "0.5", "1")]
    plan.append({"id": f"analyze-sweep-{name}", "argv": ["analyze", *base, "--p", "0,0.5,1", "--method", "sweep", "--out", "OUT/t.json"]})
    return plan


def build_plan(work: str) -> list[dict]:
    """Write the inputs under ``work`` and return the commands. An argument
    starting with ``OUT/`` names an output file in the checkout's own
    output directory."""
    plan: list[dict] = []
    for seed in (1, 2):
        for workload, build in perfbench_run.WORKLOADS.items():
            bench_dir = os.path.join(work, f"{workload}-{seed}")
            os.makedirs(bench_dir)
            for cmd in build(bench_dir, np.random.default_rng(seed), perfbench_run.References()):
                outs = {p: f"OUT/{workload}-{seed}-{os.path.basename(p)}" for p in cmd.outputs}
                plan.append({"id": f"{cmd.id}-seed{seed}", "argv": [outs.get(a, a) for a in cmd.argv]})

    families = [["cycle", "--n", "7"], ["hypercube", "--n", "4"], ["dumbbell", "--n", "4"], ["ht-counterexample", "--n", "64"]]
    families += [["random", "--n", "9", "--seed", str(s), "--density", d] for s in (0, 3) for d in ("0.5", "0.2")]
    # more lines than one block of the writer
    families += [["ht-counterexample", "--n", "400"], ["dumbbell", "--n", "300"]]
    families += [["random", "--n", "400", "--seed", "1", "--density", "0.9"]]
    for args in families:
        plan.append({"id": "generate-" + "-".join(a.lstrip("-") for a in args), "argv": ["generate", "--family", *args, "--out", "OUT/g.tsv"]})

    rng = np.random.default_rng(7)
    valid = []
    for name, write in (("rev8", inputs.write_random_reversible), ("dir8", inputs.write_random_directed)):
        path = os.path.join(work, f"{name}.tsv")
        write(path, 8, 0.4, rng)
        valid.append((name, path, "edge-tsv"))
    path = os.path.join(work, "dir300.tsv")  # plain ASCII, past 65536 lines
    inputs.write_random_directed(path, 300, 0.8, np.random.default_rng(300))
    valid.append(("dir300", path, "edge-tsv"))
    with open(path, "rb") as fh:
        head, body = fh.read().split(b"\n", 1)
    middle = body.index(b"\n", len(body) // 2) + 1
    copies = {
        "dir300-comments.tsv": head + b"\n# edges\n" + body[:middle] + b"  # half way\n\n##\n" + body[middle:] + b"# end",
        "dir300-nbsp.tsv": head + b"\n" + body.replace(b"\t", "\xa0".encode(), 1),
    }
    for name, data in copies.items():
        with open(os.path.join(work, name), "wb") as fh:
            fh.write(data)
        plan.append({"id": f"analyze-{name}", "argv": ["analyze", "--input", os.path.join(work, name), "--format", "edge-tsv", "--p", "0.5,1"]})
    loops = os.path.join(work, "loops.tsv")
    _write_text(loops, "undirected\n1\t1\t0.5\n1\t2\t1\n3\t2\t2\n3\t1\t0.25\n4\t4\t0\n4\t3\t1\n")
    dloops = os.path.join(work, "dloops.tsv")
    _write_text(dloops, "directed\n1\t2\t1\n2\t2\t3\n2\t3\t1\n3\t1\t0.5\n3\t3\t0\n1\t3\t2\n")
    valid += [("loops", loops, "edge-tsv"), ("dloops", dloops, "edge-tsv")]

    W = rng.random((7, 7)) * (rng.random((7, 7)) < 0.6)
    W[np.arange(7), (np.arange(7) + 1) % 7] = 1.0
    for name, M, kind in (
        ("dense-sym", np.triu(W) + np.triu(W, 1).T, "weight"),
        ("dense-asym", W, "weight"),
        ("dense-transition", W / W.sum(axis=1, keepdims=True), "transition"),
    ):
        path = os.path.join(work, f"{name}.txt")
        _write_dense(path, kind, M)
        valid.append((name, path, "dense-matrix"))
    for name, path, fmt in valid:
        plan += _file_commands(name, path, fmt)
    # an exponent written -0 is 0: each command has a --p 0 twin
    base = ["--input", os.path.join(work, "rev8.tsv"), "--format", "edge-tsv"]
    for zero in ("-0", "0"):
        cmds = [
            {"id": f"sweep-p{zero}-rev8", "argv": ["sweep", *base, f"--p={zero}", "--out", f"OUT/z{zero}.json"]},
            {"id": f"analyze-p{zero},1-rev8", "argv": ["analyze", *base, f"--p={zero},1"]},
            {"id": f"analyze-text-p{zero},1-rev8", "argv": ["analyze", *base, f"--p={zero},1", "--report-format", "text"]},
        ]
        plan += [{**cmd, "twin": cmd["id"].replace("-p-0", "-p0")} if zero == "-0" else cmd for cmd in cmds]
    path = os.path.join(work, "dense200.txt")
    _write_dense(path, "weight", np.random.default_rng(200).random((200, 200)))
    plan.append({"id": "analyze-dense200", "argv": ["analyze", "--input", path, "--format", "dense-matrix", "--p", "0.5,1"]})

    # sizes on both sides of the default exact cap of 24 states
    for family, size in (("cycle", 12), ("cycle", 40), ("hypercube", 4), ("hypercube", 5), ("dumbbell", 5), ("dumbbell", 15)):
        path = os.path.join(work, f"tied-{family}{size}.tsv")
        _write_tied(path, family, size)
        plan += _tied_commands(f"{family}{size}", path)
    # both certificates of reversible chains above the cap, and of chains
    # with tiny pi, one of which the reversible certificate refuses
    path = os.path.join(work, "rev40.tsv")
    inputs.write_random_reversible(path, 40, 0.3, np.random.default_rng(40))
    plan.append({"id": "analyze-default-method-rev40", "argv": ["analyze", "--input", path, "--format", "edge-tsv"]})
    both = [("rev40", path, "edge-tsv")] + [(name, os.path.join(work, f"tied-{name}.tsv"), "edge-tsv") for name in ("cycle40", "hypercube5", "dumbbell15")]
    light_cycle = _birth_death(6, 1e-3, 0.5)
    for a, b in ((3, 4), (4, 5), (5, 3)):
        light_cycle[a, b] += 0.01
        light_cycle[a, a] -= 0.01
    tiny_pi = []
    chains = [("birth-death8", _birth_death(8, 1e-6, 0.5)), ("light-cycle6", light_cycle), ("birth-death12", _birth_death(12, 1e-8, 0.5))]
    chains.append(("birth-death14", _birth_death(14, 4e-15, 0.5)))
    for name, P in chains:
        path = os.path.join(work, f"{name}.txt")
        _write_dense(path, "transition", P)
        tiny_pi.append((name, path, "dense-matrix"))
    for name, path, fmt in both + tiny_pi[:2]:
        base = ["--input", path, "--format", fmt]
        suites = ("all", "directed") if fmt == "edge-tsv" else ("all", "reversible", "directed")
        plan += [{"id": f"verify-{suite}-{name}", "argv": ["verify", *base, "--suite", suite]} for suite in suites]
        argv = ["analyze", *base, "--p", "0.5,0.75,1", "--directed-spectral", "--out", "OUT/b.json"]
        plan.append({"id": f"analyze-directed-spectral-{name}", "argv": argv if fmt == "dense-matrix" else [*argv, "--method", "sweep"]})
    name, path, fmt = tiny_pi[1]
    plan.append({"id": f"sweep-{name}", "argv": ["sweep", "--input", path, "--format", fmt, "--p", "0.75"]})
    plan.append({"id": f"analyze-sweep-{name}", "argv": ["analyze", "--input", path, "--format", fmt, "--method", "sweep", "--p", "0.5,0.75,1"]})
    name, path, fmt = tiny_pi[2]
    plan.append({"id": f"analyze-both-{name}", "argv": ["analyze", "--input", path, "--format", fmt, "--method", "both", "--p", "0,0.5,0.75,1"]})
    # pi falls below 2^-400: the exact pass scores every exponent term by term on every set
    name, path, fmt = tiny_pi[3]
    plan.append({"id": f"analyze-exact-{name}", "argv": ["analyze", "--input", path, "--format", fmt, "--method", "exact", "--p", "0,0.3,0.5,0.6,0.9,1"]})
    plan.append({"id": f"verify-{name}", "argv": ["verify", "--input", path, "--format", fmt]})
    exact = [(name, os.path.join(work, f"tied-{name}.tsv")) for name in ("cycle12", "hypercube4", "dumbbell5")]
    for name, write in (("rev18", inputs.write_random_reversible), ("dir18", inputs.write_random_directed)):
        path = os.path.join(work, f"{name}.tsv")
        write(path, 18, 0.4, np.random.default_rng(18))
        exact.append((name, path))
    for name, path in exact:
        argv = ["analyze", "--input", path, "--format", "edge-tsv", "--method", "exact", "--p", "0,0.3,0.5,0.75,1"]
        plan.append({"id": f"analyze-exact-{name}", "argv": argv})
        # exponents in (1/2, 1) without 1/2 and 1
        ps = "0.55,0.99" if name in ("rev18", "dir18") else "0.6,0.9"
        plan.append({"id": f"analyze-exact-{name}-p{ps}", "argv": [*argv[:-1], ps]})

    # 20 states: about 2^15 admissible sets per block, which the enumerator
    # splits across threads
    for name, write in (("rev20", inputs.write_random_reversible), ("dir20", inputs.write_random_directed)):
        path = os.path.join(work, f"{name}.tsv")
        write(path, 20, 0.4, np.random.default_rng(20))
        base = ["--input", path, "--format", "edge-tsv"]
        plan.append({"id": f"analyze-both-{name}", "argv": ["analyze", *base, "--method", "both", "--p", "0,0.5,0.75,1"]})
        plan.append({"id": f"verify-{name}", "argv": ["verify", *base, "--suite", "all"]})
        plan.append({"id": f"analyze-exact-{name}-p0.55,0.99", "argv": ["analyze", *base, "--method", "exact", "--p", "0.55,0.99"]})
    # exponents that agree to 6 significant digits, within the cap and above it
    for name, method in (("rev20", "both"), ("rev40", "sweep")):
        argv = ["analyze", "--input", os.path.join(work, f"{name}.tsv"), "--format", "edge-tsv", "--method", method, "--p", "0.7000001,0.7000002"]
        plan.append({"id": f"analyze-close-p-{name}", "argv": argv, "bound_names": True})
        plan.append({"id": f"analyze-text-close-p-{name}", "argv": [*argv, "--report-format", "text"], "bound_names": True})
    # ISO_MAX_EXACT_N, which once set the exact cap, changes nothing
    twins = [cmd for cmd in plan if cmd["id"] in ("analyze-both-rev20", "verify-rev20")]
    for value in ("6", "abc"):
        plan += [{"id": f"{cmd['id']}-cap-env-{value}", "argv": cmd["argv"], "env": {"ISO_MAX_EXACT_N": value}, "twin": cmd["id"]} for cmd in twins]
    # 14 states: one block of two slices, which the enumerator splits across
    # threads; and a 0 <-> 3 entry of 5e-16, below the structural zero
    tiny = 5e-16
    P = np.array([[0.5 - tiny, 0.5, 0.0, tiny], [0.5, 0.4, 0.1, 0.0], [0.0, 0.1, 0.4, 0.5], [tiny, 0.0, 0.5, 0.5 - tiny]])
    path = os.path.join(work, "tiny-entry.txt")
    _write_dense(path, "transition", P)
    cases = [("tiny-entry", path, "dense-matrix")]
    for name, write in (("rev14", inputs.write_random_reversible), ("dir14", inputs.write_random_directed)):
        path = os.path.join(work, f"{name}.tsv")
        write(path, 14, 0.4, np.random.default_rng(14))
        cases.append((name, path, "edge-tsv"))
    for name, path, fmt in cases:
        argv = ["analyze", "--input", path, "--format", fmt, "--method", "exact", "--p", "0,0.5,0.75,1"]
        plan.append({"id": f"analyze-exact-{name}", "argv": argv})
    # a -1e-15 entry, which the chain sets to zero in a copy of the parsed matrix
    path = os.path.join(work, "negative-rounding.txt")
    _write_dense(path, "transition", np.array([[0.5, 0.500000000000001, -1e-15], [0.1, 0.1, 0.8], [0.05, 0.05, 0.9]]))
    base = ["--input", path, "--format", "dense-matrix"]
    plan.append({"id": "analyze-negative-rounding", "argv": ["analyze", *base, "--p", "0,0.5,0.75,1"]})
    plan.append({"id": "verify-negative-rounding", "argv": ["verify", *base, "--suite", "all"]})
    path = os.path.join(work, "cycle20.tsv")
    _write_tied(path, "cycle", 20)
    argv = ["analyze", "--input", path, "--format", "edge-tsv", "--method", "exact", "--p", "0,0.5,1"]
    plan.append({"id": "analyze-exact-cycle20", "argv": argv})
    # 24 states, the default exact cap: 256 blocks of the high bits
    path = os.path.join(work, "rev24.tsv")
    inputs.write_random_reversible(path, 24, 0.4, np.random.default_rng(24))
    argv = ["analyze", "--input", path, "--format", "edge-tsv", "--method", "exact", "--p", "0,0.3,0.5,0.75,1"]
    plan.append({"id": "analyze-exact-rev24", "argv": argv})
    plan.append({"id": "analyze-exact-rev24-p0.6,0.9", "argv": [*argv[:-1], "0.6,0.9"]})
    # 18 states whose rows sum to 1 + 5e-13, above 1
    W = np.random.default_rng(180).random((18, 18))
    path = os.path.join(work, "dense18-above-one.txt")
    _write_dense(path, "transition", W / W.sum(axis=1, keepdims=True) * (1.0 + 5e-13))
    argv = ["analyze", "--input", path, "--format", "dense-matrix", "--method", "exact", "--p", "0.6,0.75,0.9"]
    plan.append({"id": "analyze-exact-dense18-above-one", "argv": argv})

    for name, ns in (("8-300", range(8, 301)), ("4095-65536", (4095, 65536))):
        plan.append({"id": f"scan-{name}", "argv": ["scan", "--n-list", ",".join(map(str, ns)), "--out", "OUT/scan.csv"]})

    for name, fmt, text in LAID_OUT:
        path = os.path.join(work, name)
        _write_text(path, text)
        plan.append({"id": f"analyze-{name}", "argv": ["analyze", "--input", path, "--format", fmt, "--p", "0.5,1"]})
    for name, fmt, text in WALKS:
        path = os.path.join(work, name)
        _write_text(path, text)
        plan += [{"id": f"{command}-{name}", "argv": [command, "--input", path, "--format", fmt]} for command in ("analyze", "verify")]
    for kind, cases in (("faulty", FAULTY), ("not-utf8", NOT_UTF8)):
        for name, fmt, text in cases:
            path = os.path.join(work, name)
            _write_text(path, text)
            plan.append({"id": f"{kind}-{name}", "argv": ["analyze", "--input", path, "--format", fmt]})
    return plan


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _takes_format(cli) -> bool:
    """Whether a checkout's ``analyze`` still has a ``--format`` option."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return any("--format" in a.option_strings for a in sub.choices["analyze"]._actions)


def worker(root: str, plan_path: str, out_dir: str, result_path: str) -> int:
    """Run the plan in this interpreter with the package of ``root``."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from isoperim import cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(src, "isoperim"):
        raise SystemExit(f"isoperim was imported from {cli.__file__}, not from {src}")
    cli_main = cli.cli_main
    takes_format = _takes_format(cli)

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    results = []
    for cmd in plan:
        argv = [os.path.join(out_dir, a[4:]) if a.startswith("OUT/") else a for a in cmd["argv"]]
        if not takes_format and "--format" in argv:
            k = argv.index("--format")
            del argv[k : k + 2]
        outputs = [a for a in argv if a.startswith(out_dir)]
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, cmd.get("env", {})), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(argv)
            except Exception:
                rc = None
                err.write(traceback.format_exc())
        results.append(
            {
                "id": cmd["id"],
                "twin": cmd.get("twin"),
                "bound_names": cmd.get("bound_names", False),
                "rc": rc,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "files": [_digest(p) for p in outputs],
            }
        )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


def run_checkout(root: str, plan_path: str, work: str, label: str, demos: list[str]) -> list[dict]:
    """The plan's results, then one per demo, each demo run from ``root`` in
    its own interpreter with ``PYTHONPATH=root/src``."""
    out_dir = os.path.join(work, f"out-{label}")
    os.makedirs(out_dir)
    result_path = os.path.join(work, f"result-{label}.json")
    env = {k: v for k, v in os.environ.items() if k not in ("ISO_MAX_EXACT_N", "PYTHONPATH")}
    env.update({var: "2" for var in BLAS_VARS})
    args = [sys.executable, os.path.abspath(__file__), "--worker", root, plan_path, out_dir, result_path]
    subprocess.run(args, cwd=out_dir, env=env, check=True)
    with open(result_path, encoding="utf-8") as fh:
        results = json.load(fh)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for demo in demos:
        proc = subprocess.run([sys.executable, os.path.join(root, "demos", demo)], cwd=out_dir, env=env, capture_output=True, text=True)
        results.append({"id": f"demo-{demo}", "rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": []})
    return results


def _error_ok(res: dict) -> bool:
    """A command that exits 2 writes exactly one ``error:`` line."""
    err = res["stderr"]
    return res["rc"] != 2 or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))


def _same(a: dict, b: dict) -> bool:
    return all(a[key] == b[key] for key in ("rc", "stdout", "stderr", "files"))


def _unnamed(stdout: str) -> str:
    """Standard output without the p of its phi_p_squared names or the
    padding a name's length sets."""
    return re.sub(r" +", " ", _P_NAME.sub(lambda m: "phi_p_squared[p=?]" + (m[1] or ""), stdout))


def _expected(p: dict, c: dict, twin: dict | None) -> str | None:
    """Why the change may differ from the parent on a command, or None: a
    file that is not UTF-8 turns a traceback into a well-formed exit 2, a
    command with a twin writes what its twin writes (an exponent written
    -0 reads as 0; ISO_MAX_EXACT_N is ignored), and a ``bound_names``
    command differs only in the p of its bound names, which are distinct;
    and an empty file or a bad header is told all four headers."""
    if c["id"].startswith("not-utf8-") and p["rc"] is None and c["rc"] == 2 and _error_ok(c):
        return "traceback -> exit 2"
    if twin is not None and _same(c, twin) and not _same(p, c):
        return f"as its twin {twin['id']}"
    if c.get("bound_names") and not _same(p, c):
        names = [m[0] for m in _P_NAME.finditer(c["stdout"])]
        same_rest = all(p[key] == c[key] for key in ("rc", "stderr", "files")) and _unnamed(p["stdout"]) == _unnamed(c["stdout"])
        if same_rest and len(set(names)) == len(names):
            return f"bound names {', '.join(names)}"
    if p["rc"] == c["rc"] == 2 and _error_ok(c) and all(p[key] == c[key] for key in ("stdout", "files")):
        same_rest = _HEADER_LIST.sub("?", p["stderr"]) == _HEADER_LIST.sub("?", c["stderr"])
        if same_rest and p["stderr"] != c["stderr"] and all(repr(h) in c["stderr"] for h in HEADERS):
            return "the four headers"
    return None


def compare(parent: list[dict], change: list[dict]) -> int:
    failures = 0
    same_messages = 0
    expected = 0
    by_id = {c["id"]: c for c in change}
    for p, c in zip(parent, change):
        twin = by_id[c["twin"]] if c.get("twin") else None
        why = _expected(p, c, twin)
        if why is not None:
            expected += 1
            print(f"EXPECTED {c['id']}: {why}\n    change stderr: {c['stderr'].rstrip()}")
            continue
        problems = []
        if twin is not None and not _same(c, twin):
            problems.append(f"differs from its twin {c['twin']}")
        if c["id"].startswith("demo-") and p["stderr"] != c["stderr"]:
            problems.append("stderr differs")
        if p["rc"] != c["rc"]:
            problems.append(f"exit code {p['rc']} -> {c['rc']}")
        if p["stdout"] != c["stdout"]:
            problems.append("stdout differs")
        if p["files"] != c["files"]:
            problems.append("output files differ")
        if c["rc"] is None:
            problems.append("traceback")
        if not _error_ok(c):
            problems.append("error output is not one 'error:' line")
        if problems:
            failures += 1
            print(f"DIFF {c['id']}: {'; '.join(problems)}")
            if c["stderr"]:
                print(f"    change stderr: {c['stderr'].rstrip()}")
        if p["stderr"] == c["stderr"]:
            same_messages += 1
        else:
            print(f"MESSAGE {c['id']}:\n    parent: {p['stderr'].rstrip()}\n    change: {c['stderr'].rstrip()}")
    codes = collections.Counter(c["rc"] for c in change)
    print(
        f"{len(change)} commands (exit codes {dict(sorted(codes.items(), key=str))}): "
        f"{len(change) - failures - expected} identical in exit code, stdout and files with well-formed errors, "
        f"{same_messages} with identical stderr, {expected} expected differences"
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="root of the reference checkout")
    parser.add_argument("--change", required=True, help="root of the checkout under test")
    args = parser.parse_args(argv)
    roots = {}
    for label in ("parent", "change"):
        root = os.path.abspath(getattr(args, label))
        if not os.path.isfile(os.path.join(root, "src", "isoperim", "cli.py")):
            parser.error(f"{root} is not an isoperim checkout (no src/isoperim/cli.py)")
        roots[label] = root
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        inputs_dir = os.path.join(work, "inputs")
        os.makedirs(inputs_dir)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(build_plan(inputs_dir), fh)
        demos = sorted(name for name in os.listdir(os.path.join(roots["change"], "demos")) if name.endswith(".py"))
        results = {label: run_checkout(root, plan_path, work, label, demos) for label, root in roots.items()}
    return compare(results["parent"], results["change"])


if __name__ == "__main__":
    if len(sys.argv) == 6 and sys.argv[1] == "--worker":
        sys.exit(worker(*sys.argv[2:]))
    sys.exit(main())
