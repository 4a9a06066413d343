"""File formats and report serialization.

Two input formats are supported. ``edge-tsv`` starts with a header line
``undirected`` or ``directed`` followed by ``u<TAB>v<TAB>w`` lines with
1-based vertex ids (``#`` comments and blank lines ignored); undirected edges
are stored once, so listing both (u, v) and (v, u) is a parse error.
``dense-matrix`` starts with ``matrix-kind transition`` or
``matrix-kind weight`` followed by n rows of n whitespace-separated reals; a
transition matrix becomes a validated raw-matrix chain, a weight matrix
becomes an undirected graph when symmetric and a directed one otherwise.

All numeric output is decimal with 17 significant digits, so every float
round-trips bit-identically and identical inputs give byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Callable

import numpy as np

from . import __version__ as _version
from .bounds import BoundReport
from .chains import MarkovChain, WeightedGraph, chain_from_directed, chain_from_matrix, chain_from_undirected, edge_fault
from .cuts import CutResult
from .errors import InputError, NumericalFailure

FORMATS = ("edge-tsv", "dense-matrix")


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalFailure(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


def _header_and_body(path: str, headers: tuple[str, ...]) -> tuple[str, list[tuple[int, str]]]:
    """The header line, one of ``headers`` up to whitespace, and the numbered
    lines after it; blank lines and ``#`` comments are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, line) for lineno, raw in enumerate(fh, start=1) if (line := raw.strip()) and line[0] != "#"]
    expected = " or ".join(map(repr, headers))
    if not lines:
        raise InputError(f"{path}: empty file, expected header {expected}")
    lineno, header = lines[0]
    if " ".join(header.split()) not in headers:
        raise InputError(f"{path}:{lineno}: header must be {expected}, got {header!r}")
    if len(lines) == 1:
        raise InputError(f"{path}: nothing after the header")
    return " ".join(header.split()), lines[1:]


def _graph(path: str, n: int, edges: np.ndarray, directed: bool, source: Callable[[int], tuple]) -> WeightedGraph:
    """Graph of parsed edges; a faulty row is reported at ``source(row) = (lineno, u, v, w)``."""
    try:
        return WeightedGraph(n=n, edges=edges, directed=directed, allow_self_loops=True)
    except InputError:
        row, reason = edge_fault(edges, n, directed, True)
        lineno, u, v, w = source(row)
        raise InputError(f"{path}:{lineno}: " + reason.format(u=u, v=v, w=repr(w), ids=f"1..{n}")) from None


# The ASCII characters str.split() separates tokens at.
_SPACE = np.array([chr(b).isspace() for b in range(128)])


def _edge_tsv_whole(path: str) -> tuple[bool, np.ndarray] | None:
    """Header kind and raw (u, v, w) rows of an edge-tsv file, parsed from the
    whole body at once; None when the body needs the line-by-line parser:
    a comment, non-ASCII text, a line that is not three tokens, or a token
    that ``int``/``float`` reject. Ids go through an integer dtype, so
    ``2.5`` is no id."""
    with open(path, "r", encoding="utf-8") as fh:
        header = ""
        while not header or header[0] == "#":
            line = fh.readline()
            if not line:
                return None
            header = line.strip()
        body = fh.read()
    header = " ".join(header.split())
    if header not in ("undirected", "directed") or not body.isascii() or "#" in body:
        return None
    text = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    space = _SPACE[text]
    starts = ~space
    starts[1:] &= space[:-1]
    tokens_before = np.searchsorted(np.flatnonzero(starts), np.append(np.flatnonzero(text == 10), text.size))
    del text, space, starts
    per_line = np.diff(tokens_before, prepend=0)
    if tokens_before[-1] == 0 or not np.all((per_line == 0) | (per_line == 3)):
        return None
    tokens = body.split()
    del body
    edges = np.empty((len(tokens) // 3, 3))
    try:
        edges[:, 0] = np.array(tokens[0::3], dtype=np.int64)
        edges[:, 1] = np.array(tokens[1::3], dtype=np.int64)
        edges[:, 2] = np.array(tokens[2::3], dtype=float)
    except (ValueError, OverflowError):
        return None
    return header == "directed", edges


def _parse_edge_tsv(path: str) -> WeightedGraph:
    whole = _edge_tsv_whole(path)
    if whole is not None:
        directed, edges = whole
        try:
            return WeightedGraph(n=_zero_based(edges, directed), edges=edges, directed=directed, allow_self_loops=True)
        except InputError:
            pass  # the line-by-line parse below names the faulty line
    header, body = _header_and_body(path, ("undirected", "directed"))
    directed = header == "directed"
    rows = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 'u<TAB>v<TAB>w', got {line!r}")
        try:
            rows.append((float(int(parts[0])), float(int(parts[1])), float(parts[2])))
        except (ValueError, OverflowError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    edges = np.array(rows)
    n = _zero_based(edges, directed)
    return _graph(path, n, edges, directed, lambda row: (body[row][0], *body[row][1].split()))


def _zero_based(edges: np.ndarray, directed: bool) -> int:
    """Make parsed (u, v, w) rows 0-based in place, with u <= v when
    undirected, and return the number of vertices."""
    edges[:, :2] -= 1
    if not directed:
        edges[:, :2].sort(axis=1)
    return max(int(edges[:, :2].max()) + 1, 1)


def _parse_dense(path: str) -> WeightedGraph | MarkovChain:
    header, body = _header_and_body(path, ("matrix-kind transition", "matrix-kind weight"))
    rows = []
    for lineno, line in body:
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        bad = [tok for tok, x in zip(line.split(), rows[-1]) if not math.isfinite(x)]
        if bad:
            raise InputError(f"{path}:{lineno}: entry {bad[0]!r} is not a finite number")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError(f"{path}: matrix must be square, got row lengths {[len(r) for r in rows]}")
    M = np.array(rows, dtype=float)
    if header == "matrix-kind transition":
        return chain_from_matrix(M, origin="raw-matrix")
    directed = not np.array_equal(M, M.T)
    u, v = np.nonzero(M if directed else np.triu(M))
    edges = np.column_stack([u, v, M[u, v]])
    return _graph(path, n, edges, directed, lambda r: (body[u[r]][0], u[r] + 1, v[r] + 1, body[u[r]][1].split()[v[r]]))


def parse_graph(path: str, format: str) -> WeightedGraph | MarkovChain:
    """Read an input file; returns a graph, or a chain for transition matrices."""
    if format == "edge-tsv":
        return _parse_edge_tsv(path)
    if format == "dense-matrix":
        return _parse_dense(path)
    raise InputError(f"unknown format {format!r}; expected one of {FORMATS}")


def as_chain(obj: WeightedGraph | MarkovChain) -> MarkovChain:
    """Turn a parsed input into a chain via the matching constructor."""
    if isinstance(obj, MarkovChain):
        return obj
    return chain_from_directed(obj) if obj.directed else chain_from_undirected(obj)


def load_chain(path: str, format: str) -> MarkovChain:
    return as_chain(parse_graph(path, format))


def write_graph_tsv(g: WeightedGraph, path: str) -> None:
    """Write edge-tsv with 1-based ids and full-precision weights.

    Each distinct id and each distinct weight (by bit pattern, so -0.0 keeps
    its sign) is formatted once.
    """
    bits, which = np.unique(g.edges[:, 2].view(np.int64), return_inverse=True)
    weights = [_fmt(w) for w in bits.view(float).tolist()]
    ids = [str(i) for i in range(g.n + 1)]
    us, vs = (g.edges[:, :2].astype(np.int64) + 1).T.tolist()
    lines = ["directed" if g.directed else "undirected"]
    lines += [f"{ids[u]}\t{ids[v]}\t{weights[k]}" for u, v, k in zip(us, vs, which.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# analysis reports
# --------------------------------------------------------------------------

def cut_to_dict(cut: CutResult) -> dict:
    return {
        "p": cut.p,
        "method": cut.method,
        "subset": [v + 1 for v in cut.subset],  # 1-based outside the library
        "numerator": cut.numerator,
        "pi_mass": cut.pi_mass,
        "phi": cut.phi,
    }


def bound_to_dict(rep: BoundReport) -> dict:
    return {
        "name": rep.name,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "slack": rep.slack,
        "holds": rep.holds,
        "tol": rep.tol,
    }


@dataclasses.dataclass
class AnalysisReport:
    """Serializable summary of one analysis run.

    All numeric fields survive a JSON round trip bit-identically (decimal,
    17 significant digits) and the bounds verdicts are re-derivable from the
    cuts and spectral sections they cite.
    """

    chain: dict
    spectral: dict
    cuts: list[dict]
    bounds: list[dict]
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "chain": self.chain,
            "spectral": self.spectral,
            "cuts": self.cuts,
            "bounds": self.bounds,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisReport":
        return cls(
            chain=d["chain"],
            spectral=d["spectral"],
            cuts=list(d["cuts"]),
            bounds=list(d["bounds"]),
            provenance=d["provenance"],
        )


def make_provenance(source: str, seed: int | None = None) -> dict:
    prov: dict[str, Any] = {"source": source}
    if seed is not None:
        prov["seed"] = seed
    prov["tool_version"] = _version
    return prov


def _json_value(obj: Any, indent: int) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_json_value(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_value(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_json(report: AnalysisReport) -> str:
    """Deterministic JSON text: insertion order, 17-digit floats."""
    return _json_value(report.to_dict(), 0) + "\n"


def report_text(report: AnalysisReport) -> str:
    """Human-readable report with an aligned inequality table."""
    lines = []
    ch = report.chain
    lines.append(f"chain: n={ch['n']} origin={ch['origin']} reversible={ch['reversible']}")
    for key, val in report.spectral.items():
        lines.append(f"spectral.{key}: {_fmt(val) if isinstance(val, float) else val}")
    for cut in report.cuts:
        subset = ",".join(str(v) for v in cut["subset"])
        lines.append(
            f"cut p={_fmt(cut['p'])} method={cut['method']} phi={_fmt(cut['phi'])} "
            f"pi_mass={_fmt(cut['pi_mass'])} S={{{subset}}}"
        )
    if report.bounds:
        rows = [("name", "lhs", "rhs", "slack", "verdict")]
        for b in report.bounds:
            rows.append((b["name"], _fmt(b["lhs"]), _fmt(b["rhs"]), _fmt(b["slack"]), "holds" if b["holds"] else "VIOLATED"))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        for r in rows:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(5)).rstrip())
    lines.append(f"provenance: {json.dumps(report.provenance, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def emit_report(report: AnalysisReport, path: str | None, format: str = "json") -> str:
    """Serialize a report; writes to ``path`` when given, returns the text."""
    if format == "json":
        text = report_json(report)
    elif format == "text":
        text = report_text(report)
    else:
        raise InputError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
