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
from typing import Any

import numpy as np

from . import __version__ as _version
from .bounds import BoundReport
from .chains import MarkovChain, WeightedGraph, chain_from_directed, chain_from_matrix, chain_from_undirected
from .cuts import CutResult
from .errors import InputError, NumericalFailure

FORMATS = ("edge-tsv", "dense-matrix")


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalFailure(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


def _significant_lines(path: str) -> list[tuple[int, str]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            out.append((lineno, line))
    return out


def _parse_edge_tsv(path: str) -> WeightedGraph:
    lines = _significant_lines(path)
    if not lines:
        raise InputError(f"{path}: empty file, expected 'undirected' or 'directed' header")
    lineno, header = lines[0]
    if header not in ("undirected", "directed"):
        raise InputError(f"{path}:{lineno}: header must be 'undirected' or 'directed', got {header!r}")
    directed = header == "directed"
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    n = 0
    has_loops = False
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 'u<TAB>v<TAB>w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if u < 1 or v < 1:
            raise InputError(f"{path}:{lineno}: vertex ids are 1-based, got ({u}, {v})")
        if not math.isfinite(w):
            raise InputError(f"{path}:{lineno}: weight {parts[2]!r} is not a finite number")
        if w < 0:
            raise InputError(f"{path}:{lineno}: negative weight {w}")
        u -= 1
        v -= 1
        if not directed and u > v:
            u, v = v, u
        if (u, v) in seen:
            raise InputError(f"{path}:{lineno}: duplicate edge ({u + 1}, {v + 1}) (undirected edges are stored once)")
        seen.add((u, v))
        if u == v and w > 0:
            has_loops = True
        edges.append((u, v, w))
        n = max(n, u + 1, v + 1)
    if n == 0:
        raise InputError(f"{path}: no edges")
    return WeightedGraph(n=n, edges=tuple(edges), directed=directed, allow_self_loops=has_loops)


def _parse_dense(path: str) -> WeightedGraph | MarkovChain:
    lines = _significant_lines(path)
    if not lines:
        raise InputError(f"{path}: empty file, expected a 'matrix-kind' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "matrix-kind" or parts[1] not in ("transition", "weight"):
        raise InputError(
            f"{path}:{lineno}: header must be 'matrix-kind transition' or 'matrix-kind weight', got {header!r}"
        )
    kind = parts[1]
    rows = []
    for lineno, line in lines[1:]:
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        bad = [tok for tok, x in zip(line.split(), rows[-1]) if not math.isfinite(x)]
        if bad:
            raise InputError(f"{path}:{lineno}: entry {bad[0]!r} is not a finite number")
    n = len(rows)
    if n == 0:
        raise InputError(f"{path}: matrix body is empty")
    if any(len(r) != n for r in rows):
        raise InputError(f"{path}: matrix must be square, got row lengths {[len(r) for r in rows]}")
    M = np.array(rows, dtype=float)
    if kind == "transition":
        return chain_from_matrix(M, origin="raw-matrix")
    if M.min() < 0:
        raise InputError(f"{path}: weight matrix has negative entries")
    directed = not np.array_equal(M, M.T)
    edges = []
    has_loops = False
    for u in range(n):
        vs = range(n) if directed else range(u, n)
        for v in vs:
            if M[u, v] > 0:
                edges.append((u, v, float(M[u, v])))
                has_loops = has_loops or u == v
    return WeightedGraph(n=n, edges=tuple(edges), directed=directed, allow_self_loops=has_loops)


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
    """Write edge-tsv with 1-based ids and full-precision weights."""
    lines = ["directed" if g.directed else "undirected"]
    for u, v, w in g.edges:
        lines.append(f"{u + 1}\t{v + 1}\t{_fmt(w)}")
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
