"""File formats and report serialization.

Two input formats are supported. ``edge-tsv`` starts with a header line
``undirected`` or ``directed`` followed by ``u<TAB>v<TAB>w`` lines with
1-based vertex ids; undirected edges are stored once, so listing both (u, v)
and (v, u) is a parse error. ``dense-matrix`` starts with
``matrix-kind transition`` or ``matrix-kind weight`` followed by n rows of n
whitespace-separated reals; a transition matrix becomes a validated
raw-matrix chain, a weight matrix becomes an undirected graph when symmetric
and a directed one otherwise. Input is UTF-8, lines end at ``\n``, ``\r\n``
or ``\r``, tokens are separated by whatever ``str.split`` splits at, and blank
lines and lines whose first token starts with ``#`` are skipped.

The body of a plain edge-tsv file (ASCII, no ``#``, the header alone on the
first line) is converted by numpy's C reader in one ``np.loadtxt`` call. Any
other file, and a plain one the C reader rejects or whose edges fail a graph
check, goes to the layout reader. It takes the same bytes, gives the same
graph for every file the C reader converts, also accepts comments, non-ASCII
whitespace and ``1_0``-style numbers, and is the only code that names a fault,
as ``path:line``.

All numeric output is decimal with 17 significant digits, so every float
round-trips bit-identically and identical inputs give byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from io import BytesIO
from typing import Any, Callable

import numpy as np

from . import __version__ as _version
from .bounds import BoundReport
from .chains import MarkovChain, WeightedGraph, chain_from_directed, chain_from_matrix, chain_from_undirected, edge_fault
from .cuts import CutResult
from .errors import InputError, NumericalFailure, TooLarge

FORMATS = ("edge-tsv", "dense-matrix")


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalFailure(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


# str.split() separates tokens at ASCII whitespace, which no byte of a
# multibyte UTF-8 character is, and at these characters (U+0085..U+3000).
_SPACE = np.array([b < 128 and chr(b).isspace() for b in range(256)])
_WIDE_SPACES = [chr(c).encode() for c in range(128, 0x3001) if chr(c).isspace()]
_BLOCK = 1 << 16  # edge-tsv lines converted, or written, at once
_LINE = re.compile(rb"[^\r\n]*")
_INK = re.compile(rb"[^\t-\r\x1c-\x20]")  # an ASCII byte that str.split does not split at
_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _read(path: str, raw: bytes, headers: tuple[str, ...]) -> tuple:
    """Lay out all the lines of an input file's bytes at once: returns the
    header, the bytes with comments blanked, and the line number, first-token
    offset (plus the end of the file) and token count of each body line."""
    data = raw
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
            raise InputError(f"{path}:{lineno}: not UTF-8 text (byte {raw[exc.start]:#04x})") from None
        for space in _WIDE_SPACES:  # as many ASCII spaces, so the offsets stay those of raw
            data = data.replace(space, b" " * len(space))
    b = np.frombuffer(data, dtype=np.uint8)
    space = _SPACE[b]
    start = ~space
    start[1:] &= space[:-1]
    start = np.flatnonzero(start)  # offset of each token
    del space
    brk = b == 10
    if b"\r" in data:
        brk |= (b == 13) & np.append(b[1:] != 10, True)
    end = np.append(np.flatnonzero(brk), b.size)  # offset at which each line ends
    del brk
    before = np.searchsorted(start, end)  # tokens before the end of each line
    count = np.diff(before, prepend=0)
    line = np.flatnonzero(count)  # lines with tokens
    heads = start[before[line] - count[line]]
    comment = b[heads] == ord("#")
    del data, b, start, before  # only per-line arrays are left
    spans = np.column_stack([heads[comment], end[line[comment]]])
    lines, heads, counts = line[~comment] + 1, heads[~comment], count[line[~comment]]
    expected = " or ".join(map(repr, headers))
    if lines.size == 0:
        raise InputError(f"{path}: empty file, expected header {expected}")
    header = _line(raw, heads[0])
    if " ".join(header.split()) not in headers:
        raise InputError(f"{path}:{lines[0]}: header must be {expected}, got {header!r}")
    if lines.size == 1:
        raise InputError(f"{path}: nothing after the header")
    if spans.size:
        raw = bytearray(raw)
        edge = np.zeros(len(raw) + 1, dtype=np.int8)
        edge[spans] = [1, -1]
        np.frombuffer(raw, dtype=np.uint8)[np.cumsum(edge[:-1], dtype=np.int8) > 0] = ord(" ")
    return " ".join(header.split()), raw, lines[1:], np.append(heads[1:], len(raw)), counts[1:]


def _line(data: bytes, at: int) -> str:
    """The stripped text of the line of ``data`` that starts at offset ``at``."""
    return _LINE.match(data, at).group().decode("utf-8").strip()


def _tokens(data: bytes, heads: np.ndarray, a: int, z: int) -> list[str]:
    """The tokens of body lines ``a`` to ``z - 1``."""
    return str(memoryview(data)[heads[a] : heads[z]], "utf-8").split()


def _graph(path: str, n: int, edges: np.ndarray, directed: bool, source: Callable[[int], tuple]) -> WeightedGraph:
    """Graph of parsed edges, frozen and handed over without a copy; a faulty
    row, or the row with the largest id when there are too many states, is
    reported at ``source(row) = (lineno, u, v, w)``."""
    edges.setflags(write=False)
    try:
        return WeightedGraph(n=n, edges=edges, directed=directed, allow_self_loops=True)
    except TooLarge as exc:
        lineno, u, v, _ = source(int(edges[:, :2].max(axis=1).argmax()))
        raise TooLarge(f"{path}:{lineno}: vertex id {max(u, v, key=int)}: {exc}") from None
    except InputError:
        row, reason = edge_fault(edges, n, directed, True)
        lineno, u, v, w = source(row)
        raise InputError(f"{path}:{lineno}: " + reason.format(u=u, v=v, w=repr(w), ids=f"1..{n}")) from None


def _shift(edges: np.ndarray, directed: bool) -> int:
    """Make 1-based ``(u, v, w)`` rows 0-based in place, each undirected pair
    in order; returns the number of states the ids name."""
    edges[:, :2] -= 1
    if not directed:
        edges[:, :2].sort(axis=1)
    return max(int(edges[:, :2].max()) + 1, 1)


def _plain_graph(raw: bytes) -> WeightedGraph | None:
    """The graph of an edge-tsv file whose body numpy's C reader converts, or
    None, and the layout reader decides. Only plain files go to the C reader:
    ASCII, no ``#``, the header alone on the first line and a body that is
    not blank. For any ASCII byte before, inside or after a token it gives
    what ``int`` and ``float`` give after ``str.split``, or rejects the file
    (``1_0``, ids past int64, a lone ``\r``); a rejected file, or edges the
    graph refuses, give None."""
    end = raw.find(b"\n") + 1
    header = raw[:end].split()
    if header not in ([b"undirected"], [b"directed"]) or not raw.isascii() or b"#" in raw or not _INK.search(raw, end):
        return None
    try:
        rows = np.loadtxt(BytesIO(raw), dtype=_EDGE_ROW, skiprows=1, comments=None, ndmin=1)
    except ValueError:
        return None
    edges = rows.view(np.float64).reshape(-1, 3)  # loadtxt's own buffer, the ids cast in place
    edges[:, :2] = rows.view(np.int64).reshape(-1, 3)[:, :2]
    directed = header == [b"directed"]
    n = _shift(edges, directed)
    edges.setflags(write=False)
    try:
        return WeightedGraph(n=n, edges=edges, directed=directed, allow_self_loops=True)
    except (InputError, TooLarge):
        return None


def _parse_edge_tsv(path: str, raw: bytes) -> WeightedGraph:
    graph = _plain_graph(raw)
    if graph is not None:
        return graph
    header, data, lines, heads, counts = _read(path, raw, ("undirected", "directed"))
    m = np.append(np.flatnonzero(counts != 3), len(counts))[0]  # lines before the first of another width
    edges = np.empty((m, 3))
    for a in range(0, m, _BLOCK):
        z = min(a + _BLOCK, m)
        tokens = _tokens(data, heads, a, z)
        try:
            edges[a:z, 0] = np.array(tokens[0::3], dtype=np.int64)
            edges[a:z, 1] = np.array(tokens[1::3], dtype=np.int64)
            edges[a:z, 2] = np.array(tokens[2::3], dtype=float)
        except (ValueError, OverflowError):  # name the first faulty line; ids past int64 go on to the graph check
            for i, u, v, w in zip(range(a, z), tokens[0::3], tokens[1::3], tokens[2::3]):
                try:
                    edges[i] = float(int(u)), float(int(v)), float(w)
                except (ValueError, OverflowError) as exc:
                    raise InputError(f"{path}:{lines[i]}: {exc}") from exc
    if m < len(counts):
        raise InputError(f"{path}:{lines[m]}: expected 'u<TAB>v<TAB>w', got {_line(data, heads[m])!r}")
    n = _shift(edges, header == "directed")
    return _graph(path, n, edges, header == "directed", lambda row: (lines[row], *_tokens(data, heads, row, row + 1)))


def _parse_dense(path: str, raw: bytes) -> WeightedGraph | MarkovChain:
    header, data, lines, heads, counts = _read(path, raw, ("matrix-kind transition", "matrix-kind weight"))
    n = len(lines)
    tokens = _tokens(data, heads, 0, n)
    try:
        M = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        M = None
    if M is None or not np.isfinite(M).all():  # name the first faulty line
        for i in range(n):
            try:
                bad = [tok for tok in _tokens(data, heads, i, i + 1) if not math.isfinite(float(tok))]
            except ValueError as exc:
                raise InputError(f"{path}:{lines[i]}: {exc}") from exc
            if bad:
                raise InputError(f"{path}:{lines[i]}: entry {bad[0]!r} is not a finite number")
    if np.any(counts != n):
        raise InputError(f"{path}: matrix must be square, got row lengths {counts.tolist()}")
    M = M.reshape(n, n)
    if header == "matrix-kind transition":
        return chain_from_matrix(M)
    directed = not np.array_equal(M, M.T)
    u, v = np.nonzero(M if directed else np.triu(M))
    edges = np.column_stack([u, v, M[u, v]])
    return _graph(path, n, edges, directed, lambda r: (lines[u[r]], u[r] + 1, v[r] + 1, tokens[u[r] * n + v[r]]))


def parse_graph(path: str, format: str) -> WeightedGraph | MarkovChain:
    """Read an input file; returns a graph, or a chain for transition matrices."""
    if format not in FORMATS:
        raise InputError(f"unknown format {format!r}; expected one of {FORMATS}")
    with open(path, "rb") as fh:
        raw = fh.read()
    return _parse_edge_tsv(path, raw) if format == "edge-tsv" else _parse_dense(path, raw)


def as_chain(obj: WeightedGraph | MarkovChain) -> MarkovChain:
    """Turn a parsed input into a chain via the matching constructor."""
    if isinstance(obj, MarkovChain):
        return obj
    return chain_from_directed(obj) if obj.directed else chain_from_undirected(obj)


def load_chain(path: str, format: str) -> MarkovChain:
    return as_chain(parse_graph(path, format))


def _byte_table(texts: list[str]) -> np.ndarray:
    """One row of ASCII bytes per text, zero-padded to the longest."""
    table = np.array([t.encode("ascii") for t in texts], dtype=bytes)
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


def write_graph_tsv(g: WeightedGraph, path: str) -> None:
    """Write edge-tsv with 1-based ids and full-precision weights.

    Each distinct id and each distinct weight (by bit pattern, so -0.0 keeps
    its sign) is formatted once, into a zero-padded byte table. The lines are
    written ``_BLOCK`` at a time: the table rows of each line's ids and weight
    side by side, padding dropped.
    """
    bits, which = np.unique(g.edges[:, 2].view(np.int64), return_inverse=True)
    weights = _byte_table([_fmt(w) + "\n" for w in bits.view(float).tolist()])
    ids = _byte_table([f"{i}\t" for i in range(1, g.n + 1)])  # row i is id i + 1
    with open(path, "wb") as fh:
        fh.write(b"directed\n" if g.directed else b"undirected\n")
        for a in range(0, len(which), _BLOCK):
            u, v = g.edges[a : a + _BLOCK, :2].astype(np.intp).T
            rows = np.concatenate([ids[u], ids[v], weights[which[a : a + _BLOCK]]], axis=1)
            fh.write(rows[rows != 0])


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
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisReport":
        return cls(**{field.name: d[field.name] for field in dataclasses.fields(cls)})


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
