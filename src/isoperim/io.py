"""File formats and report serialization.

An input file's header, its first line that is neither blank nor a comment,
picks its reader. ``undirected`` or ``directed`` starts an edge-tsv file:
``u<TAB>v<TAB>w`` lines with 1-based vertex ids; undirected edges are stored
once, so listing both (u, v) and (v, u) is a parse error.
``matrix-kind transition`` or ``matrix-kind weight`` starts a dense matrix:
n rows of n whitespace-separated reals; a transition matrix becomes a
validated raw-matrix chain, and a nonnegative weight matrix is read straight
into the transition matrix of the natural random walk on it, undirected
when symmetric and directed otherwise; its first negative entry in row
order is named at its line. In either kind, so is the first row whose width
differs from the first row's, or that is past that width. Input is UTF-8,
lines end at ``\n``, ``\r\n`` or ``\r``, tokens are separated by whatever
``str.split`` splits at, and blank lines and lines whose first token starts
with ``#`` are skipped.

Each file's header and body lines are found once in its bytes, and its
tokens are converted once. numpy's C reader converts the body of an ASCII
edge-tsv file with the header alone on the first line and only whole-line
comments, in one ``np.loadtxt`` call. It reads a regular file again by
path, in chunks, and a file whose device, inode, size or modification time
changed from before the first read to after the second is refused as
``path: changed while it was read``; a pipe's bytes are converted as read.
Any other body, or one the C reader rejects, goes to the line loop, which
splits one line of text at a time with ``str.split`` and appends its
numbers to an ``array``. It also takes non-ASCII whitespace and
``1_0``-style numbers, and alone names a faulty token, as ``path:line``; an
edge the graph refuses is named at its line whichever converter read it. A
non-ASCII file is checked as UTF-8 a 1 MiB piece at a time.

All numeric output is decimal with 17 significant digits, so every float
round-trips bit-identically and identical inputs give byte-identical files.
"""

from __future__ import annotations

import codecs
import itertools
import json
import math
import os
import re
import stat
from array import array
from io import BytesIO, TextIOWrapper
from typing import Any, Iterator

import numpy as np

from .bounds import BoundReport, verdict
from .chains import MarkovChain, WeightedGraph, chain_from_graph
from .chains import _walk, check_states, edge_fault
from .cuts import CutResult
from .errors import InputError, NumericalFailure, TooLarge

_HEADERS = ("undirected", "directed", "matrix-kind transition", "matrix-kind weight")


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalFailure(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


_BLOCK = 1 << 16  # edge-tsv lines written at once
_UTF8_PIECE = 1 << 20  # bytes of a non-ASCII file checked as UTF-8 at once
_INK = re.compile(rb"[^\t-\r\x1c-\x20]")  # an ASCII byte that str.split does not split at
_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _lines(raw: bytes) -> Iterator[tuple[int, str, list[str]]]:
    """The number, text and tokens of each UTF-8 line of ``raw`` that is
    neither blank nor a comment, one at a time; lines end at ``\n``, ``\r\n``
    or ``\r``."""
    text = TextIOWrapper(BytesIO(raw), "utf-8", newline=None)
    return ((k, line, tokens) for k, line in enumerate(text, 1) if (tokens := line.split()) and tokens[0][0] != "#")


def _row(raw: bytes, k: int) -> tuple[int, list[str]]:
    """The line number and tokens of body line ``k``, found again on an error path."""
    lineno, _, tokens = next(itertools.islice(_lines(raw), k + 1, None))
    return lineno, tokens


def _body(path: str, raw: bytes) -> tuple[str, Iterator[tuple[int, str, list[str]]], bool]:
    """The header of an input file's bytes, one of ``_HEADERS`` up to
    whitespace, the lines after it, at least one, as ``_lines`` gives them,
    and whether the bytes are ASCII."""
    is_ascii = raw.isascii()
    view, at = memoryview(raw), len(raw) if is_ascii else 0
    while at < len(raw):  # a piece and the 3 bytes a sequence it starts may need; one left unfinished starts the next
        stop = at + _UTF8_PIECE + 3
        try:
            at += codecs.utf_8_decode(view[at:stop], "strict", stop >= len(raw))[1]
        except UnicodeDecodeError as exc:
            bad = at + exc.start
            lineno = raw[:bad].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
            raise InputError(f"{path}:{lineno}: not UTF-8 text (byte {raw[bad]:#04x})") from None
    lines = _lines(raw)
    expected = ", ".join(map(repr, _HEADERS[:-1])) + f" or {_HEADERS[-1]!r}"
    lineno, line, tokens = next(lines, (0, "", None))
    if tokens is None:
        raise InputError(f"{path}: empty file, expected header {expected}")
    if " ".join(tokens) not in _HEADERS:
        raise InputError(f"{path}:{lineno}: header must be {expected}, got {line.strip()!r}")
    first = next(lines, None)
    if first is None:
        raise InputError(f"{path}: nothing after the header")
    return " ".join(tokens), itertools.chain([first], lines), is_ascii


def _graph(path: str, n: int, edges: np.ndarray, directed: bool, raw: bytes) -> WeightedGraph:
    """Graph of the edges parsed from body line k of ``raw`` into row k,
    frozen and handed over without a copy; a faulty row, or the row with the
    largest id when there are too many states, is named at its line."""
    edges.setflags(write=False)
    try:
        return WeightedGraph(n=n, edges=edges, directed=directed)
    except TooLarge as exc:
        lineno, (u, v, _) = _row(raw, int(edges[:, :2].max(axis=1).argmax()))
        raise TooLarge(f"{path}:{lineno}: vertex id {max(u, v, key=int)}: {exc}") from None
    except InputError:
        row, reason = edge_fault(edges, n, directed)
        lineno, (u, v, w) = _row(raw, row)
        raise InputError(f"{path}:{lineno}: " + reason.format(u=u, v=v, w=repr(w), ids=f"1..{n}")) from None


def _shift(edges: np.ndarray, directed: bool) -> int:
    """Make 1-based ``(u, v, w)`` rows 0-based in place, each undirected pair
    in order; returns the number of states the ids name."""
    edges[:, :2] -= 1
    if not directed:
        u, v = edges[:, 0].copy(), edges[:, 1]
        np.minimum(u, v, out=edges[:, 0])
        np.maximum(u, v, out=edges[:, 1])
    return max(int(edges[:, :2].max()) + 1, 1)


def _whole_line_comments(raw: bytes, at: int) -> bool:
    """Whether, after offset ``at`` of ASCII ``raw``, only ``str.split``
    whitespace precedes each ``#`` on a line that no lone ``\r`` splits: a
    comment that loadtxt drops too."""
    sharp = raw.find(b"#", at)
    while sharp >= 0:  # find's -1, no line end, becomes len(raw)
        start, stop = raw.rfind(b"\n", 0, sharp) + 1, raw.find(b"\n", sharp) % (len(raw) + 1)
        if _INK.search(raw, start, sharp) or raw.find(b"\r", start, stop) not in (-1, stop - 1):
            return False
        sharp = raw.find(b"#", stop)
    return True


def _stamp(st: os.stat_result) -> tuple[int, int, int, int] | None:
    """What tells a regular file's contents apart from a rewrite's, or None
    for an input that can be read only once (a pipe, ``/dev/stdin``)."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns) if stat.S_ISREG(st.st_mode) else None


def _c_rows(path: str, raw: bytes, header: str, is_ascii: bool, stamp: tuple | None) -> np.ndarray | None:
    """The 1-based ``(u, v, w)`` rows of an edge-tsv file whose body numpy's C
    reader converts, or None, and the line loop converts it. The C reader
    takes ASCII files with ``header``, which ``_body`` has read, alone on the
    first line, and comments that are whole lines. For any ASCII byte before,
    inside or after a token it gives what ``int`` and ``float`` give after
    ``str.split``, or rejects the file (``1_0``, ids past int64, and from
    bytes a lone ``\r``), which gives None.

    The checks are made on ``raw``. A regular file (``stamp`` not None) is
    then read again by path, which numpy reads in chunks, and must still have
    the ``_stamp`` it had before ``raw`` was read, or InputError is raised.
    Any other input, and a file with a compressor's suffix, which numpy
    would decompress, is converted from ``raw``."""
    end = raw.find(b"\n") + 1
    if raw[:end].split() != [header.encode()] or not is_ascii or not _whole_line_comments(raw, end):
        return None
    by_path = stamp is not None and not path.endswith(_COMPRESSED)
    source = os.path.abspath(path) if by_path else BytesIO(raw)  # numpy takes no absolute path for a URL
    try:
        rows = np.loadtxt(source, dtype=_EDGE_ROW, skiprows=1, comments="#", ndmin=1, encoding="latin-1")
    except ValueError:
        rows = None
    if by_path and _stamp(os.stat(path)) != stamp:
        raise InputError(f"{path}: changed while it was read")
    if rows is None:
        return None
    edges = rows.view(np.float64).reshape(-1, 3)  # loadtxt's own buffer, the ids cast in place
    edges[:, :2] = rows.view(np.int64).reshape(-1, 3)[:, :2]
    return edges


def _line_rows(path: str, lines: Iterator[tuple[int, str, list[str]]]) -> np.ndarray:
    """The 1-based ``(u, v, w)`` rows of the body lines ``_body`` gives, one
    line at a time; a faulty line is named."""
    values = array("d")
    append = values.append
    for lineno, line, tokens in lines:
        if len(tokens) != 3:
            raise InputError(f"{path}:{lineno}: expected 'u<TAB>v<TAB>w', got {line.strip()!r}")
        u, v, w = tokens
        try:  # one token at a time, so that an id past float range is named before a later bad token
            append(int(u))
            append(int(v))
            append(float(w))
        except (ValueError, OverflowError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return np.frombuffer(values).reshape(-1, 3)


def _parse_edge_tsv(path: str, raw: bytes, header: str, lines: Iterator, is_ascii: bool, stamp: tuple | None) -> WeightedGraph:
    edges = _c_rows(path, raw, header, is_ascii, stamp)
    if edges is None:
        edges = _line_rows(path, lines)
    directed = header == "directed"
    return _graph(path, _shift(edges, directed), edges, directed, raw)


def _parse_dense(path: str, raw: bytes, header: str, lines: Iterator) -> np.ndarray:
    """The checked matrix of a dense file."""
    values, rows = array("d"), 0
    for lineno, _, tokens in lines:
        if rows == 0:
            n = len(tokens)
        elif len(tokens) != n:
            raise InputError(f"{path}:{lineno}: matrix must be square, got a row of {len(tokens)} entries after one of {n}")
        elif rows == n:
            raise InputError(f"{path}:{lineno}: matrix must be square, got more than {n} rows of {n} entries")
        try:
            check_states(n)
            row = [float(tok) for tok in tokens]
        except TooLarge as exc:
            raise TooLarge(f"{path}:{lineno}: {exc}") from None
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(sum(row)):  # an inf or a nan entry, or only an overflowing sum
            bad = [tok for tok, x in zip(tokens, row) if not math.isfinite(x)]
            if bad:
                raise InputError(f"{path}:{lineno}: entry {bad[0]!r} is not a finite number")
        values.extend(row)
        rows += 1
    if rows != n:
        raise InputError(f"{path}: matrix must be square, got {rows} rows of {n} entries")
    M = np.frombuffer(values).reshape(n, n)
    if header == "matrix-kind transition":
        M.setflags(write=False)
        return M
    first = int((M < 0).argmax())  # in row order, so on or above the diagonal of a symmetric M
    if M.flat[first] < 0:
        lineno, tokens = _row(raw, first // n)
        raise InputError(f"{path}:{lineno}: negative weight {tokens[first % n]!r}")
    M += 0.0  # a -0.0 entry becomes 0.0
    return M


def parse_graph(path: str) -> WeightedGraph | MarkovChain:
    """Read an input file, whose header picks its reader: the graph of an
    edge-tsv file, or the chain of a dense matrix, a weight matrix read
    straight into the matrix of the walk on it, undirected when symmetric."""
    with open(path, "rb") as fh:
        stamp = _stamp(os.fstat(fh.fileno()))
        raw = fh.read()
    header, lines, is_ascii = _body(path, raw)
    if header in ("undirected", "directed"):
        return _parse_edge_tsv(path, raw, header, lines, is_ascii, stamp)
    M = _parse_dense(path, raw, header, lines)
    del raw, lines  # past the dense checks no message names a line: the bytes go before the chain is built
    if header == "matrix-kind transition":
        return MarkovChain(M)
    return _walk(M, directed=not np.array_equal(M, M.T))


def as_chain(obj: WeightedGraph | MarkovChain) -> MarkovChain:
    """Turn a parsed input into a chain: a graph through :func:`chain_from_graph`."""
    return obj if isinstance(obj, MarkovChain) else chain_from_graph(obj)


def load_chain(path: str) -> MarkovChain:
    return as_chain(parse_graph(path))


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


def report_json(report: dict) -> str:
    """Deterministic JSON text: insertion order, 17-digit floats."""
    return _json_value(report, 0) + "\n"


def report_text(report: dict) -> str:
    """Human-readable report with an aligned inequality table."""
    lines = []
    ch = report["chain"]
    lines.append(f"chain: n={ch['n']} origin={ch['origin']} reversible={ch['reversible']}")
    for key, val in report["spectral"].items():
        lines.append(f"spectral.{key}: {_fmt(val) if isinstance(val, float) else val}")
    for cut in report["cuts"]:
        subset = ",".join(str(v) for v in cut["subset"])
        lines.append(
            f"cut p={_fmt(cut['p'])} method={cut['method']} phi={_fmt(cut['phi'])} "
            f"pi_mass={_fmt(cut['pi_mass'])} S={{{subset}}}"
        )
    if report["bounds"]:
        rows = [("name", "lhs", "rhs", "slack", "verdict")]
        for b in report["bounds"]:
            rows.append((b["name"], _fmt(b["lhs"]), _fmt(b["rhs"]), _fmt(b["slack"]), verdict(b["holds"])))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        for r in rows:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(5)).rstrip())
    lines.append(f"provenance: {json.dumps(report['provenance'], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def emit_report(report: dict, path: str | None, format: str = "json") -> str:
    """Serialize a report, a dict of the sections ``chain``, ``spectral``,
    ``cuts``, ``bounds`` and ``provenance``; writes to ``path`` when given,
    returns the text."""
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
