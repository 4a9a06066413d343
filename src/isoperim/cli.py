"""Command-line interface.

Subcommands:
  analyze   compute spectral certificates, cuts, and bound reports for a file
  generate  write a family chain as edge-tsv
  sweep     run the sweep cut for one exponent and emit the certificate set
  verify    check every applicable inequality; exit 1 on any violation
  scan      growth table of the inverse-cube counterexample family (CSV)
  gadgets   the two suprema behind the sweep analysis, in closed form

An input file's header picks its reader (see :mod:`isoperim.io`). Exit
codes: 0 success, 1 failed bound in ``verify``, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .bounds import (
    ChainAnalysis,
    _p_label,
    bound_suite,
    geometric_chain_sum,
    power_increment_supremum,
    verdict,
)
from .cuts import _validate_p, sweep_guarantee
from .errors import InputError, IsoperimError
from .families import (
    cycle_graph,
    dumbbell_graph,
    ht_counterexample_graph,
    hypercube_graph,
    random_reversible_graph,
    scaling_scan,
)
from .io import (
    bound_to_dict,
    cut_to_dict,
    emit_report,
    load_chain,
    write_graph_tsv,
)

# the generate families, in the order the help lists them
_FAMILIES = {
    "cycle": lambda args: cycle_graph(args.n),
    "hypercube": lambda args: hypercube_graph(args.n),
    "dumbbell": lambda args: dumbbell_graph(args.n),
    "ht-counterexample": lambda args: ht_counterexample_graph(args.n),
    "random": lambda args: random_reversible_graph(args.n, density=args.density, seed=args.seed),
}


def _parse_p_list(text: str) -> list[float]:
    """The exponents of a --p list, each once, in the order they first appear."""
    try:
        return list(dict.fromkeys(_validate_p(tok) for tok in text.split(",") if tok.strip() != ""))
    except ValueError as exc:
        raise InputError(f"bad --p list {text!r}: {exc}") from exc


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad --n-list {text!r}: {exc}") from exc


def _emit(args: argparse.Namespace, a: ChainAnalysis, spectral: dict, cuts: list, bounds: list, format: str) -> int:
    """Write the report of an ``analyze`` or ``sweep`` run to ``--out``, or to stdout."""
    report = {
        "chain": {"n": a.c.n, "origin": a.c.origin, "reversible": a.reversible},
        "spectral": spectral,
        "cuts": [cut_to_dict(cut) for cut in cuts],
        "bounds": [bound_to_dict(r) for r in bounds],
        "provenance": {"source": args.input, "tool_version": __version__},
    }
    text = emit_report(report, args.out, format=format)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    c = load_chain(args.input)
    ps = _parse_p_list(args.p)
    a = ChainAnalysis(c, ps if args.method != "sweep" else (), ps if args.method != "exact" else ())
    directed = args.directed_spectral or not a.reversible
    # the suite runs first so that its exponents join the one exact pass
    reports = bound_suite(a, ps if a.reversible else None, ps if directed else None)
    spectral: dict = {}
    if a.reversible:
        spectral["lambda2_reversible"] = a.cert(False).lambda2
        spectral["residual_reversible"] = a.cert(False).residual
    if directed:
        spectral["lambda2_directed"] = a.cert(True).lambda2
        spectral["residual_directed"] = a.cert(True).residual

    cuts = []
    for p in ps:
        if args.method in ("exact", "both"):
            cuts.append(a.exact(p))
        if args.method in ("sweep", "both"):
            cuts.append(a.sweep(p))
    # bounds verdicts must be re-derivable from the cuts section, so append
    # the cut each bound cites (e.g. the exact phi_1 behind the Cheeger
    # pair) that the requested exponent list did not already produce
    for r in reports:
        if r.cut not in cuts:
            cuts.append(r.cut)
    return _emit(args, a, spectral, cuts, reports, args.report_format)


def cmd_generate(args: argparse.Namespace) -> int:
    write_graph_tsv(_FAMILIES[args.family](args), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    c = load_chain(args.input)
    ps = _parse_p_list(args.p)
    if len(ps) != 1:
        raise InputError(f"sweep takes one exponent, got --p {args.p!r}")
    a = ChainAnalysis(c)
    cut, cert = a.sweep(ps[0]), a.own
    spectral: dict = {"lambda2": cert.lambda2, "residual": cert.residual, "kind": cert.kind}
    bound = sweep_guarantee(cert, ps[0])
    if bound is not None:  # sweep_cuts raised NumericalFailure if the cut broke it
        spectral["guarantee_rhs"] = bound
        spectral["guarantee_holds"] = True
    return _emit(args, a, spectral, [cut], [], "json")


def cmd_verify(args: argparse.Namespace) -> int:
    c = load_chain(args.input)
    a = ChainAnalysis(c)
    if args.suite == "reversible" and not a.reversible:
        raise InputError("reversible suite requested on a non-reversible chain")
    run_reversible = args.suite in ("reversible", "all") and a.reversible
    run_directed = args.suite in ("directed", "all")
    reports = bound_suite(
        a,
        (0.6, 0.75, 0.9, 1.0) if run_reversible else None,
        (0.6, 1.0) if run_directed else None,
    )
    width = max(len(r.name) for r in reports)
    for r in reports:
        sys.stdout.write(f"{r.name.ljust(width)}  lhs={r.lhs:.17g}  rhs={r.rhs:.17g}  {verdict(r.holds)}\n")
    return 0 if all(r.holds for r in reports) else 1


def cmd_scan(args: argparse.Namespace) -> int:
    rows = scaling_scan(_parse_n_list(args.n_list), output=args.out)
    for r in rows:
        sys.stdout.write(
            f"n={r.n} lambda2={r.lambda2:.6e} phi_half_arc={r.phi_half_arc:.6e} rho={r.rho:.6f}\n"
        )
    return 0


def cmd_gadgets(args: argparse.Namespace) -> int:
    ps = _parse_p_list(args.p)
    for p in ps:
        sup = power_increment_supremum(p)
        bound = 1.0 / (2.0 * p - 1.0)
        sys.stdout.write(f"power-increment p={_p_label(p)}: supremum={sup:.12g} bound={bound:.12g}\n")
    for b0 in (0.01, 0.25, 0.9):
        limit = 0.5 * np.log(1.0 / b0)
        vals = ", ".join(f"m={m}: {geometric_chain_sum(b0, m):.12g}" for m in (0, 10, 1000, 10**6))
        sys.stdout.write(f"ratio-chain b0={b0:g}: {vals} (limit {limit:.12g})\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isoperim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"isoperim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for an input chain")
    pa.add_argument("--input", required=True)
    pa.add_argument("--p", default="0.5,1", help="comma-separated exponents in [0, 1]")
    pa.add_argument("--method", choices=["exact", "sweep", "both"], default="both")
    pa.add_argument("--directed-spectral", action="store_true")
    pa.add_argument("--out", default=None)
    pa.add_argument("--report-format", choices=["json", "text"], default="json")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="write a family chain as edge-tsv")
    pg.add_argument("--family", required=True, choices=_FAMILIES)
    pg.add_argument("--n", type=int, required=True, help="size (dimension for hypercube, bell size for dumbbell)")
    pg.add_argument("--density", type=float, default=0.5)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_generate)

    psw = sub.add_parser("sweep", help="sweep cut with its guarantee check")
    psw.add_argument("--input", required=True)
    psw.add_argument("--p", required=True, help="one exponent in [0, 1]")
    psw.add_argument("--out", default=None)
    psw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="check all applicable bounds; exit 1 on failure")
    pv.add_argument("--input", required=True)
    pv.add_argument("--suite", choices=["reversible", "directed", "all"], default="all")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("scan", help="counterexample growth table")
    ps.add_argument("--n-list", default="64,128,256,512,1024")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_scan)

    pgad = sub.add_parser("gadgets", help="the suprema behind the sweep analysis, in closed form")
    pgad.add_argument("--p", default="0.6,0.75,1.0")
    pgad.set_defaults(func=cmd_gadgets)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # argparse before Python 3.12 turns an option value "--" (as in
        # --p=--) into an empty list instead of the string
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise InputError(f"--{name.replace('_', '-')} needs a value, got '--'")
        return args.func(args)
    except (IsoperimError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
