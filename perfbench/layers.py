"""Per-layer metrics derived from the spans of one traced pass.

A span's self time is its duration minus the durations of its direct
children; a layer's self time sums that over the layer's spans. A ratio
whose denominator is zero (the workload never calls that layer) is reported
as 1, meaning no repeated work.
"""

from __future__ import annotations

import json
from collections import defaultdict

UNITS = {
    "io.parse_s": "s",
    "io.parse_mib_per_s": "MiB/s",
    "io.write_s": "s",
    "io.emit_s": "s",
    "chains.build_s": "s",
    "chains.stationary_s": "s",
    "chains.stationary_calls": "count",
    "chains.irreducible_calls": "count",
    "chains.reversible_calls": "count",
    "spectral.cert_calls": "count",
    "spectral.cert_unique_ratio": "ratio",
    "spectral.eigensolve_s": "s",
    "spectral.eigensolve_calls": "count",
    "spectral.eigensolve_n3": "count",
    "cuts.exact_s": "s",
    "cuts.exact_calls": "count",
    "cuts.exact_subset_evals": "count",
    "cuts.exact_subset_evals_per_s": "1/s",
    "cuts.exact_unique_ratio": "ratio",
    "cuts.sweep_s": "s",
    "cuts.sweep_calls": "count",
    "cuts.sweep_unique_ratio": "ratio",
    "cuts.sweep_levels": "count",
    "cuts.sweep_entries": "count",
    "bounds.self_s": "s",
    "bounds.check_calls": "count",
    "families.graph_s": "s",
    "families.scan_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    # untraced wall time of each command kind in a pass; 0 when the workload
    # does not run it
    "command.analyze_s": "s",
    "command.verify_s": "s",
    "command.sweep_s": "s",
    "command.scan_s": "s",
    "command.generate_s": "s",
}

GRAPH_GENERATORS = (
    "families.cycle_graph",
    "families.hypercube_graph",
    "families.dumbbell_graph",
    "families.ht_counterexample_graph",
    "families.random_reversible_graph",
    "families.random_directed_graph",
)
CERTIFICATES = ("spectral.lambda2_reversible", "spectral.lambda2_directed")


def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _ratio(num: float, den: float, empty: float = 1.0) -> float:
    return num / den if den else empty


def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio, for one pass."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def total(*names: str) -> float:
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def count(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    def self_time(prefix: str) -> float:
        return sum(
            s["end"] - s["start"] - child_time[s["id"]] for s in spans if s["name"].startswith(prefix)
        )

    parse_s = total("io.parse_graph")
    parse_bytes = sum(s["attrs"]["bytes"] for s in by_name["io.parse_graph"])
    certs = [s for n in CERTIFICATES for s in by_name[n]]
    exact = by_name["cuts.exact_minima"]
    exact_ps = [(s["run"], p) for s in exact for p in s["attrs"]["ps"]]
    exact_evals = sum(2 ** s["attrs"]["n"] * len(s["attrs"]["ps"]) for s in exact)
    exact_s = total("cuts.exact_minima")
    sweeps = by_name["cuts.sweep_cut"]
    levels = [s["attrs"] for s in by_name["cuts._evaluate_set"] if s["attrs"]["method"] == "sweep"]
    return {
        "io.parse_s": parse_s,
        "io.parse_mib_per_s": _ratio(parse_bytes / 2**20, parse_s, 0.0),
        "io.write_s": total("io.write_graph_tsv"),
        "io.emit_s": total("io.emit_report"),
        "chains.build_s": total("io.as_chain"),
        "chains.stationary_s": total("chains.stationary_distribution"),
        "chains.stationary_calls": count("chains.stationary_distribution"),
        "chains.irreducible_calls": count("chains.is_irreducible"),
        "chains.reversible_calls": count("chains.is_reversible"),
        "spectral.cert_calls": len(certs),
        "spectral.cert_unique_ratio": _ratio(len({(s["run"], s["name"]) for s in certs}), len(certs)),
        "spectral.eigensolve_s": total("spectral.symmetric_eigensolve"),
        "spectral.eigensolve_calls": count("spectral.symmetric_eigensolve"),
        "spectral.eigensolve_n3": sum(s["attrs"]["n"] ** 3 for s in by_name["spectral.symmetric_eigensolve"]),
        "cuts.exact_s": exact_s,
        "cuts.exact_calls": len(exact),
        "cuts.exact_subset_evals": exact_evals,
        "cuts.exact_subset_evals_per_s": _ratio(exact_evals, exact_s, 0.0),
        "cuts.exact_unique_ratio": _ratio(len(set(exact_ps)), len(exact_ps)),
        "cuts.sweep_s": total("cuts.sweep_cut"),
        "cuts.sweep_calls": len(sweeps),
        "cuts.sweep_unique_ratio": _ratio(
            len({(s["run"], s["attrs"]["p"], s["attrs"]["kind"]) for s in sweeps}), len(sweeps)
        ),
        "cuts.sweep_levels": len(levels),
        "cuts.sweep_entries": sum(a["size"] * (a["n"] - a["size"]) for a in levels),
        "bounds.self_s": self_time("bounds."),
        "bounds.check_calls": sum(len(v) for k, v in by_name.items() if k.startswith("bounds.check_")),
        "families.graph_s": total(*GRAPH_GENERATORS),
        "families.scan_s": total("families.scaling_scan"),
        "cli.self_s": self_time("cli."),
    }


def command_counts(spans: list[dict]) -> dict[str, dict[str, int]]:
    """Per command invocation: exact p-evaluations, certificates,
    eigensolves and sweeps, keyed by the invocation's run id."""
    out: dict[str, dict[str, int]] = defaultdict(
        lambda: {"exact_evals": 0, "cert_calls": 0, "eigensolves": 0, "sweep_calls": 0}
    )
    for s in spans:
        row = out[s["run"]]
        if s["name"] == "cuts.exact_minima":
            row["exact_evals"] += len(s["attrs"]["ps"])
        elif s["name"] in CERTIFICATES:
            row["cert_calls"] += 1
        elif s["name"] == "spectral.symmetric_eigensolve":
            row["eigensolves"] += 1
        elif s["name"] == "cuts.sweep_cut":
            row["sweep_calls"] += 1
    return dict(out)
