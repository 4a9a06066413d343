"""Benchmark of the isoperim command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
It writes the workload's input files from ``--seed`` with its own numpy code,
measures set-up time over several fresh interpreters, then runs the
workload's commands through ``isoperim.cli.cli_main`` in one worker process,
pass after pass, for ``--seconds`` seconds. Every output is checked against
an independent recomputation (``checks.py``) and every later pass must
repeat the first pass's output bytes.

With ``--trace 1`` passes alternate untraced and traced; the traced ones
record spans around each layer's public functions (``tracer.py``) and the
per-layer metrics come from those spans (``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Files go under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable

import numpy as np

import checks
import inputs
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = ".perfbench_work"
SETUP_SAMPLES = 9
BLAS_THREADS = 2
# A run must end within 180 s; keep room for the checks after the worker.
WORKER_BUDGET_S = 160.0
PROBE_TIMEOUT_S = 60.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = ("analyze", "verify", "sweep", "scan", "generate")
END_TO_END_UNITS = {"setup_s": "s", "workload_s": "s", "peak_rss_mib": "MiB", "ops_ok_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed command)."""


@dataclasses.dataclass
class Command:
    id: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[str], None]  # receives the first pass's stdout


class References:
    """Reference chains, built once per input file."""

    def __init__(self) -> None:
        self._cache: dict[str, checks.Reference] = {}

    def __call__(self, path: str, analytic_lambda2: float | None = None) -> checks.Reference:
        if path not in self._cache:
            self._cache[path] = checks.Reference(path, analytic_lambda2)
        return self._cache[path]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def exact_small(work: str, rng: np.random.Generator, ref: References) -> list[Command]:
    rev, dire = f"{work}/rev20.tsv", f"{work}/dir20.tsv"
    inputs.write_random_reversible(rev, 20, 0.5, rng)
    inputs.write_random_directed(dire, 20, 0.5, rng)
    report = f"{work}/rev20-analyze.json"
    ps = [0.5, 0.75, 1.0]
    return [
        Command(
            "analyze-rev20",
            ["analyze", "--input", rev, "--p", "0.5,0.75,1", "--method", "both", "--out", report],
            [report],
            lambda out: checks.check_analyze(_read(report), ref(rev), ps, ["exact", "sweep"]),
        ),
        Command("verify-rev20", ["verify", "--input", rev, "--suite", "all"], [], lambda out: checks.check_verify(out, ref(rev))),
        Command("verify-dir20", ["verify", "--input", dire], [], lambda out: checks.check_verify(out, ref(dire))),
    ]


SCAN_NS = [2048, 4096, 8192, 16384, 32768]


def circulant_large(work: str, rng: np.random.Generator, ref: References) -> list[Command]:
    n = 1024
    circ, generated = f"{work}/circ1024.tsv", f"{work}/generated1024.tsv"
    inputs.write_relabelled_circulant(circ, n, rng)
    report, scan = f"{work}/circ1024-analyze.json", f"{work}/scan.csv"
    ps = [0.5, 0.75, 1.0]
    return [
        Command(
            "generate-ht1024",
            ["generate", "--family", "ht-counterexample", "--n", str(n), "--out", generated],
            [generated],
            lambda out: checks.check_generated_circulant(generated, n),
        ),
        Command(
            "analyze-circ1024",
            ["analyze", "--input", circ, "--p", "0.5,0.75,1", "--method", "sweep", "--out", report],
            [report],
            lambda out: checks.check_analyze(_read(report), ref(circ, checks.circulant_lambda2(n)), ps, ["sweep"]),
        ),
        Command(
            "scan-ht",
            ["scan", "--n-list", ",".join(map(str, SCAN_NS)), "--out", scan],
            [scan],
            lambda out: checks.check_scan(_read(scan), out, SCAN_NS),
        ),
    ]


def directed_mid(work: str, rng: np.random.Generator, ref: References) -> list[Command]:
    dire = f"{work}/dir768.tsv"
    inputs.write_random_directed(dire, 768, 0.5, rng)
    report = f"{work}/dir768-sweep.json"
    return [
        Command("verify-dir768", ["verify", "--input", dire], [], lambda out: checks.check_verify(out, ref(dire))),
        Command(
            "sweep-dir768",
            ["sweep", "--input", dire, "--p", "0.75", "--out", report],
            [report],
            lambda out: checks.check_sweep(_read(report), ref(dire), 0.75),
        ),
    ]


WORKLOADS = {"exact-small": exact_small, "circulant-large": circulant_large, "directed-mid": directed_mid}


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------

def worker_env() -> tuple[dict[str, str], dict]:
    """Environment for the processes that import the package, and a record
    of the settings that affect its speed."""
    env = dict(os.environ)
    iso_set = env.pop("ISO_MAX_EXACT_N", None) is not None
    env.pop("PYTHONPATH", None)
    cpus = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, cpus)
    for var in BLAS_VARS:
        env[var] = str(threads)
    info = {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: threads for var in BLAS_VARS},
        # the worker always runs with it unset, so auto picks exact for n <= 24
        "iso_max_exact_n_set_by_caller": iso_set,
    }
    return env, info


def setup_seconds(root: str, env: dict, warmup: list[str]) -> float:
    """Wall time from starting a fresh interpreter until it has imported the
    CLI and finished one warm-up command."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "probe", root, json.dumps(warmup)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
        proc.kill()
        proc.wait()
        raise BenchError(f"set-up probe not ready after {PROBE_TIMEOUT_S:.0f} s")
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


def run_worker(root: str, env: dict, plan: dict, work: str, timeout: float) -> dict:
    plan_path = f"{work}/plan.json"
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    with open(f"{work}/worker.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, "run", plan_path],
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {_read(f'{work}/worker.log').strip()[-2000:]}")
    with open(plan["result_path"], encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _pass_seconds(p: dict, command: str | None = None) -> float:
    return sum(c["seconds"] for c in p["commands"] if command is None or c["command"] == command)


def evaluate(commands: list[Command], result: dict, work: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every command of every pass."""
    reasons = []
    check_failed = set()
    for cmd in commands:
        try:
            cmd.check(_read(f"{work}/{cmd.id}.stdout"))
        except Exception as exc:  # a malformed output is a failed check, whatever it breaks
            check_failed.add(cmd.id)
            reasons.append(f"{cmd.id}: output check failed: {type(exc).__name__}: {exc}")
    attempted = failed = 0
    for k, p in enumerate(result["passes"]):
        for c in p["commands"]:
            attempted += 1
            why = None
            if c["error"] is not None:
                why = f"raised:\n{c['error']}"
            elif c["rc"] != 0:
                why = f"exit code {c['rc']}: {c['stderr'].strip()}"
            elif not c["same_as_first"]:
                why = "output differs from the first pass" + (" (traced pass)" if p["traced"] else "")
            elif c["id"] in check_failed:
                why = "output check failed"
            if why is not None:
                failed += 1
                reasons.append(f"pass {k} {c['id']}: {why}")
    if result["warmup_rc"] != 0:
        reasons.append(f"warm-up command exited {result['warmup_rc']}")
    if not result["trace_removed"]:
        reasons.append("the trace wrappers were not all removed")
    return attempted, failed, reasons


def untraced_seconds(result: dict, command: str | None = None) -> float:
    """Median over untraced passes of the pass's (or one command kind's) wall time."""
    return _median([_pass_seconds(p, command) for p in result["passes"] if not p["traced"]])


def end_to_end(result: dict, setup: list[float], attempted: int, failed: int) -> dict:
    return {
        "setup_s": _median(setup),
        "workload_s": untraced_seconds(result),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "ops_ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(result: dict, trace_path: str) -> tuple[dict, dict]:
    """(per-layer medians over traced passes, command counts of the first traced pass)."""
    spans = layers.load_spans(trace_path)
    by_pass: dict[str, list[dict]] = {}
    for s in spans:
        by_pass.setdefault(s["run"].split(":", 1)[0], []).append(s)
    rows = [layers.pass_metrics(by_pass[k]) for k in sorted(by_pass, key=int)]
    metrics = {name: _median([r[name] for r in rows]) for name in rows[0]}
    traced = _median([_pass_seconds(p) for p in result["passes"] if p["traced"]])
    metrics["trace.overhead_ratio"] = traced / untraced_seconds(result) - 1.0
    for cmd in COMMANDS:
        metrics[f"command.{cmd}_s"] = untraced_seconds(result, cmd)
    first = min(by_pass, key=int)
    return metrics, layers.command_counts(by_pass[first])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "isoperim", "cli.py")):
        sys.stderr.write("error: run from the root of an isoperim checkout (src/isoperim/cli.py not found)\n")
        return 2
    work = f"{WORK_ROOT}/{args.workload}-{args.seed}-{os.getpid()}"
    os.makedirs(work)
    try:
        rng = np.random.default_rng(args.seed)
        ref = References()
        commands = WORKLOADS[args.workload](work, rng, ref)
        tiny = f"{work}/warmup-cycle6.tsv"
        inputs.write_cycle(tiny, 6)
        warmup = ["analyze", "--input", tiny, "--p", "0.5,1", "--out", f"{work}/warmup.json"]

        env, info = worker_env()
        setup = [setup_seconds(root, env, warmup) for _ in range(SETUP_SAMPLES)]
        trace_path = f"{WORK_ROOT}/trace-{args.workload}-{args.seed}.jsonl"
        plan = {
            "root": root,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "warmup": warmup,
            "trace_path": trace_path,
            "result_path": f"{work}/result.json",
            "commands": [
                {"id": c.id, "command": c.argv[0], "argv": c.argv, "outputs": c.outputs, "stdout_path": f"{work}/{c.id}.stdout"}
                for c in commands
            ],
        }
        timeout = WORKER_BUDGET_S - (time.perf_counter() - started)
        result = run_worker(root, env, plan, work, timeout)
        check_start = time.perf_counter()
        attempted, failed, reasons = evaluate(commands, result, work)
        check_s = time.perf_counter() - check_start
        metrics = end_to_end(result, setup, attempted, failed)
        if args.trace:
            layer_metrics, counts = per_layer(result, trace_path)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = sum(not p["traced"] for p in result["passes"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"{untraced} untraced and {len(result['passes']) - untraced} traced passes; {SETUP_SAMPLES} set-up samples;"
          f" checks took {check_s:.2f} s, the whole run {time.perf_counter() - started:.1f} s")
    setup_sorted = sorted(setup)
    print(f"  setup_s        {metrics['setup_s']:.4f} s   (median; min {setup_sorted[0]:.4f}, max {setup_sorted[-1]:.4f})")
    for cmd in COMMANDS:
        if any(c.argv[0] == cmd for c in commands):
            print(f"  {cmd + '_s':<14} {untraced_seconds(result, cmd):.4f} s   (median over untraced passes)")
    print(f"  workload_s     {metrics['workload_s']:.4f} s   (median over untraced passes)")
    print("  pass seconds   " + " ".join(f"{_pass_seconds(p):.3f}{'t' if p['traced'] else ''}" for p in result["passes"]))
    print(f"  peak_rss_mib   {metrics['peak_rss_mib']:.1f} MiB")
    print(f"  ops_failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for line in reasons:
        print(f"FAILED {line}")
    if args.trace:
        for run, row in sorted(counts.items()):
            print(f"  counts {run}: " + ", ".join(f"{k}={v}" for k, v in row.items()))
        for name, value in layer_metrics.items():
            print(f"  {name:<32} {value:.6g} {layers.UNITS[name]}")
        reported = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in layer_metrics.items()}
    else:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    summary = {"correct": not reasons, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
