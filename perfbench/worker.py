"""One benchmark process: imports the CLI from ``<root>/src`` in a fresh
interpreter and runs commands in-process, one after another (a closed loop
with one client).

    python3 perfbench/worker.py probe ROOT ARGV_JSON
        import the CLI, run one warm-up command, print "ready" and exit.
    python3 perfbench/worker.py run PLAN_JSON
        run passes over the plan's commands, starting no pass that is
        expected to end after the plan's seconds once three are done, and
        write a result JSON; with tracing on, passes alternate untraced /
        traced.

The worker never checks outputs; it records exit codes, times and whether
each output is byte-identical to the first pass's.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer

# A median needs three passes; with tracing on they run untraced, traced, untraced.
MIN_PASSES = 3


def import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from isoperim import cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(src, "isoperim"):
        raise SystemExit(f"isoperim was imported from {cli.__file__}, not from {src}")
    return cli


def call(cli_main, argv: list[str]) -> tuple[int | None, float, str, str, str | None]:
    """(exit code, seconds, stdout, stderr, traceback) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli_main(argv)
        except Exception:
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue(), error


def probe(root: str, argv_json: str) -> int:
    cli = import_cli(root)
    rc, _, _, err, error = call(cli.cli_main, json.loads(argv_json))
    if rc != 0:
        sys.stderr.write(f"warm-up command failed (exit {rc}): {err}{error or ''}")
        return 1
    print("ready", flush=True)
    return 0


def _read_outputs(cmd: dict, stdout: str) -> bytes:
    parts = [stdout.encode()]
    for path in cmd["outputs"]:
        with open(path, "rb") as fh:
            parts.append(fh.read())
    return b"\0".join(parts)


def run(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli = import_cli(plan["root"])
    warm_rc = call(cli.cli_main, plan["warmup"])[0]
    tracer = Tracer() if plan["trace"] else None
    restored = True
    first: dict[str, bytes] = {}
    passes = []
    deadline = time.perf_counter() + plan["seconds"]
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        pass_start = time.perf_counter()
        if traced:
            tracer.install()
        commands = []
        for cmd in plan["commands"]:
            for path in cmd["outputs"]:
                if os.path.exists(path):
                    os.remove(path)
            if traced:
                run_id = f"{len(passes)}:{cmd['id']}"
                rc, seconds, out, err, error = tracer.command(
                    run_id, cmd["command"], lambda: call(cli.cli_main, cmd["argv"])
                )
            else:
                rc, seconds, out, err, error = call(cli.cli_main, cmd["argv"])
            try:
                produced = _read_outputs(cmd, out)
            except OSError as exc:
                produced, error = None, error or f"output missing: {exc}"
            if cmd["id"] not in first and produced is not None and not passes:
                first[cmd["id"]] = produced
                with open(cmd["stdout_path"], "w", encoding="utf-8") as fh:
                    fh.write(out)
            commands.append(
                {
                    "id": cmd["id"],
                    "command": cmd["command"],
                    "seconds": seconds,
                    "rc": rc,
                    "error": error,
                    "stderr": err,
                    "same_as_first": produced is not None and produced == first.get(cmd["id"]),
                }
            )
        if traced:
            restored = tracer.uninstall() and restored
        passes.append({"traced": traced, "commands": commands})
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - pass_start) > deadline:
            break
    if tracer is not None:
        tracer.write(plan["trace_path"])
    result = {
        "warmup_rc": warm_rc,
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace_removed": restored,
    }
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "probe" and len(sys.argv) == 4:
        sys.exit(probe(sys.argv[2], sys.argv[3]))
    if mode == "run" and len(sys.argv) == 3:
        sys.exit(run(sys.argv[2]))
    sys.exit("usage: worker.py probe ROOT ARGV_JSON | worker.py run PLAN_JSON")
