"""Span recorder wrapped around the package's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules with a
timing wrapper, in every module namespace of the package that binds it, so a
call made through any import path is recorded. ``Tracer.uninstall`` puts the
originals back. Nothing under the package's source tree is edited.

A span is (id, parent, name, start, end, run, attrs): ``name`` is
``<layer>.<function>``, ``parent`` the span that was open when the call
began, and ``run`` the command invocation the span belongs to. Spans are kept
in memory and written as JSONL once, by ``write``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time

PACKAGE = "isoperim"
LAYERS = ("io", "chains", "spectral", "cuts", "bounds", "families")
# The one private function traced: the sweep evaluates each level set with it,
# which is how the trace counts level sets and the entries of P they read.
PRIVATE = {"cuts": ("_evaluate_set",)}


def _parse_attrs(a):
    return {"bytes": os.path.getsize(a["path"])}


def _eigensolve_attrs(a):
    return {"n": int(len(a["M"]))}


def _exact_attrs(a):
    return {"n": a["c"].n, "ps": [float(p) for p in a["ps"]]}


def _sweep_attrs(a):
    return {"n": a["c"].n, "p": float(a["p"]), "kind": a["cert"].kind}


def _evaluate_attrs(a):
    return {"n": a["c"].n, "size": int(len(a["idx"])), "method": a["method"]}


# Arguments recorded per function, looked up by parameter name.
ATTRS = {
    "io.parse_graph": _parse_attrs,
    "spectral.symmetric_eigensolve": _eigensolve_attrs,
    "cuts.exact_minima": _exact_attrs,
    "cuts.sweep_cut": _sweep_attrs,
    "cuts._evaluate_set": _evaluate_attrs,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run: str | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # ---------------------------------------------------------------- spans
    def _wrap(self, func, name: str):
        spans, stack, next_id, clock = self.spans, self._stack, self._ids.__next__, time.perf_counter
        attrs_of = ATTRS.get(name)
        signature = inspect.signature(func) if attrs_of else None
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                attrs = None
                if attrs_of is not None:
                    try:
                        attrs = attrs_of(signature.bind(*args, **kwargs).arguments)
                    except Exception as exc:  # a changed signature must not break the command
                        attrs = {"error": repr(exc)}
                spans.append((sid, parent, name, start, end, tracer.run, attrs))

        return traced

    def command(self, run: str, name: str, call):
        """Run ``call()`` as the root span ``cli.<name>`` of invocation ``run``."""
        self.run = run
        return self._wrap(call, f"cli.{name}")()

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                targets[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> bool:
        """Restore every patched name; True when all originals are back."""
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        restored = all(getattr(module, attr) is obj for module, attr, obj in self._patches)
        self._patches.clear()
        return restored

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "run", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
