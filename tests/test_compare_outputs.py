"""tools/compare_outputs.py: its plan is today's CLI, and its one equality
rule fails a command on any difference from the parent or from its twin."""

import copy
import importlib.util
import os

import pytest

from isoperim.cli import build_parser

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_every_planned_command_parses(tmp_path):
    plan = compare_outputs.build_plan(str(tmp_path))
    parser = build_parser()
    for cmd in plan:
        argv = [str(tmp_path / "out" / a[4:]) if a.startswith("OUT/") else a for a in cmd["argv"]]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{cmd['id']}: {argv} is not a valid command line")
    ids = [cmd["id"] for cmd in plan]
    assert len(set(ids)) == len(ids)
    twins = [cmd["twin"] for cmd in plan if "twin" in cmd]
    assert twins and set(twins) <= set(ids)


_RESULTS = [
    {"id": "analyze-a", "twin": None, "rc": 0, "stdout": "{}\n", "stderr": "", "files": ["d1"]},
    {"id": "analyze-a-twin", "twin": "analyze-a", "rc": 0, "stdout": "{}\n", "stderr": "", "files": ["d1"]},
    {"id": "verify-e", "twin": None, "rc": 1, "stdout": "VIOLATED\n", "stderr": "", "files": ["d3", None]},
    {"id": "faulty-b", "twin": None, "rc": 2, "stdout": "", "stderr": "error: bad file\n", "files": []},
    {"id": "not-utf8-c", "twin": None, "rc": 2, "stdout": "", "stderr": "error: not UTF-8\n", "files": []},
    {"id": "demo-d.py", "rc": 0, "stdout": "done\n", "stderr": "", "files": []},
]


def _set(side: list[dict], cid: str, **values) -> None:
    next(r for r in side if r["id"] == cid).update(values)


# each case edits (parent, change) and names the command that must fail
_BREAKS = [
    pytest.param(lambda p, c: _set(c, "verify-e", rc=0), "verify-e", id="exit-code"),
    pytest.param(lambda p, c: _set(c, "verify-e", stdout="OK\n"), "verify-e", id="stdout"),
    pytest.param(lambda p, c: _set(c, "faulty-b", stderr="error: a bad file\n"), "faulty-b", id="stderr"),
    pytest.param(lambda p, c: _set(c, "demo-d.py", stderr="warning\n"), "demo-d.py", id="demo-stderr"),
    pytest.param(lambda p, c: _set(c, "verify-e", files=["d3", "d4"]), "verify-e", id="file"),
    pytest.param(
        lambda p, c: [_set(side, "analyze-a-twin", stdout="[]\n") for side in (p, c)],
        "analyze-a-twin",
        id="twin",
    ),
    pytest.param(
        lambda p, c: [_set(side, "faulty-b", stderr="error: bad file\nerror: again\n") for side in (p, c)],
        "faulty-b",
        id="two-error-lines",
    ),
    pytest.param(
        lambda p, c: _set(p, "not-utf8-c", rc=None, stderr="Traceback (most recent call last):\nUnicodeDecodeError\n"),
        "not-utf8-c",
        id="not-utf8-parent-traceback",
    ),
]


def test_compare_passes_identical_results(capsys):
    assert compare_outputs.compare(copy.deepcopy(_RESULTS), copy.deepcopy(_RESULTS)) == 0
    assert capsys.readouterr().out.startswith("6 commands (exit codes {0: 3, 1: 1, 2: 2}): 6 identical")


@pytest.mark.parametrize("edit, failing", _BREAKS)
def test_compare_fails_on_any_difference(capsys, edit, failing):
    parent, change = copy.deepcopy(_RESULTS), copy.deepcopy(_RESULTS)
    edit(parent, change)
    assert compare_outputs.compare(parent, change) == 1
    diffs = [line for line in capsys.readouterr().out.splitlines() if line.startswith("DIFF ")]
    assert [line.split(":")[0] for line in diffs] == [f"DIFF {failing}"]
