"""Tests of the campaign benchmark: span arithmetic, --compare verdicts,
and one short end-to-end run that checks every metric is reported."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer, layer_table, self_times, untraced_seconds  # noqa: E402

CONTRACT = json.loads(run.CONTRACT.read_text())


def _span(sid, parent, layer, start, end, pid=1):
    return {
        "id": sid, "parent": parent, "layer": layer, "name": layer,
        "start": start, "end": end, "pid": pid, "trace": "t/0",
    }


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("r", None, "runner", 0.0, 10.0),
        _span("a", "r", "store", 1.0, 4.0),
        _span("b", "r", "sim", 5.0, 9.0),
        _span("c", "b", "store", 6.0, 7.0),
        _span("w", None, "sim", 2.0, 8.0, pid=2),  # a forked worker
    ]
    assert self_times(spans) == {"r": 3.0, "a": 3.0, "b": 3.0, "c": 1.0, "w": 6.0}
    table = layer_table(spans)
    assert table[("store", "store")] == {"calls": 2, "self_s": 4.0}
    assert table[("sim", "sim")] == {"calls": 2, "self_s": 9.0}
    # Only the campaign process's own top-level spans cover its wall.
    assert untraced_seconds(spans, 12.0, pid=1) == 2.0


def test_tracer_nests_spans_and_collects_forked_ones(tmp_path):
    tracer = Tracer("t/0", worker_log=tmp_path / "w")
    inner = tracer.wrap(lambda: tracer.count("objects"), "inner", "inner")
    outer = tracer.wrap(lambda: inner(), "outer", "outer")
    outer()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the forked child
        outer()
        os._exit(0)
    os.waitpid(pid, 0)
    spans, counts = tracer.collect()
    assert counts == {"objects": 2}
    by_pid = {}
    for span in spans:
        by_pid.setdefault(span["pid"], []).append(span)
    assert sorted(by_pid) == sorted([os.getpid(), pid])
    for group in by_pid.values():
        inner_span, outer_span = group
        assert outer_span["parent"] is None
        assert inner_span["parent"] == outer_span["id"]


def _quartiles(*samples):
    return run.quartiles(samples)


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ((1.0, 1.01, 1.02), (1.2, 1.21, 1.22), "lower", "regressed"),
        ((1.0, 1.01, 1.02), (0.8, 0.81, 0.82), "lower", "improved"),
        ((1.0, 1.01, 1.02), (1.03, 1.04, 1.05), "lower", "same"),
        ((1.0, 1.5, 2.0), (1.6, 1.7, 1.8), "lower", "unresolved"),
        ((2.0, 2.5, 3.0), (1.0, 1.1, 1.2), "lower", "improved"),
        ((10.0, 10.1, 10.2), (8.0, 8.1, 8.2), "higher", "regressed"),
        ((1.0,), (1.5,), "lower", "unresolved"),
        ((1.0, 1.01, 1.02), (0.5,), "lower", "unresolved"),
    ],
)
def test_verdict(a, b, better, expected):
    assert run.verdict(_quartiles(*a), _quartiles(*b), better, 0.1) == expected


def _doc(campaign, calls, measured=None):
    """A one-workload --out document; ``measured`` defaults to ``campaign``."""
    metrics = {
        m["name"]: _quartiles(*campaign) if m["unit"] == "s" else _quartiles(1.0, 1.0)
        for m in CONTRACT["end_to_end"]
    }
    times = {
        m["name"]: _quartiles(*(measured or campaign))
        for m in CONTRACT["end_to_end"] if m["unit"] == "s"
    }
    return {"workloads": {"w": {
        "metrics": metrics,
        "measured": times,
        "host_probe_s": _quartiles(0.03, 0.03),
        "layers": {"sim.replay.calls": calls},
    }}}


def test_compare_flags_regressions_and_count_mismatches():
    same, regressed = run.compare(_doc((1.0, 1.0, 1.0), 68), _doc((1.0, 1.0, 1.0), 68), CONTRACT)
    assert not regressed
    assert any("exact-match" in line for line in same)
    lines, regressed = run.compare(_doc((1.0, 1.0, 1.0), 68), _doc((2.0, 2.0, 2.0), 67), CONTRACT)
    assert regressed
    assert any("campaign_s" in line and "regressed" in line for line in lines)
    assert any("sim.replay.calls" in line and "mismatch" in line for line in lines)
    # When the time at reference speed and the measured time disagree (the
    # host slowed down, or the probe misjudged it), nothing regressed.
    for measured, scaled in (((2.0, 2.0, 2.0), (1.0, 1.0, 1.0)),
                             ((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))):
        lines, regressed = run.compare(
            _doc((1.0, 1.0, 1.0), 68), _doc(scaled, 68, measured), CONTRACT
        )
        assert not regressed
        assert any(
            line.split()[1] == "campaign_s" and "unresolved" in line for line in lines
        )


def test_one_rep_reports_every_metric_with_a_unit(tmp_path):
    doc = tmp_path / "doc.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke-warm",
         "--seconds", "0", "--out", str(doc)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    workload = json.loads(doc.read_text())["workloads"]["smoke-warm"]
    for metric in CONTRACT["end_to_end"]:
        assert workload["metrics"][metric["name"]]["n"] >= 1
    for metric in CONTRACT["per_layer"]:
        assert metric["name"] in workload["layers"]
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert metric["unit"]
