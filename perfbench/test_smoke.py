"""Smoke test of the benchmark: every workload, briefly, through the CLI.

Checks that the result line names every gated metric with its unit, that
the report names every other metric the workload defines, and that the
five E10 span layers still tile end-to-end latency in the traced run:
no interval negative, their sum the span's duration, and on echo-ring one
span per completed request.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import END_TO_END, METRICS, PER_LAYER  # noqa: E402

#: Report-only metrics each workload must print, beside the gated ones.
REPORTED = {
    "echo-ring": ("lat_p99_ms", "failed_frac", "ops_per_s"),
    "oltp-sim": ("lat_p99_ms", "failed_frac", "ops_per_s",
                 "invariant_violations", "vlat_p50_ms", "vlat_p99_ms",
                 "failover_vs", "sim_cpu_per_vs"),
    "oltp-gateway": ("lat_p99_ms", "failed_frac", "ops_per_s",
                     "invariant_violations"),
    "chaos-sim": ("lat_p99_ms", "failed_frac", "invariant_violations",
                  "vlat_p50_ms", "vlat_p99_ms", "failover_vs",
                  "failover_install_vs", "sim_cpu_per_vs"),
}
GATED = ("echo-ring", "oltp-sim")


def bench(*args):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3",
         *args], cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    assert lines, completed.stderr
    return completed.returncode, lines[:-1], json.loads(lines[-1])


def check_result(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == METRICS[name][0], name
        assert isinstance(entry["value"], (int, float)), name


def reported(lines, kind):
    """{name: unit} of the report lines of one kind (metric/layer/...)."""
    found = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == kind:
            found[parts[1]] = parts[3]
    return found


def test_echo_ring_end_to_end_metrics():
    code, lines, result = bench("--workload", "echo-ring", "--seconds", "2",
                                "--trace", "0")
    assert code == 0 and result["correct"], lines
    assert result["failed"] == 0
    check_result(result, END_TO_END)
    for name in END_TO_END:
        assert result["metrics"][name]["value"] > 0, name
    for name in REPORTED["echo-ring"]:
        assert reported(lines, "metric")[name] == METRICS[name][0]


@pytest.mark.parametrize("workload,seconds", [
    ("echo-ring", "2"), ("oltp-sim", "10"), ("oltp-gateway", "3"),
    ("chaos-sim", "0")])
def test_traced_run_reports_every_layer(workload, seconds):
    code, lines, result = bench("--workload", workload, "--seconds", seconds,
                                "--trace", "1")
    # The ungated workloads may hit the program's known defects; the
    # exit status must then say so.
    assert code == (0 if result["correct"] else 1), lines
    if workload in GATED:
        assert result["correct"], lines
    check_result(result, PER_LAYER)
    for name, unit in reported(lines, "layer").items():
        assert unit == METRICS[name][0], name
    metrics = reported(lines, "metric")
    for name in set(END_TO_END) - {"peak_rss_mb"} | set(REPORTED[workload]):
        assert metrics[name] == METRICS[name][0], name
    assert set(reported(lines, "untraced")) == set(metrics)
    tiles = [line.split() for line in lines if line.startswith("# spans_tile")]
    assert tiles, lines
    complete, broken, ops = (int(part.split("=")[1])
                             for part in tiles[0][2:])
    assert complete > 0 and broken == 0
    if workload == "echo-ring":
        assert complete == ops
    if workload == "oltp-sim":
        # Its crash-recover cycles move the membership and state layers.
        layers = result["metrics"]
        for name in ("totem.installs", "state.bytes", "state.transfer_vs"):
            assert layers[name]["value"] > 0, name


def test_wrong_echo_reply_fails_the_run(monkeypatch, capsys):
    import echo_ring
    import run
    from repro.orb.idl import operation
    from repro.workloads import EchoServer

    class Garbling(EchoServer):
        @operation()
        def echo(self, payload):
            return payload[::-1]

    monkeypatch.setattr(echo_ring, "EchoServer", Garbling)
    assert run.main(["--workload", "echo-ring", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_missing_program_fails_without_a_result(tmp_path):
    os.symlink(HERE, tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "echo-ring",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
