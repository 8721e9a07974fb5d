"""Tests of the benchmark itself: smoke runs, fault detection, metric names.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_of_the_spec(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] == (1 if trace == 0 else 2)
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_spec_names_workloads_of_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run_in_process(capsys, workload: str, seed: int) -> dict:
    handler = signal.getsignal(signal.SIGALRM)
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--smoke"]) == 0
    # the host-speed sampler is stopped and the old handler is back
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    return _result(capsys.readouterr().out)


def test_host_speed_drops_samples_and_scales_to_the_reference():
    host = run.HostSpeed()
    host.samples = [(1.0, 0.002), (1.5, 0.004), (9.0, 0.5)]
    # two samples inside, 6 ms in all, 3 ms on average
    want = (2.0 - 0.006) * run.REF_NOMINAL_S / 0.003
    assert host.scaled(0.5, 2.5) == pytest.approx(want)
    assert host.scaled(3.0, 4.0) == 1.0  # no sample inside: wall time


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_flipped_trace_byte_counts_as_failed_job(monkeypatch, capsys, seed):
    run._import_commca()
    from commca.protocol import Trace

    write_csv = Trace.write_csv
    calls = []

    def flip_after_warm_up(self, path):
        write_csv(self, path)
        calls.append(path)
        if len(calls) > 3:  # the warm-up job writes three traces
            data = bytearray(Path(path).read_bytes())
            data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
            Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(Trace, "write_csv", flip_after_warm_up)
    result = _run_in_process(capsys, "sim-constant", seed)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_forged_witness_counts_as_failed_job(monkeypatch, capsys):
    run._import_commca()
    import commca.cli

    format_witness = commca.cli.format_witness

    def forge(w):
        # Shrink the first subset to its smallest member: a singleton is
        # fully reachable, so the forged pair satisfies the clauses.
        return re.sub(r"^first subset: (\d+).*$", r"first subset: \1",
                      format_witness(w), flags=re.M)

    monkeypatch.setattr(commca.cli, "format_witness", forge)
    result = _run_in_process(capsys, "certify", workloads.DEFAULT_SEED)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
