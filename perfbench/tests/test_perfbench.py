"""Tests of the benchmark itself: input determinism and a tiny smoke run.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inputs import TINY, inputs_digest, read_windows, synth_pair, upload_windows  # noqa: E402
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digests(seed: int) -> dict[str, str]:
    pair = synth_pair("pair.genome", "C1_5,5", seed, TINY)
    reads = synth_pair("serve.reads", "D1_2R,2", seed, TINY)
    starts = read_windows(len(reads.query), seed, TINY, 40)
    upload = synth_pair("serve.upload", "C1_5,5", seed, TINY)
    windows = upload_windows(upload, seed, TINY, 40)
    return {
        "pair.genome": inputs_digest("pair.genome", TINY, pair.target.codes, pair.query.codes),
        "serve.reads": inputs_digest("serve.reads", TINY, reads.target.codes, reads.query.codes, starts),
        "serve.upload": inputs_digest("serve.upload", TINY, upload.target.codes, upload.query.codes, windows),
    }


def test_inputs_repeat_for_a_seed_and_change_with_it():
    first, again, other = _digests(5), _digests(5), _digests(6)
    assert first == again
    for name in first:
        assert first[name] != other[name], name


@pytest.mark.parametrize("seed", range(0, 120, 7))
def test_upload_windows_are_distinct_and_in_bounds(seed):
    pair = synth_pair("serve.upload", "C1_5,5", seed, TINY)
    windows = upload_windows(pair, seed, TINY, 400)
    assert len({tuple(row) for row in windows.tolist()}) == len(windows)
    assert (windows >= 0).all()
    assert (windows[:, 1] <= len(pair.target)).all() and (windows[:, 3] <= len(pair.query)).all()
    assert (windows[:, 1] - windows[:, 0] <= TINY.upload_bp).all()


def test_benchmark_json_names_the_catalogue():
    # serve.upload stays runnable but is not in BENCHMARK.json (see CHANGES.md).
    assert [w["name"] for w in SPEC["workloads"]] == ["pair.genome", "serve.reads"]
    assert set(WORKLOADS) == {"pair.genome", "serve.reads", "serve.upload"}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for _, n, u in PER_LAYER]


_ROW = re.compile(r"^# (\S+)\s+(-?[\d.e+-]+|inf)\s+(\S+)\s+(\d+)\b")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_unit_and_samples(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1.5", "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    rows = {m.group(1): (m.group(3), int(m.group(4))) for m in map(_ROW.match, lines) if m}
    for spec in expected:
        unit, samples = rows[spec["name"]]
        assert unit == spec["unit"], spec["name"]
        # pair.genome has no service stack: those layers report 0 samples.
        absent = workload == "pair.genome" and spec["name"].split(".")[0] in ("frontdoor", "service", "loadgen")
        assert samples >= (0 if absent else 1), spec["name"]
    if trace:
        assert any(line.startswith("# tracing overhead:") for line in lines)
    assert any(line.startswith("# provenance ") for line in lines)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "pair.genome", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()
