"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
(under two minutes: every workload runs through the command, traced and untraced).
"""

from __future__ import annotations

import json
import math
import os
import py_compile
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import NO_PARENT, Span, SpanRecorder, _timed_resumes, aggregate, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "total_s", "sim_iters_per_s", "peak_rss_mb"
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_each_workload(workload, trace, tmp_path):
    out = result(bench("--workload", workload, "--seed", "0", "--seconds", "0",
                       "--trace", trace, "--out", str(tmp_path)))
    assert out["correct"] and out["failed"] == 0
    # warm-up run plus one timed run (plus its sampled and traced twins)
    assert out["attempted"] == (2 if trace == "0" else 4)
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in out["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if trace == "0":
            assert metric["value"] > 0, name
    if trace == "1":
        assert list(tmp_path.glob("spans-*.json.gz"))


def test_perturbed_expected_digest_counts_as_failed(tmp_path):
    golden = json.loads((BENCH / "golden.json").read_text())
    digest = golden["timing-osp-64"]["digest"]
    golden["timing-osp-64"]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    out = result(bench("--workload", "timing-osp-64", "--seed", "0", "--seconds", "0",
                       "--golden", str(path)))
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] == 2


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "timing-osp-64", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_bytecode_left_in_the_source_tree_is_never_read(tmp_path):
    """Tests and CLI runs leave ``src/repro/__pycache__`` behind. The
    benchmark keeps its own cache, so set-up time cannot depend on it."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # A valid-looking cached ``repro/__init__`` that fails when loaded.
    stale = tmp_path / "stale.py"
    stale.write_text("raise ImportError('stale bytecode was loaded')\n")
    pkg = tmp_path / "src" / "repro"
    py_compile.compile(
        str(stale),
        cfile=str(pkg / "__pycache__" / f"__init__.{sys.implementation.cache_tag}.pyc"),
        invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH,
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    plain = subprocess.run([sys.executable, "-c", "import repro"], cwd=tmp_path / "src",
                           env=env, capture_output=True, text=True, timeout=60)
    assert "stale bytecode was loaded" in plain.stderr  # the trap works
    out = result(bench("--workload", "timing-osp-64", "--seed", "0", "--seconds", "0",
                       cwd=tmp_path))
    assert out["correct"] and out["failed"] == 0
    # the private cache is removed when the run ends
    assert not list((tmp_path / "perfbench" / "out").glob("pycache-*"))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: 3..4 counted once
        Span("a.child", 2.0, 3.0, parent=1),
        Span("late", 9.0, 12.0, parent=0),  # only 9..10 lies inside root
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_aggregate_folds_same_name_nesting():
    spans = [
        Span("sync", 0.0, 4.0),
        Span("sync", 1.0, 3.0, parent=0),  # e.g. a super() call
        Span("net", 1.5, 2.0, parent=1, work=7),
        Span("net", 5.0, 6.0, work=3),
    ]
    stats = aggregate(spans)
    assert (stats["sync"].calls, stats["sync"].total_s) == (1, 4.0)
    assert stats["sync"].self_s == pytest.approx(3.5)
    assert (stats["net"].calls, stats["net"].total_s, stats["net"].work) == (2, 1.5, 10)


def test_recorder_nests_by_call_stack():
    rec = SpanRecorder()
    outer = rec.open(rec.name_id("outer"))
    inner = rec.open(rec.name_id("inner"), work=2)
    rec.close(inner)
    rec.close(outer)
    got = rec.spans()
    assert [(s.name, s.parent, s.work) for s in got] == [
        ("outer", NO_PARENT, 0), ("inner", 0, 2)
    ]
    assert got[0].start <= got[1].start <= got[1].end <= got[0].end
    with pytest.raises(RuntimeError):
        a = rec.open(0)
        rec.open(0)
        rec.close(a)


def test_timed_resumes_delegates_like_yield_from():
    def inner():
        got = yield "first"
        try:
            yield got * 2
        except KeyError as exc:
            yield f"caught {exc.args[0]}"
        return "done"

    def outer(gen):
        value = yield from gen
        yield value

    rec = SpanRecorder()
    gen = outer(_timed_resumes(inner(), rec.name_id("g"), rec))
    assert next(gen) == "first"
    assert gen.send(21) == 42
    assert gen.throw(KeyError("x")) == "caught x"
    assert next(gen) == "done"
    assert len(rec) == 4 and not rec._stack
