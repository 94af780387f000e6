"""Bench: batch scale — the streaming scheduler and sharded store at
1k and 10k synthesized files.

These legs prove the PR 9 claim: throughput holds (within 25%) from 1k
to 10k files, parent memory stays window-bounded instead of O(batch),
and the sharded store's warm-replay throughput is no worse than the
flat single-shard layout under parallel writers.

The 10k leg takes minutes, so the whole module is opt-in::

    REPRO_BENCH_SCALE=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_bench_scale.py -x -q

Results land under the ``batch_scale`` / ``scale_store_layout`` keys
of ``.bench_build/BENCH_pipeline.json`` (copy it over the tracked
``BENCH_pipeline.json`` to record a new snapshot).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE") != "1",
    reason="batch-scale legs are minutes long; set REPRO_BENCH_SCALE=1")


def _summary_subprocess(cache_dir, out_path, *, count, jobs=4, seed=0,
                        shards=None):
    """One fresh-interpreter streaming-summary run over ``count``
    synthesized files; returns the summary record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_PROFILE", None)
    env.pop("REPRO_STORE_SHARDS", None)
    if shards is not None:
        env["REPRO_STORE_SHARDS"] = str(shards)
    cmd = [sys.executable, "-m", "repro.eval.pipeline_bench",
           "--corpus", "synth", "--limit", str(count),
           "--synth-seed", str(seed), "--jobs", str(jobs),
           "--no-validate", "--summary", "--out", str(out_path)]
    subprocess.run(cmd, cwd=REPO_ROOT, env=env, check=True, timeout=3600)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)["summary"]


def _merge_bench(key, entry):
    out = REPO_ROOT / ".bench_build" / "BENCH_pipeline.json"
    payload = json.loads(out.read_text(encoding="utf-8")) \
        if out.exists() else {}
    payload[key] = entry
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")


def test_bench_scale_1k_to_10k(benchmark, tmp_path):
    """1k and 10k synthesized files through the streaming scheduler.

    Gates: every file lands ok, the stream's buffering high-water mark
    stays within the dispatch window (parent memory is O(window), not
    O(batch)), parent peak RSS grows by far less than the 10x batch
    growth, and 10k throughput is within 25% of 1k throughput.
    """
    leg_1k = benchmark.pedantic(
        lambda: _summary_subprocess(tmp_path / "store1k",
                                    tmp_path / "leg1k.json", count=1000),
        rounds=1, iterations=1)
    leg_10k = _summary_subprocess(tmp_path / "store10k",
                                  tmp_path / "leg10k.json", count=10000)

    for leg, count in ((leg_1k, 1000), (leg_10k, 10000)):
        assert leg["files"] == count
        assert leg["status"] == {"ok": count, "degraded": 0, "failed": 0}
        assert leg["stream"]["max_buffered"] <= leg["stream"]["window"]
        contention = leg["store_contention"]["preprocess"]
        assert contention["shards_used"] > 1, contention

    ratio = leg_10k["files_per_s"] / leg_1k["files_per_s"]
    rss_growth = leg_10k["peak_rss_kb"]["parent"] \
        / max(leg_1k["peak_rss_kb"]["parent"], 1)

    # "scale" is taken: the sampled throughput leg records its SAMATE
    # sample factor there.
    _merge_bench("batch_scale", {
        "benchmark": "synthesized corpus through the streaming "
                     "scheduler (jobs=4, validate=False)",
        "scale_1k": leg_1k,
        "scale_10k": leg_10k,
        "throughput_ratio_10k_vs_1k": round(ratio, 3),
        "parent_rss_growth_10k_vs_1k": round(rss_growth, 3),
    })

    # The acceptance gate: 10k throughput within 25% of 1k.
    assert ratio >= 0.75, (leg_1k["files_per_s"], leg_10k["files_per_s"])
    # 10x the batch must cost nowhere near 10x the parent's memory.
    assert rss_growth < 3.0, (leg_1k["peak_rss_kb"],
                              leg_10k["peak_rss_kb"])


def test_bench_scale_sharded_vs_flat_warm(benchmark, tmp_path):
    """Warm-replay throughput: sharded store vs flat (1-shard) layout.

    Each layout gets a cold run to populate its store, then a warm run
    in a fresh interpreter replaying from disk.  The sharded layout
    must hold warm throughput at least level with flat (floor 0.8 to
    absorb host noise; the measured ratio is recorded).
    """
    count, seed = 400, 3

    def cold_then_warm(store, tag, shards):
        _summary_subprocess(store, tmp_path / f"{tag}-cold.json",
                            count=count, seed=seed, shards=shards)
        return _summary_subprocess(store, tmp_path / f"{tag}-warm.json",
                                   count=count, seed=seed, shards=shards)

    warm_sharded = benchmark.pedantic(
        lambda: cold_then_warm(tmp_path / "sharded", "sharded", None),
        rounds=1, iterations=1)
    warm_flat = cold_then_warm(tmp_path / "flat", "flat", 1)

    sharded_contention = warm_sharded["store_contention"].get(
        "preprocess", {})
    assert sharded_contention.get("shards", 0) > 1 \
        or not sharded_contention  # fully warm runs may write nothing
    ratio = warm_sharded["files_per_s"] / warm_flat["files_per_s"]

    _merge_bench("scale_store_layout", {
        "files": count,
        "warm_sharded": warm_sharded,
        "warm_flat_single_shard": warm_flat,
        "warm_throughput_ratio_sharded_vs_flat": round(ratio, 3),
    })
    assert ratio >= 0.8, (warm_sharded["files_per_s"],
                          warm_flat["files_per_s"])
