"""Bench: RQ3 — runtime overhead of the transformed corpus programs,
plus the transformation pipeline's own throughput.

The paper reports "minimal performance overhead" after applying SLR and
STR on all targets of two programs; we assert the deterministic step-count
overhead stays small and the output is unchanged.  The pipeline bench
launches :mod:`repro.eval.pipeline_bench` in fresh interpreters sharing
one ``REPRO_CACHE_DIR`` to measure cold, warm-in-process, and
warm-cross-process legs (plus a disk-cache-off control), asserts every
leg produces identical counts and oracle verdicts, and records wall
times, speedups, cache counters, and the per-stage breakdown in
``.bench_build/BENCH_pipeline.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.eval.perf import compute_perf

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where the legs land.  The tracked ``BENCH_pipeline.json`` at the repo
#: root is a recorded snapshot; refresh it by copying this file over it.
BENCH_OUT = REPO_ROOT / ".bench_build" / "BENCH_pipeline.json"


def merge_bench(update):
    """Merge ``update`` into ``BENCH_OUT``: each bench module keeps the
    entries the others wrote, whichever ran last."""
    payload = json.loads(BENCH_OUT.read_text(encoding="utf-8")) \
        if BENCH_OUT.exists() else {}
    payload.update(update)
    BENCH_OUT.parent.mkdir(exist_ok=True)
    BENCH_OUT.write_text(json.dumps(payload, indent=2, sort_keys=True)
                         + "\n", encoding="utf-8")


def test_perf_overhead(benchmark):
    result = benchmark.pedantic(
        lambda: compute_perf(("zlib", "libpng"), repeat=1),
        rounds=1, iterations=1)
    for row in result.rows:
        assert row.output_identical, row.program
        # "Minimal" overhead: well under 2x; measured ~3-13%.
        assert row.step_overhead_pct < 50.0, \
            (row.program, row.step_overhead_pct)


def test_perf_all_programs_output_identical(benchmark):
    result = benchmark.pedantic(
        lambda: compute_perf(("GMP", "libtiff"), repeat=1),
        rounds=1, iterations=1)
    for row in result.rows:
        assert row.output_identical, row.program


def _bench_subprocess(cache_dir, out_path, *, jobs=1, repeat=1,
                      scale=0.05, limit=24, disk=True, backends=None,
                      arbitration=None):
    """One fresh-interpreter pipeline_bench run; returns its runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_PROFILE", None)
    env.pop("REPRO_BACKENDS", None)
    env.pop("REPRO_ARBITRATION", None)
    if not disk:
        env["REPRO_DISK_CACHE"] = "0"
    cmd = [sys.executable, "-m", "repro.eval.pipeline_bench",
           "--scale", str(scale), "--limit", str(limit),
           "--jobs", str(jobs), "--repeat", str(repeat),
           "--out", str(out_path)]
    if backends:
        cmd += ["--backends", backends]
    if arbitration:
        cmd += ["--arbitration", arbitration]
    subprocess.run(cmd, cwd=REPO_ROOT, env=env, check=True, timeout=600)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def _leg(run):
    """The BENCH row for one pipeline_bench run."""
    stats = run["stats"]
    return {
        "jobs": run["jobs"],
        "wall_s": run["wall_s"],
        "files_per_s": run["files_per_s"],
        "preprocess_cache": stats["preprocess_cache"],
        "parse_cache": stats["parse_cache"],
        "slr_cache": stats["slr_cache"],
        "str_cache": stats["str_cache"],
        "validate_cache": stats["validate_cache"],
        "stage_totals_s": stats["stage_totals_s"],
        "robustness": run["robustness"],
    }


def test_bench_pipeline_throughput(benchmark, tmp_path):
    """Sampled SAMATE batch: cold vs warm-in-process vs warm-cross-process.

    Four fresh-interpreter legs share one ``REPRO_CACHE_DIR``:

    1. ``jobs=1 --repeat 2`` — run 1 is **cold** (empty store), run 2 is
       **warm in-process** (memory LRUs hot);
    2. ``jobs=4`` — **warm cross-process**: a new interpreter with empty
       memory caches replaying preprocess/parse/transform/verdict
       artifacts from the disk store;
    3. ``jobs=1`` with ``REPRO_DISK_CACHE=0`` — the no-disk control.

    Counts and oracle verdicts must be identical across all legs; the
    results land in ``BENCH_OUT``.
    """
    scale, limit = 0.05, 24
    cache_dir = tmp_path / "store"

    first = _bench_subprocess(cache_dir, tmp_path / "first.json",
                              jobs=1, repeat=2, scale=scale, limit=limit)
    cold, warm_in = first
    warm_x = benchmark.pedantic(
        lambda: _bench_subprocess(cache_dir, tmp_path / "cross.json",
                                  jobs=4, scale=scale, limit=limit)[0],
        rounds=1, iterations=1)
    nodisk = _bench_subprocess(tmp_path / "unused-store",
                               tmp_path / "nodisk.json",
                               jobs=1, scale=scale, limit=limit,
                               disk=False)[0]

    legs = {"cold": cold, "warm_in_process": warm_in,
            "warm_cross_process": warm_x, "no_disk_cache": nodisk}
    counts_identical = all(run["counts"] == cold["counts"]
                           for run in legs.values())
    verdicts_identical = all(run["verdicts"] == cold["verdicts"]
                             for run in legs.values())
    assert counts_identical, "legs disagree on transform counts"
    assert verdicts_identical, "legs disagree on oracle verdicts"
    assert cold["verdicts"], "oracle produced no verdicts"

    # The cross-process leg starts with empty memory LRUs — any work it
    # skipped must have come from the disk store.
    warm_pp = warm_x["stats"]["preprocess_cache"]
    assert warm_pp["disk_hits"] > 0, warm_pp
    assert warm_pp["misses"] == warm_pp["disk_hits"] \
        + warm_pp["disk_misses"], warm_pp

    speedup_x = cold["wall_s"] / warm_x["wall_s"]
    speedup_in = cold["wall_s"] / max(warm_in["wall_s"], 1e-9)
    update = {
        "benchmark": "sampled SAMATE batch transformation pipeline "
                     "(validate=True)",
        "scale": scale,
        "files": cold["files"],
        "cold": _leg(cold),
        "warm_in_process": _leg(warm_in),
        "warm_cross_process": _leg(warm_x),
        "no_disk_cache": _leg(nodisk),
        "speedup_warm_in_process": round(speedup_in, 2),
        "speedup_warm_cross_process": round(speedup_x, 2),
        "counts_identical": counts_identical,
        "verdicts_identical": verdicts_identical,
    }
    merge_bench(update)

    # Acceptance target is >=3x cross-process; assert a conservative
    # floor so a loaded CI host does not flake, and record the measured
    # value in the JSON.
    assert speedup_x >= 1.5, (cold["wall_s"], warm_x["wall_s"])


def test_bench_pipeline_incremental(benchmark, tmp_path):
    """Incremental leg: edit-to-verdict latency of a warm engine on a
    one-function edit of a multi-function file vs the cold pipeline.

    The run itself asserts byte-identity (text, per-site outcomes,
    verdicts) between the incremental update and a cold
    ``transform_file`` of the same edited text; this gate additionally
    requires the warm update to be at least 5x faster and to have
    served unchanged functions from the ``func`` artifact family.
    Results land under the ``incremental`` key of
    ``BENCH_pipeline.json``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "store")
    env.pop("REPRO_INCREMENTAL", None)
    out_path = tmp_path / "incremental.json"
    cmd = [sys.executable, "-m", "repro.eval.pipeline_bench",
           "--incremental", "96", "--seed", "0", "--out", str(out_path)]
    benchmark.pedantic(
        lambda: subprocess.run(cmd, cwd=REPO_ROOT, env=env, check=True,
                               timeout=600),
        rounds=1, iterations=1)
    with open(out_path, encoding="utf-8") as fh:
        record = json.load(fh)["incremental"]

    assert record["mode"] == "incremental", record
    assert record["text_identical"], "incremental text diverged from cold"
    assert record["outcomes_identical"], "per-site outcomes diverged"
    assert record["verdicts_identical"], "oracle verdicts diverged"
    assert record["verdicts"], "oracle produced no verdicts"
    assert record["func_cache"]["hits"] > 0, record["func_cache"]
    assert record["invalidated"] == [record["edited_function"]], record
    # The acceptance target: one-function edit-to-verdict at least 5x
    # faster than the cold path (measured ~7-10x).
    assert record["speedup"] >= 5.0, \
        (record["cold_wall_s"], record["incremental_wall_s"])

    merge_bench({"incremental": record})


def test_bench_pipeline_resume(benchmark, tmp_path):
    """Resume leg: replay overhead of ``repro batch --resume`` on a
    fully journaled synth batch.

    A journaled clean run computes every file, then a second
    ``apply_batch`` resumes from the same journal — every report must
    replay from the journal's result pointers byte-identically, and the
    replay must be much cheaper than the compute.  Results land under
    the ``resume`` key of ``BENCH_pipeline.json``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "store")
    env["REPRO_RUN_DIR"] = str(tmp_path / "runs")
    env.pop("REPRO_FAULTS", None)
    out_path = tmp_path / "resume.json"
    cmd = [sys.executable, "-m", "repro.eval.pipeline_bench",
           "--resume-leg", "--corpus", "synth", "--limit", "24",
           "--jobs", "1", "--no-validate", "--out", str(out_path)]
    benchmark.pedantic(
        lambda: subprocess.run(cmd, cwd=REPO_ROOT, env=env, check=True,
                               timeout=600),
        rounds=1, iterations=1)
    with open(out_path, encoding="utf-8") as fh:
        record = json.load(fh)["resume"]

    assert record["reports_identical"], "resumed reports diverged"
    assert record["replayed"] == record["files"], record
    assert record["quarantined"] == 0, record
    assert record["status"]["failed"] == 0, record["status"]
    # Replay reads pickles instead of running the pipeline; anything
    # below 2x would mean resume recomputed.
    assert record["speedup"] is None or record["speedup"] >= 2.0, record

    merge_bench({"resume": record})


def test_bench_pipeline_arbitration(benchmark, tmp_path):
    """Arbitration leg: the same sampled batch with 2 vs 4 fix backends.

    Arbitration judges every candidate with the oracle, so cost grows
    with the backend count; the leg records both walls (and the
    scoreboards) under the ``arbitration`` key of
    ``BENCH_pipeline.json`` so the trade-off is visible next to the
    cache legs.  Both runs must select zero oracle-rejected candidates.
    """
    scale, limit = 0.05, 12
    two = benchmark.pedantic(
        lambda: _bench_subprocess(tmp_path / "store2",
                                  tmp_path / "two.json",
                                  scale=scale, limit=limit,
                                  backends="slr,str")[0],
        rounds=1, iterations=1)
    four = _bench_subprocess(tmp_path / "store4", tmp_path / "four.json",
                             scale=scale, limit=limit,
                             backends="slr,str,tr24731,s3lib")[0]

    for run, n_backends in ((two, 2), (four, 4)):
        arb = run["arbitration"]
        assert arb is not None, "arbitration leg recorded no arbitration"
        assert len(arb["scoreboard"]) == n_backends, arb["scoreboard"]
        # A selected candidate is never one the oracle disqualified.
        for row in arb["scoreboard"].values():
            assert row["selected"] <= row["attempted"] - row["rejected"]
        assert run["semantics_preserved"], "shipped a worse file"

    entry = {
        "files": two["files"],
        "two_backends": {"backends": "slr,str",
                         "wall_s": two["wall_s"],
                         "attempted": two["arbitration"]["attempted"],
                         "rejected": two["arbitration"]["rejected"],
                         "scoreboard": two["arbitration"]["scoreboard"]},
        "four_backends": {"backends": "slr,str,tr24731,s3lib",
                          "wall_s": four["wall_s"],
                          "attempted": four["arbitration"]["attempted"],
                          "rejected": four["arbitration"]["rejected"],
                          "scoreboard":
                              four["arbitration"]["scoreboard"]},
        "slowdown_4_vs_2": round(four["wall_s"]
                                 / max(two["wall_s"], 1e-9), 2),
    }
    merge_bench({"arbitration": entry})


def test_bench_pipeline_composition(benchmark, tmp_path):
    """Composition leg: the same sampled batch under file- vs site-mode
    arbitration with two backends.

    Site mode pays for per-site replay + judging plus the composite
    re-judge on top of the whole-file search; the leg records both
    walls and the site-mode rollups under the ``composition`` key of
    ``BENCH_pipeline.json``.  The site run must ship zero
    semantics-changed files — the standing correctness gate holds under
    composition too.
    """
    scale, limit = 0.05, 12
    file_run = benchmark.pedantic(
        lambda: _bench_subprocess(tmp_path / "storef",
                                  tmp_path / "file.json",
                                  scale=scale, limit=limit,
                                  backends="slr,str")[0],
        rounds=1, iterations=1)
    site_run = _bench_subprocess(tmp_path / "stores",
                                 tmp_path / "site.json",
                                 scale=scale, limit=limit,
                                 backends="slr,str",
                                 arbitration="site")[0]

    assert file_run["arbitration"].get("mode") is None
    site_arb = site_run["arbitration"]
    assert site_arb["mode"] == "site"
    assert site_run["semantics_preserved"], "composite changed semantics"
    # Every shipped composite's sites sum into the winner breakdown.
    assert sum(site_arb["site_winners"].values()) \
        >= site_arb["composites_shipped"]

    entry = {
        "files": file_run["files"],
        "backends": "slr,str",
        "file_mode": {"wall_s": file_run["wall_s"],
                      "scoreboard": file_run["arbitration"]["scoreboard"]},
        "site_mode": {"wall_s": site_run["wall_s"],
                      "composites_shipped":
                          site_arb["composites_shipped"],
                      "site_winners": site_arb["site_winners"],
                      "scoreboard": site_arb["scoreboard"]},
        "slowdown_site_vs_file": round(site_run["wall_s"]
                                       / max(file_run["wall_s"], 1e-9),
                                       2),
    }
    merge_bench({"composition": entry})
