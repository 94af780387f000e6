"""Host-normalised, layer-traced benchmark of the SLR/STR pipeline.

    python3 perfbench/run.py --workload {cold-oracle,warm-rerun,edit-loop}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every measuring process is a fresh
interpreter (``perfbench/worker.py``) with a private, initially empty
``REPRO_CACHE_DIR``/``REPRO_RUN_DIR`` under ``.perfbench-work/`` and no
inherited ``REPRO_*`` settings; the directory is removed at exit.
The program runs at ``jobs=1`` and is driven through its public API.

Workloads (see README.md for the layer -> metric -> workload map):

* ``cold-oracle``: a stratified, seeded draw of SAMATE programs through
  ``stream_batch(..., validate=True, journal=RunJournal())`` against an
  empty store — a user's first ``repro batch --validate``.
* ``warm-rerun``: the same draw, primed into the store by one child
  process, then re-run by fresh measuring processes — a CI re-check of
  an unchanged tree.
* ``edit-loop``: seeded function-body edits to the 18 preprocessed
  Table IV corpus files, one warm ``IncrementalEngine`` each, oracle on
  — ``repro watch`` edit-to-verdict.

Times are normalised by a host-speed probe (``probe.py``).  Human
readable lines (every metric with unit and sample count, the gates, an
``audit`` line with raw times and probe readings) come first; the last
line of stdout is the JSON result.  The exit code is 0 when every
correctness gate passed, 1 when one failed, 2 on bad usage or a
checkout without the program, 3 when a measuring process failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from probe import normalize, normalize_series, smoothed  # noqa: E402
from tracer import GC, ROOT, self_times  # noqa: E402

WORKLOADS = ("cold-oracle", "warm-rerun", "edit-loop")
#: Fresh-interpreter set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Warm-rerun's priming pass is set-up, not measured: it may use a pool.
PRIME_JOBS = 2
#: Every run, builds excepted, must end within 180 s.
DEADLINE_S = 170.0
MB = 1e6


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts measuring processes with a scrubbed environment."""

    def __init__(self, root: str, work: str, args):
        self.root = root
        self.work = work
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S

    def env(self, state: str) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        src = os.path.join(self.root, "src")
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited
                                   else "")
        env["PYTHONHASHSEED"] = "0"
        env["REPRO_CACHE_DIR"] = os.path.join(state, "cache")
        env["REPRO_RUN_DIR"] = os.path.join(state, "runs")
        return env

    def worker(self, mode: str, state: str, tag: str,
               trace: int = 0, jobs: int = 1) -> dict:
        scratch = os.path.join(self.work, tag)
        os.makedirs(scratch, exist_ok=True)
        out = os.path.join(scratch, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", self.args.workload,
               "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds),
               "--trace", str(trace), "--jobs", str(jobs),
               "--scratch", scratch, "--out", out]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed(f"{tag}: time budget exhausted")
        proc = subprocess.run(cmd, env=self.env(state), cwd=self.root,
                              stdout=sys.stderr, timeout=remaining)
        if proc.returncode != 0:
            raise WorkerFailed(f"{tag}: exit code {proc.returncode}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


# ------------------------------------------------------------ statistics

def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def timing_metrics(raw: list[float], probes: list[float]) -> dict:
    norm = normalize_series(raw, probes)
    value90, beyond = p90(norm)
    return {"items": len(norm), "items_per_s": len(norm) / sum(norm),
            "item_ms_p50": statistics.median(norm) * 1e3,
            "item_ms_p90": value90 * 1e3, "p90_beyond": beyond}


def layer_metrics(passes: list[dict], batch: bool,
                  runlog_bytes: int) -> dict:
    """Per-layer metrics from the spans of one or more traced passes."""
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    counters: dict[str, float] = {}
    gc_max = overhead = wall = unattributed = 0.0
    for result in passes:
        spans = result["spans"]
        names = spans["names"]
        factors = [normalize(1.0, p) for p in smoothed(result["probe_s"])]
        own = self_times(spans)
        transform = names.index("batch.transform") \
            if "batch.transform" in names else -1
        for index, code in enumerate(spans["code"]):
            name = names[code]
            factor = factors[spans["item"][index]]
            ms = own[index] * factor * 1e3
            dur = (spans["end"][index] - spans["start"][index]) * factor * 1e3
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + ms
            if name == ROOT:
                wall += dur
                unattributed += ms
                if batch:
                    overhead += dur
            elif code == transform and batch:
                overhead -= dur
            elif name == GC:
                gc_max = max(gc_max, dur)
        for key, value in spans["counters"].items():
            counters[key] = counters.get(key, 0) + value
    timings = timing_metrics(
        [r for result in passes for r in result["raw_s"]],
        [p for result in passes for p in result["probe_s"]])

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_ms.get(name, 0.0)

    def k(name):
        return counters.get(name, 0)

    def share(part, whole):
        return part / whole if whole else 0.0

    loads = c("store.load")
    probes = k("validate.probes_reused") + k("validate.probes_executed")
    updates = c("incremental")
    func_lookups = k("incremental.func_hits") + k("incremental.func_misses")
    return {
        "cfront.lex.calls": c("cfront.lex"),
        "cfront.lex.self_ms": s("cfront.lex"),
        "cfront.preprocess.calls": c("cfront.preprocess"),
        "cfront.preprocess.self_ms": s("cfront.preprocess"),
        "cfront.parse.calls": c("cfront.parse"),
        "cfront.parse.self_ms": s("cfront.parse"),
        "cfront.parse.kb_per_s": share(k("cfront.parse.bytes"),
                                       s("cfront.parse")),
        "funcdiff.calls": c("funcdiff"),
        "funcdiff.self_ms": s("funcdiff"),
        "analysis.cfg.self_ms": s("analysis.cfg"),
        "analysis.reaching.self_ms": s("analysis.reaching"),
        "analysis.pointsto.self_ms": s("analysis.pointsto"),
        "analysis.alias.self_ms": s("analysis.alias"),
        "analysis.dependence.self_ms": s("analysis.dependence"),
        "bufferlen.calls": c("bufferlen"),
        "bufferlen.self_ms": s("bufferlen"),
        "bufferlen.unknown_share": share(k("bufferlen.unknown"),
                                         c("bufferlen")),
        "slr.self_ms": s("slr"),
        "slr.sites": k("slr.sites"),
        "slr.transformed": k("slr.transformed"),
        "str.self_ms": s("str"),
        "str.buffers": k("str.buffers"),
        "str.transformed": k("str.transformed"),
        "validate.self_ms": s("validate"),
        "validate.probes_reused_share": share(k("validate.probes_reused"),
                                              probes),
        "vm.runs": c("vm"),
        "vm.self_ms": s("vm"),
        "vm.steps": k("vm.steps"),
        "vm.steps_per_s": share(k("vm.steps") * 1e3, s("vm")),
        "verify.calls": c("verify"),
        "verify.self_ms": s("verify"),
        "store.load.calls": loads,
        "store.load.hit_share": share(k("store.load.hits"), loads),
        "store.load.self_ms": s("store.load"),
        "store.load.mb": k("store.load.bytes") / MB,
        "store.save.calls": c("store.save"),
        "store.save.self_ms": s("store.save"),
        "store.save.mb": k("store.save.bytes") / MB,
        "store.save.parse_mb": k("store.save.parse_bytes") / MB,
        "store.save.execute_mb": k("store.save.execute_bytes") / MB,
        "runlog.calls": c("runlog"),
        "runlog.self_ms": s("runlog"),
        "runlog.mb": runlog_bytes / MB,
        "incremental.updates": updates,
        "incremental.self_ms": s("incremental"),
        "incremental.full_share": share(k("incremental.full"), updates),
        "incremental.invalidated_per_edit": share(
            k("incremental.invalidated"), updates),
        "incremental.func_hit_share": share(k("incremental.func_hits"),
                                            func_lookups),
        "batch.files": timings["items"] if batch else 0,
        "batch.overhead_ms": overhead,
        "batch.transform.self_ms": s("batch.transform"),
        "gc.pause_ms": s(GC),
        "gc.gen2_collections": k("gc.gen2_collections"),
        "gc.max_pause_ms": gc_max,
        "trace.items_per_s": timings["items_per_s"],
        "trace.item_ms_p50": timings["item_ms_p50"],
        "trace.wall_ms": wall,
        "trace.unattributed_ms": unattributed,
    }


# -------------------------------------------------------------- workloads

def measure_setup(runner: Runner) -> tuple[list[float], list[float]]:
    """``SETUP_REPEATS`` fresh-interpreter set-ups: (raw, normalised)."""
    raw, norm = [], []
    for i in range(SETUP_REPEATS):
        state = os.path.join(runner.work, f"setup-state-{i}")
        result = runner.worker("setup", state, f"setup-{i}")
        raw.append(result["raw_s"][0])
        norm.append(normalize(result["raw_s"][0], result["probe_s"][0]))
    return raw, norm


def run_workload(runner: Runner) -> dict:
    args = runner.args
    state = os.path.join(runner.work, "state")
    setups_raw, setups = measure_setup(runner)
    failures: list[str] = []
    audit: dict = {"setup_raw_s": setups_raw, "setup_norm_s": setups}
    if args.workload == "edit-loop":
        result = runner.worker("edits", state, "edits", args.trace)
        passes = [result]
        warmup = normalize_series(result["setup_raw_s"],
                                  result["setup_probe_s"])
        setup_s = statistics.median(setups) + sum(warmup)
        setup_raw = statistics.median(setups_raw) \
            + sum(result["setup_raw_s"])
        audit["warmup_raw_s"] = result["setup_raw_s"]
        audit["warmup_probe_s"] = result["setup_probe_s"]
        modes: dict[str, int] = {}
        for _name, _kind, mode, _inv in result["edits"]:
            modes[mode] = modes.get(mode, 0) + 1
        audit["update_modes"] = modes
        failures += result["failures"]
        peak = result["peak_rss_bytes"]
        runlog = 0
    else:
        passes = []
        if args.workload == "warm-rerun":
            prime = runner.worker("batch", state, "prime", jobs=PRIME_JOBS)
            failures += [f"priming: {f}" for f in prime["failures"]]
            audit["prime_raw_s"] = sum(prime["raw_s"])
            audit["prime_norm_s"] = sum(normalize_series(
                prime["raw_s"], prime["probe_s"]))
            for i in range(inputs.warm_passes(args.seconds)):
                result = runner.worker("batch", state, f"pass-{i}",
                                       args.trace)
                failures += result["failures"]
                for name, digest in result["digests"].items():
                    if prime["digests"].get(name) != digest:
                        failures.append(f"pass {i} {name}: report differs "
                                        f"from the priming pass")
                passes.append(result)
        else:
            result = runner.worker("batch", state, "cold", args.trace)
            failures += result["failures"]
            passes.append(result)
        setup_s = statistics.median(setups)
        setup_raw = statistics.median(setups_raw)
        peak = statistics.median(r["peak_rss_bytes"] for r in passes)
        runlog = sum(r["runlog_bytes"] for r in passes)
    raw = [r for result in passes for r in result["raw_s"]]
    probes = [p for result in passes for p in result["probe_s"]]
    timings = timing_metrics(raw, probes)
    audit["raw_s"] = raw
    audit["probe_s"] = probes
    audit["raw"] = {
        "setup_s": setup_raw,
        "items_per_s": len(raw) / sum(raw),
        "item_ms_p50": statistics.median(raw) * 1e3,
        "item_ms_p90": p90(raw)[0] * 1e3,
    }
    metrics = {
        "setup_s": ("s", setup_s, f"median of {SETUP_REPEATS} fresh-"
                    "interpreter set-ups"
                    + (" + 18 engine warm-ups" if args.workload ==
                       "edit-loop" else "")),
        "items_per_s": ("1/s", timings["items_per_s"],
                        f"n={timings['items']}"),
        "item_ms_p50": ("ms", timings["item_ms_p50"],
                        f"n={timings['items']}"),
        "item_ms_p90": ("ms", timings["item_ms_p90"],
                        f"n={timings['items']}, "
                        f"{timings['p90_beyond']} beyond"),
        "peak_rss_mb": ("MB", peak / MB, f"n={len(passes)} process(es)"),
        "store_mb": ("MB", passes[-1]["store_bytes"] / MB, "n=1"),
    }
    layers = layer_metrics(passes, args.workload != "edit-loop", runlog) \
        if args.trace else None
    return {"metrics": metrics, "layers": layers, "failures": failures,
            "items": timings["items"], "audit": audit}


ALIASES = {
    "items_per_s": {"edit-loop": "edits_per_s"},
    "item_ms_p50": {"edit-loop": "edit_ms_p50"},
    "item_ms_p90": {"edit-loop": "edit_ms_p90"},
}


def alias(name: str, workload: str) -> str:
    default = name.replace("items", "files").replace("item", "file")
    return ALIASES.get(name, {}).get(workload, default)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("error: run from a checkout of the repository root "
              "(src/repro not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench-work", str(os.getpid()))
    try:
        outcome = run_workload(Runner(root, work, args))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    failures = outcome["failures"]
    attempted = outcome["items"]
    failed = min(attempted, len(failures))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}  jobs 1")
    for name, (unit, value, note) in outcome["metrics"].items():
        label = alias(name, args.workload)
        shown = name if label == name else f"{name} ({label})"
        print(f"  {shown:32s} {value:12.4f} {unit:4s}  [{note}]")
    print(f"  {'failed_share':32s} {failed / attempted:12.4f} ratio "
          f"[{failed}/{attempted}]")
    print(f"gates: {'pass' if not failures else 'FAIL'} "
          f"({len(failures)} problem(s))")
    for problem in failures[:20]:
        print(f"  {problem}")
    if outcome["layers"] is not None:
        layers = outcome["layers"]
        for name, value in layers.items():
            print(f"  {name:36s} {value:14.4f}")
        wall = layers["trace.wall_ms"]
        accounted = wall - layers["trace.unattributed_ms"]
        print(f"self times: {accounted:.1f} of {wall:.1f} ms traced wall "
              f"inside wrapped layers and gc "
              f"({100 * accounted / wall if wall else 0:.1f}%)")
    print("audit " + json.dumps(outcome["audit"]))
    if outcome["layers"] is not None:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in outcome["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (unit, value, _note)
                   in outcome["metrics"].items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("kb_per_s"):
        return "kB/s"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
