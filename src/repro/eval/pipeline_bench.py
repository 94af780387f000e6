"""Measurable, subprocess-friendly pipeline benchmark runner.

Runs a stratified sample of the SAMATE suite through
:func:`repro.core.batch.apply_batch` (with the differential oracle on)
and prints one JSON record per run: wall seconds, per-file transform
counts, oracle verdicts, cache counters (memory and disk layers), and
the per-stage time breakdown.

The benchmark harness (``benchmarks/test_bench_perf_overhead.py``)
launches this module in fresh interpreters to measure the three legs the
persistent artifact store distinguishes:

* **cold** — new process, empty ``REPRO_CACHE_DIR``;
* **warm in-process** — second ``--repeat`` in the same interpreter
  (memory LRUs hot);
* **warm cross-process** — new interpreter, same ``REPRO_CACHE_DIR``
  (memory LRUs empty, disk store hot).

Counts and verdicts are emitted so the harness can assert that every
leg — any ``--jobs`` value, disk cache on or off — produces identical
results.

``--corpus synth`` swaps the SAMATE sample for the mutational
synthesizer (``--limit`` becomes the file count), and ``--summary``
switches to the streaming scheduler: reports are aggregated as they
arrive instead of collected, so the record adds peak RSS, the stream's
buffering high-water mark, and the store's write-contention summary —
the numbers the 1k/10k batch-scale legs gate on.

Run by hand::

    python -m repro.eval.pipeline_bench --scale 0.05 --limit 24 \
        --jobs 4 --repeat 2
    python -m repro.eval.pipeline_bench --corpus synth --limit 1000 \
        --jobs 4 --no-validate --summary
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..core.batch import BatchResult, SourceProgram, apply_batch
from .samate_runner import stratified_sample


def sample_program(scale: float = 0.05, limit: int = 24) -> SourceProgram:
    """A multi-file :class:`SourceProgram` built from a stratified SAMATE
    sample — one .c file per generated test program."""
    from ..samate import generate_suite
    programs = [p for progs in generate_suite(scale).values()
                for p in progs]
    sample = stratified_sample(programs, limit)
    return SourceProgram(
        name=f"samate-sample-{len(sample)}",
        files={p.name + ".c": p.source for p in sample})


def build_corpus(corpus: str, *, scale: float, limit: int,
                 synth_seed: int) -> SourceProgram:
    """The benchmark input: a stratified SAMATE sample, or ``limit``
    synthesized ground-truth mutants (deterministic in ``synth_seed``)."""
    if corpus == "synth":
        from ..corpus.synth import build_program
        return build_program(limit, synth_seed)
    return sample_program(scale, limit)


def run_record(result: BatchResult, wall_s: float) -> dict:
    """One benchmark run as a JSON-ready record."""
    counts = {r.filename: {
        "slr": [r.slr.transformed_count, r.slr.candidates]
               if r.slr else None,
        "str": [r.str_.transformed_count, r.str_.candidates]
               if r.str_ else None,
        "parses": r.parses,
    } for r in result.reports}
    verdicts = {r.filename: dict(sorted(r.validation.counts().items()))
                for r in result.reports if r.validation is not None}
    stats = result.stats
    supervision = dict(stats.supervision) if stats else {}
    status = result.status_counts()
    arbitration = None
    if result.arbitrations():
        arbitration = {
            "winners": result.winners(),
            "scoreboard": result.backend_scoreboard(),
            "attempted": result.backends_attempted,
            "rejected": result.backends_rejected,
        }
        if any(a.mode == "site" for a in result.arbitrations()):
            arbitration["mode"] = "site"
            arbitration["composites_shipped"] = result.composites_shipped
            arbitration["site_winners"] = result.site_winner_totals()
    return {
        "arbitration": arbitration,
        "jobs": stats.jobs if stats else None,
        "wall_s": round(wall_s, 4),
        "files": len(result.reports),
        "files_per_s": round(len(result.reports) / wall_s, 2)
                       if wall_s > 0 else None,
        "counts": counts,
        "verdicts": verdicts,
        "semantics_preserved": result.semantics_preserved,
        # Robustness: contained-failure and supervision tallies — all
        # zero on a healthy run, and the harness asserts exactly that.
        "robustness": {
            "failed": status["failed"],
            "degraded": status["degraded"],
            "timeouts": supervision.get("timeouts", 0),
            "retries": supervision.get("retries", 0),
            "worker_deaths": supervision.get("worker_deaths", 0),
        },
        "stats": stats.as_dict() if stats else None,
    }


def run_benchmark(*, scale: float = 0.05, limit: int = 24,
                  jobs: int = 1, repeat: int = 1,
                  validate: bool = True,
                  fuzz_seed: int | None = None,
                  backends: str | None = None,
                  arbitration: str | None = None,
                  corpus: str = "samate",
                  synth_seed: int = 0) -> list[dict]:
    """Run the sampled batch ``repeat`` times and record each run.

    Repeats share the process's memory caches, so run 2+ measures the
    warm-in-process leg.  The program is rebuilt (and its preprocess
    memo dropped) each time so every run exercises the full pipeline.
    ``backends`` swaps the legacy chain for per-file arbitration (the
    bench's arbitration leg scales cost with the backend count);
    ``arbitration="site"`` measures the composition leg on top (per-site
    replay + judge + composite re-judge).
    """
    records = []
    for _ in range(max(1, repeat)):
        program = build_corpus(corpus, scale=scale, limit=limit,
                               synth_seed=synth_seed)
        start = time.perf_counter()
        result = apply_batch(program, jobs=jobs, validate=validate,
                             fuzz_seed=fuzz_seed, backends=backends,
                             arbitration=arbitration)
        records.append(run_record(result, time.perf_counter() - start))
    return records


def run_summary(*, scale: float = 0.05, limit: int = 24, jobs: int = 1,
                validate: bool = True, fuzz_seed: int | None = None,
                corpus: str = "samate", synth_seed: int = 0) -> dict:
    """One streaming run: aggregate reports as they arrive, never
    retaining the batch.

    This is the batch-scale measurement mode: the record keeps rollup
    totals (status, transform counts, verdicts) instead of per-file
    entries, and adds peak RSS, the stream's buffering high-water mark,
    and the artifact store's write-contention summary.
    """
    import resource

    from ..core.batch import stream_batch
    from ..core.store import get_store

    program = build_corpus(corpus, scale=scale, limit=limit,
                           synth_seed=synth_seed)
    start = time.perf_counter()
    stream = stream_batch(program, jobs=jobs, validate=validate,
                          fuzz_seed=fuzz_seed)
    status = {"ok": 0, "degraded": 0, "failed": 0, "quarantined": 0}
    verdict_totals: dict[str, int] = {}
    parses = 0
    slr = [0, 0]
    str_ = [0, 0]
    for report in stream:
        status[report.status] += 1
        if report.parses:
            parses += 1
        if report.slr:
            slr[0] += report.slr.transformed_count
            slr[1] += report.slr.candidates
        if report.str_:
            str_[0] += report.str_.transformed_count
            str_[1] += report.str_.candidates
        if report.validation is not None:
            for verdict, n in report.validation.counts().items():
                verdict_totals[verdict] = \
                    verdict_totals.get(verdict, 0) + n
    wall_s = time.perf_counter() - start
    info = stream.info
    # Linux reports ru_maxrss in KiB; children covers the fork pool.
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "corpus": corpus,
        "files": info.emitted,
        "jobs": info.jobs,
        "wall_s": round(wall_s, 4),
        "files_per_s": round(info.emitted / wall_s, 2)
                       if wall_s > 0 else None,
        "status": status,
        "parses": parses,
        "slr_sites": slr,
        "str_buffers": str_,
        "verdict_totals": dict(sorted(verdict_totals.items())) or None,
        "stream": {
            "window": info.window,
            "max_buffered": info.max_buffered,
            "preprocess_failures": info.preprocess_failures,
            "supervision": dict(info.supervision),
        },
        "peak_rss_kb": {"parent": rss_self, "children": rss_children},
        "store_contention": get_store().contention_summary(),
    }


def run_resume_benchmark(*, limit: int = 24, jobs: int = 1,
                         validate: bool = True,
                         fuzz_seed: int | None = None,
                         corpus: str = "synth",
                         synth_seed: int = 0,
                         scale: float = 0.05) -> dict:
    """The ``resume`` leg: replay overhead of ``--resume`` on a fully
    completed run versus the compute cost of the original run.

    A journaled clean run establishes the write-ahead log, then a second
    :func:`apply_batch` resumes from it — every file should replay from
    the journal's result pointers without re-dispatching, so the resume
    wall measures pure journal-replay overhead.  Byte-identity of the
    replayed reports (status, final text, parse bit, diagnostics) is
    asserted against the original run, not assumed.
    """
    from ..core.runlog import RunJournal

    program = build_corpus(corpus, scale=scale, limit=limit,
                           synth_seed=synth_seed)

    journal = RunJournal()
    journal.begin(program, {"bench": "resume", "validate": validate})
    start = time.perf_counter()
    clean = apply_batch(program, jobs=jobs, validate=validate,
                        fuzz_seed=fuzz_seed, journal=journal)
    compute_wall = time.perf_counter() - start

    resumed = RunJournal(journal.run_id)
    resumed.load()
    start = time.perf_counter()
    replay = apply_batch(program, jobs=jobs, validate=validate,
                         fuzz_seed=fuzz_seed, journal=resumed)
    resume_wall = time.perf_counter() - start

    def _essence(result: BatchResult) -> dict:
        return {r.filename: (r.status, r.final_text, r.parses,
                             [(d.stage, d.kind) for d in r.diagnostics])
                for r in result.reports}

    identical = _essence(clean) == _essence(replay)
    speedup = compute_wall / resume_wall if resume_wall > 0 else None
    return {
        "corpus": corpus,
        "files": len(clean.reports),
        "jobs": jobs,
        "run_id": journal.run_id,
        "compute_wall_s": round(compute_wall, 4),
        "resume_wall_s": round(resume_wall, 4),
        "speedup": round(speedup, 2) if speedup else None,
        "replayed": replay.stats.replayed if replay.stats else None,
        "quarantined": replay.stats.quarantined if replay.stats else None,
        "reports_identical": identical,
        "status": replay.status_counts(),
    }


def watch_fixture(functions: int = 96) -> tuple[str, str, str]:
    """A multi-function watch fixture: ``(base, edited, dirty_name)``.

    ``functions`` worker functions (only the first two called from
    ``main``) plus a ``main`` that reads stdin; the edit touches the
    last worker's body — one function out of many, uncalled on the
    probe inputs, so the incremental path re-transforms one singleton
    component and reuses every oracle probe.
    """
    # Minimal declarations instead of full header expansion: the
    # preamble rides along in every reduced per-component unit, so a
    # lean preamble keeps the incremental path's parses proportional to
    # the edit, not to the headers.
    parts = ["typedef struct _FILE FILE;\n"
             "extern FILE *stdin;\n"
             "char *fgets(char *s, int size, FILE *stream);\n"
             "int printf(const char *fmt, ...);\n"
             "char *strcpy(char *dest, const char *src);\n"
             "char *strcat(char *dest, const char *src);\n\n"]
    for i in range(functions):
        parts.append(
            f"void worker{i}(const char *src) {{\n"
            f"    char buf[16];\n"
            f"    char aux[24];\n"
            f"    strcpy(buf, src);\n"
            f"    strcat(aux, src);\n"
            f'    printf("w{i} %s %s\\n", buf, aux);\n'
            f"}}\n\n")
    parts.append(
        "int main(void) {\n"
        "    char line[32];\n"
        "    fgets(line, sizeof line, stdin);\n"
        "    worker0(line);\n"
        "    worker1(line);\n"
        "    return 0;\n"
        "}\n")
    base = "".join(parts)
    dirty = f"worker{functions - 1}"
    edited = base.replace(f'printf("w{functions - 1} %s %s\\n", buf, aux);',
                          f'printf("w{functions - 1}: %s %s\\n", buf, aux);')
    assert edited != base
    return base, edited, dirty


def run_incremental_benchmark(*, functions: int = 96,
                              seed: int = 0) -> dict:
    """The ``incremental`` leg: edit-to-verdict latency of a warm
    :class:`repro.core.incremental.IncrementalEngine` on a one-function
    edit, against the cold pipeline on the same edited text.

    The cold leg runs with cleared memory caches and the disk layer off,
    so it measures exactly what a from-scratch ``transform_file`` pays;
    byte-identity of transformed text, per-site outcomes, and verdicts
    is asserted, not assumed.
    """
    import os

    from ..cfront.cache import clear_all_caches
    from ..core.batch import FileTask, transform_file
    from ..core.incremental import IncrementalEngine, _FUNC_CACHE
    from ..core.session import get_session, reset_session

    filename = "watch_fixture.c"
    base, edited, dirty = watch_fixture(functions)

    engine = IncrementalEngine(filename, fuzz_seed=seed)
    warm = engine.update(base)
    assert warm.mode == "full", (warm.mode, warm.reason)
    update = engine.update(edited)

    # Cold reference: empty memory caches, disk layer off for the
    # duration so nothing the warm engine published can be replayed.
    clear_all_caches()
    reset_session()
    old_disk = os.environ.get("REPRO_DISK_CACHE")
    os.environ["REPRO_DISK_CACHE"] = "0"
    try:
        session = get_session()
        start = time.perf_counter()
        pp = session.preprocess(edited, filename).text
        cold = transform_file(FileTask(filename, pp, validate=True,
                                       fuzz_seed=seed), session)
        cold_wall = time.perf_counter() - start
    finally:
        if old_disk is None:
            del os.environ["REPRO_DISK_CACHE"]
        else:
            os.environ["REPRO_DISK_CACHE"] = old_disk

    cold_outcomes = [o for result in (cold.slr, cold.str_) if result
                     for o in result.outcomes]
    incremental_outcomes = list(update.slr_outcomes) \
        + list(update.str_outcomes)
    speedup = cold_wall / update.wall_s if update.wall_s > 0 else None
    return {
        "functions": functions,
        "edited_function": dirty,
        "mode": update.mode,
        "invalidated": sorted(update.invalidated),
        "cold_wall_s": round(cold_wall, 4),
        "incremental_wall_s": round(update.wall_s, 4),
        "speedup": round(speedup, 2) if speedup else None,
        "text_identical": update.final_text == cold.final_text,
        "outcomes_identical": incremental_outcomes == cold_outcomes,
        "verdicts_identical":
            update.verdict_counts() == cold.validation.counts(),
        "verdicts": dict(sorted(update.verdict_counts().items())),
        "func_cache": {"hits": update.func_hits,
                       "misses": update.func_misses},
        "func_cache_process": _FUNC_CACHE.stats.as_dict(),
        "probes": {"reused": update.probes_reused,
                   "executed": update.probes_executed},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the transformation pipeline on a sampled "
                    "SAMATE batch; prints one JSON document")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="SAMATE suite scale factor")
    parser.add_argument("--limit", type=int, default=24,
                        help="stratified-sample size (total files)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for apply_batch")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs in this process (2nd+ = warm leg)")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip the differential oracle")
    parser.add_argument("--seed", type=int, default=None,
                        help="fuzz-input seed for the oracle")
    parser.add_argument("--backends", default=None, metavar="A,B,C",
                        help="arbitrate these fix backends per file "
                             "instead of the legacy SLR→STR chain")
    parser.add_argument("--arbitration", default=None,
                        choices=("file", "site"),
                        help="winner selection under --backends: 'file' "
                             "(default) or per-'site' composition")
    parser.add_argument("--corpus", choices=("samate", "synth"),
                        default="samate",
                        help="benchmark input: stratified SAMATE sample "
                             "(default) or the mutational synthesizer "
                             "(--limit = file count)")
    parser.add_argument("--synth-seed", type=int, default=0,
                        help="generation seed for --corpus synth")
    parser.add_argument("--summary", action="store_true",
                        help="stream the batch and print one aggregate "
                             "record (adds peak RSS, stream buffering "
                             "high-water mark, store contention) instead "
                             "of per-file runs")
    parser.add_argument("--resume-leg", action="store_true",
                        help="run the crash-recovery leg instead: a "
                             "journaled clean run, then a --resume "
                             "replay of it, reporting replay overhead "
                             "and byte-identity")
    parser.add_argument("--incremental", type=int, default=None,
                        metavar="N",
                        help="run the incremental watch-mode leg instead: "
                             "edit one of N functions in a synthetic "
                             "fixture and compare a warm engine against "
                             "the cold pipeline")
    parser.add_argument("--out", default=None,
                        help="write JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.incremental is not None:
        record = run_incremental_benchmark(functions=args.incremental,
                                           seed=args.seed or 0)
        payload = json.dumps({"incremental": record}, indent=2,
                             sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    if args.resume_leg:
        record = run_resume_benchmark(limit=args.limit, jobs=args.jobs,
                                      validate=not args.no_validate,
                                      fuzz_seed=args.seed,
                                      corpus=args.corpus,
                                      synth_seed=args.synth_seed,
                                      scale=args.scale)
        payload = json.dumps({"resume": record}, indent=2,
                             sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    if args.summary:
        record = run_summary(scale=args.scale, limit=args.limit,
                             jobs=args.jobs,
                             validate=not args.no_validate,
                             fuzz_seed=args.seed, corpus=args.corpus,
                             synth_seed=args.synth_seed)
        payload = json.dumps({"summary": record}, indent=2,
                             sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    try:
        runs = run_benchmark(scale=args.scale, limit=args.limit,
                             jobs=args.jobs, repeat=args.repeat,
                             validate=not args.no_validate,
                             fuzz_seed=args.seed,
                             backends=args.backends,
                             arbitration=args.arbitration,
                             corpus=args.corpus,
                             synth_seed=args.synth_seed)
    except (KeyError, ValueError) as exc:
        # Clean one-line exit on a typo'd backend id or bad mode.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
