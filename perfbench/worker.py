"""One measuring process of a benchmark run (always a fresh interpreter).

    python3 perfbench/worker.py {setup,batch,edits} --workload W --seed S
        --seconds N --trace {0,1} --out RESULT.json

``run.py`` starts it with a scrubbed environment (temp ``REPRO_CACHE_DIR``
and ``REPRO_RUN_DIR``, ``PYTHONPATH=src``).  The program is driven only
through its public API, at ``jobs=1``.  Every timed call is preceded by
a host-speed probe (:mod:`probe`); raw times and probe readings are
written out with the result, once, at the end.

* ``setup``: time importing the program and building the workload's
  inputs (and, for batch workloads, opening the run journal).
* ``batch``: ``stream_batch(..., jobs=1, validate=True,
  journal=RunJournal())`` over a SAMATE draw, one timed call per report.
  Against an empty store this is ``cold-oracle``; against a primed store
  it is a ``warm-rerun`` pass.  Warm-rerun's untimed priming pass runs
  the same code at ``--jobs 2``.
* ``edits``: one warm ``IncrementalEngine`` per corpus file (warm-up
  timed as set-up), then the seeded edit script, one timed call per
  ``update``; afterwards each engine's last answer is checked against a
  cold ``transform_file`` of the same text in a fresh store.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import inputs
from probe import Timer, read_probe
from tracer import Tracer

SETUP_READINGS = 5


def tree_bytes(root: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass
    return total


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def report_digest(report) -> str:
    """Hash of everything a user sees of one file's report: status,
    text, parses, site outcomes, verdicts and diagnostics (with their
    filenames)."""
    record = {
        "filename": report.filename, "status": report.status,
        "parses": report.parses, "final_text": report.final_text,
        "slr": [dataclasses.asdict(o) for o in report.slr.outcomes]
        if report.slr is not None else None,
        "str": [dataclasses.asdict(o) for o in report.str_.outcomes]
        if report.str_ is not None else None,
        "validation": report.validation.as_dict()
        if report.validation is not None else None,
        "diagnostics": [d.as_dict() for d in report.diagnostics],
    }
    blob = json.dumps(record, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def samate_gate(report, label) -> str:
    """Why ``report`` fails the Table III gates ('' when it passes)."""
    if report.status != "ok" or not report.parses:
        return f"status={report.status} parses={report.parses}"
    slr = report.slr is not None and report.slr.transformed_count > 0
    str_ = report.str_ is not None and report.str_.transformed_count > 0
    if slr != label.slr_applicable:
        return f"SLR applied={slr}, labelled {label.slr_applicable}"
    if str_ != label.str_applicable:
        return f"STR applied={str_}, labelled {label.str_applicable}"
    counts = report.validation.counts() if report.validation else {}
    if counts.get("overflow-prevented", 0) < 1 \
            or counts.get("semantics-changed", 0):
        return f"verdicts {counts}"
    return ""


def timed(timer: Timer, tracer: Tracer | None, fn, *args):
    if tracer is None:
        return timer.call(fn, *args)
    return timer.call(tracer.root, len(timer.raw), fn, *args)


def run_setup(args) -> dict:
    """A set-up is one call, so its probe value is the median of
    readings taken just before and just after it."""
    before = [read_probe() for _ in range(SETUP_READINGS)]
    start = time.perf_counter()
    if args.workload == "edit-loop":
        inputs.corpus_files()
    else:
        from repro.core.runlog import RunJournal
        program, _labels = inputs.samate_draw(
            args.seed, inputs.draw_size(args.seconds))
        journal = RunJournal()
        journal.begin(program, inputs.SETTINGS)
        journal.close()
    raw = time.perf_counter() - start
    after = [read_probe() for _ in range(SETUP_READINGS)]
    return {"raw_s": [raw], "probe_s": [statistics.median(before + after)]}


def run_batch(args) -> dict:
    from repro.core.batch import stream_batch
    from repro.core.runlog import RunJournal

    program, labels = inputs.samate_draw(args.seed,
                                         inputs.draw_size(args.seconds))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    runs_dir = os.environ["REPRO_RUN_DIR"]
    runs_before = tree_bytes(runs_dir)
    journal = RunJournal()
    journal.begin(program, inputs.SETTINGS)
    stream = iter(stream_batch(program, jobs=args.jobs, validate=True,
                               journal=journal))
    timer = Timer()
    digests: dict[str, str] = {}
    failures: list[str] = []
    for _ in range(len(labels)):
        report = timed(timer, tracer, next, stream)
        digests[report.filename] = report_digest(report)
        problem = samate_gate(report, labels[report.filename])
        if problem:
            failures.append(f"{report.filename}: {problem}")
    leftover = list(stream)
    if leftover:
        failures.append(f"stream emitted {len(leftover)} extra reports")
    return {
        "raw_s": timer.raw, "probe_s": timer.probes,
        "peak_rss_bytes": peak_rss_bytes(),
        "store_bytes": tree_bytes(os.environ["REPRO_CACHE_DIR"]),
        "runlog_bytes": tree_bytes(runs_dir) - runs_before,
        "failures": failures, "digests": digests,
        "spans": tracer.columns() if tracer is not None else None,
    }


def _essence(report) -> dict:
    """What an edit-to-verdict answer consists of."""
    return {
        "final_text": report.final_text, "parses": report.parses,
        "slr": [dataclasses.asdict(o) for o in report.slr_outcomes],
        "str": [dataclasses.asdict(o) for o in report.str_outcomes],
        "validation": report.validation.as_dict()
        if report.validation is not None else None,
    }


def _cold_answer(filename: str, text: str, session) -> dict:
    from repro.core.batch import FileTask, transform_file

    pp = session.preprocess(text, filename).text
    cold = transform_file(FileTask(filename, pp, validate=True),
                          session=session)
    return {
        "final_text": cold.final_text, "parses": cold.parses,
        "slr": [dataclasses.asdict(o) for o in cold.slr.outcomes]
        if cold.slr is not None else [],
        "str": [dataclasses.asdict(o) for o in cold.str_.outcomes]
        if cold.str_ is not None else [],
        "validation": cold.validation.as_dict()
        if cold.validation is not None else None,
    }


def run_edits(args) -> dict:
    from repro.cfront.cache import clear_all_caches
    from repro.core.incremental import IncrementalEngine
    from repro.core.session import AnalysisSession
    from repro.core.store import reset_store

    files = inputs.corpus_files()
    script = inputs.edit_script(files, args.seed,
                                inputs.edit_rounds(args.seconds))
    engines = {name: IncrementalEngine(name, validate=True)
               for name in sorted(files)}
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    failures: list[str] = []
    warmup = Timer()
    last = {}
    for name in sorted(files):
        report = warmup.call(engines[name].update, files[name])
        last[name] = (files[name], report)
        if not report.parses:
            failures.append(f"warm-up {name}: output does not parse")
    timer = Timer()
    edits = []
    for index, (name, text, kind) in enumerate(script):
        report = timed(timer, tracer, engines[name].update, text)
        last[name] = (text, report)
        verdicts = report.verdict_counts()
        edits.append([name, kind, report.mode, len(report.invalidated)])
        if report.mode == "error" or not report.parses \
                or verdicts.get("semantics-changed", 0):
            failures.append(f"edit {index} {name} ({kind}): mode="
                            f"{report.mode} parses={report.parses} "
                            f"verdicts={verdicts}")
    result = {
        "raw_s": timer.raw, "probe_s": timer.probes,
        "setup_raw_s": warmup.raw, "setup_probe_s": warmup.probes,
        "peak_rss_bytes": peak_rss_bytes(),
        "store_bytes": tree_bytes(os.environ["REPRO_CACHE_DIR"]),
        "edits": edits,
        "spans": tracer.columns() if tracer is not None else None,
    }
    # Outside the timed region: every engine's last answer must equal a
    # cold run of the same text, in a fresh store and session.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(args.scratch, "cold-store")
    reset_store()
    clear_all_caches()
    session = AnalysisSession()
    for name in sorted(files):
        text, report = last[name]
        if _essence(report) != _cold_answer(name, text, session):
            failures.append(f"{name}: incremental answer differs from a "
                            f"cold transform_file of the same text")
    result["failures"] = failures
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "batch", "edits"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="batch workers (measured runs use 1)")
    parser.add_argument("--scratch", required=True,
                        help="directory this process may write to")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    run = {"setup": run_setup, "batch": run_batch, "edits": run_edits}
    result = run[args.mode](args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
