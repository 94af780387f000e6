"""Span tracer for the per-layer (``--trace 1``) runs.

Wraps the program's public entry points from outside: class methods
are patched on their class, and module functions are patched on their
defining module *and* on every ``repro`` module that imported the name
(e.g. ``repro.core.batch.validate_pair``).  Only calls inside a root
span — one timed file or edit — are recorded.

Spans are kept in memory in flat arrays (name code, start, end, parent,
item id), which hold no GC-tracked objects, and written once at the end
of the run.  ``gc.callbacks`` adds one ``gc`` span per collection, as a
child of whatever span it interrupted, so collector pauses are their
own layer instead of inflating the self time of the code they hit.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import time
from array import array

ROOT = "root"
GC = "gc"


# -------------------------------------------------------- count extractors
# Each takes (counters, args, result) after a successful call.

def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _parse_bytes(counters, args, result):
    _add(counters, "cfront.parse.bytes", len(args[0].text))


def _bufferlen(counters, args, result):
    unknown = type(result).__name__ == "LengthFailure"
    _add(counters, "bufferlen.unknown", unknown)


def _sites(prefix, site_word):
    def extract(counters, args, result):
        _add(counters, f"{prefix}.{site_word}", len(result.outcomes))
        _add(counters, f"{prefix}.transformed", result.transformed_count)
    return extract


def _vm(counters, args, result):
    _add(counters, "vm.steps", result.steps)


def _load(counters, args, result):
    hit, _value, nbytes = result
    _add(counters, "store.load.hits", bool(hit))
    _add(counters, "store.load.bytes", nbytes)


def _save(counters, args, result):
    _add(counters, "store.save.bytes", result)
    family = args[1]
    if family in ("parse", "execute"):
        _add(counters, f"store.save.{family}_bytes", result)


def _update(counters, args, result):
    _add(counters, "incremental.full", result.mode == "full")
    _add(counters, "incremental.invalidated", len(result.invalidated))
    _add(counters, "incremental.func_hits", result.func_hits)
    _add(counters, "incremental.func_misses", result.func_misses)
    _add(counters, "validate.probes_reused", result.probes_reused)
    _add(counters, "validate.probes_executed", result.probes_executed)


#: (module, attribute path, layer, count extractor).  Properties are
#: wrapped through their getter.  ``ProgramAnalysis.aliases`` and
#: ``.dependence_of`` are the pipeline's own routes into the alias and
#: dependence passes; ``analyze_aliases``/``analyze_dependence`` are the
#: standalone entry points.
ENTRY_POINTS = [
    ("repro.cfront.lexer", "Lexer.tokenize", "cfront.lex", None),
    ("repro.cfront.preprocessor", "Preprocessor.preprocess",
     "cfront.preprocess", None),
    ("repro.cfront.parser", "Parser.parse", "cfront.parse", _parse_bytes),
    ("repro.cfront.funcdiff", "segment_file", "funcdiff", None),
    ("repro.cfront.funcdiff", "patch_segment", "funcdiff", None),
    ("repro.cfront.funcdiff", "diff_files", "funcdiff", None),
    ("repro.analysis.cfg", "build_all_cfgs", "analysis.cfg", None),
    ("repro.analysis", "ProgramAnalysis.reaching_of",
     "analysis.reaching", None),
    ("repro.analysis", "ProgramAnalysis.pointsto", "analysis.pointsto",
     None),
    ("repro.analysis.alias", "analyze_aliases", "analysis.alias", None),
    ("repro.analysis", "ProgramAnalysis.aliases", "analysis.alias", None),
    ("repro.analysis.dependence", "analyze_dependence",
     "analysis.dependence", None),
    ("repro.analysis", "ProgramAnalysis.dependence_of",
     "analysis.dependence", None),
    ("repro.core.bufferlen", "BufferLengthAnalyzer.get_buffer_length",
     "bufferlen", _bufferlen),
    ("repro.core.slr", "SafeLibraryReplacement.run", "slr",
     _sites("slr", "sites")),
    ("repro.core.strtransform", "SafeTypeReplacement.run", "str",
     _sites("str", "buffers")),
    ("repro.core.session", "AnalysisSession.try_parse", "verify", None),
    ("repro.core.validate", "validate_pair", "validate", None),
    ("repro.core.validate", "IncrementalValidator.validate", "validate",
     None),
    ("repro.vm.interp", "Interpreter.run", "vm", _vm),
    ("repro.core.store", "ArtifactStore.load", "store.load", _load),
    ("repro.core.store", "ArtifactStore.store", "store.save", _save),
    ("repro.core.runlog", "RunJournal.record_dispatched", "runlog", None),
    ("repro.core.runlog", "RunJournal.record_result", "runlog", None),
    ("repro.core.runlog", "RunJournal.write_audit", "runlog", None),
    ("repro.core.incremental", "IncrementalEngine.update", "incremental",
     _update),
    ("repro.core.batch", "transform_file", "batch.transform", None),
]


class Tracer:
    """Collects spans while a root span is open."""

    def __init__(self):
        self.names: list[str] = [ROOT, GC]
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.counters: dict[str, int] = {}
        self._stack = array("l")
        self._item = -1

    # ---------------------------------------------------------- spans

    def _open(self, code: int) -> int:
        index = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def root(self, item: int, fn, *args):
        """Call ``fn(*args)`` as the root span of ``item``."""
        self._item = item
        self._stack.append(-1)
        index = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._stack.pop()

    def _gc_callback(self, phase: str, info: dict) -> None:
        if len(self._stack) < 2:
            return
        if phase == "start":
            self._open(1)
            if info.get("generation") == 2:
                _add(self.counters, "gc.gen2_collections", 1)
        elif self.code[self._stack[-1]] == 1:
            self._close(self._stack[-1])

    # ------------------------------------------------------- patching

    def _wrap(self, fn, layer: str, extract):
        if layer not in self.names:
            self.names.append(layer)
        code = self.names.index(layer)
        tracer = self

        def traced(*args, **kwargs):
            if len(tracer._stack) < 2:
                return fn(*args, **kwargs)
            index = tracer._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if extract is not None:
                extract(tracer.counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        return traced

    def install(self) -> None:
        """Patch every entry point and register the GC callback."""
        for module_name, path, layer, extract in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = inspect.getattr_static(cls, attr)
                if isinstance(original, property):
                    setattr(cls, attr, property(
                        self._wrap(original.fget, layer, extract)))
                else:
                    setattr(cls, attr,
                            self._wrap(getattr(cls, attr), layer, extract))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(original, layer, extract)
            for name, loaded in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapped)
        gc.callbacks.append(self._gc_callback)

    def columns(self) -> dict:
        """The spans as plain lists (for the end-of-run dump)."""
        return {"names": self.names, "code": self.code.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "item": self.item.tolist(),
                "counters": dict(self.counters)}


def self_times(spans: dict) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so children never overlap each other and
    their summed durations are exactly the covered part of the parent.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    own = [e - s for s, e in zip(start, end)]
    for index, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[index] - start[index]
    return own
