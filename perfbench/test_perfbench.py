"""Checks of the benchmark's own machinery (probe, statistics, inputs,
span arithmetic).  The workloads themselves run via ``run.py``."""

import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import probe  # noqa: E402
from run import p90  # noqa: E402
from tracer import self_times  # noqa: E402


def test_normalizer_returns_ref_for_the_probe_itself():
    # A call that takes exactly one probe reading normalises to REF,
    # alone and inside a smoothed series.
    reading = probe.read_probe()
    assert probe.normalize(reading, reading) == pytest.approx(probe.REF_S)
    series = probe.normalize_series([reading] * 5, [reading] * 5)
    assert series == pytest.approx([probe.REF_S] * 5)


def test_probe_allocates_no_gc_tracked_objects():
    probe.read_probe()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()
        probe.read_probe()
        assert gc.get_count() == before
    finally:
        if was_enabled:
            gc.enable()


def test_smoothing_ignores_one_outlier_reading():
    assert probe.smoothed([1.0, 1.0, 9.0, 1.0, 1.0]) == [1.0] * 5
    assert probe.smoothed([2.0]) == [2.0]


def test_p90_keeps_ten_samples_beyond_at_100():
    value, beyond = p90([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)


def test_stratum_counts_are_proportional_and_exact():
    counts = inputs._stratum_counts({"a": 300, "b": 100, "c": 1}, 40)
    assert sum(counts.values()) == 40
    assert counts["a"] == 30 and counts["b"] == 10


def test_samate_draw_is_seeded_with_fixed_composition():
    program, labels = inputs.samate_draw(7, 42)
    again, _ = inputs.samate_draw(7, 42)
    other, other_labels = inputs.samate_draw(8, 42)
    assert program.files == again.files
    assert program.files != other.files

    def mix(draw):
        return sorted((p.cwe, p.variant) for p in draw.values())

    assert mix(labels) == mix(other_labels)


def test_edit_script_edits_every_file_once_per_round():
    files = {"a.c": "int f(void) {\n    return 1;\n}\n"
                    "int main(void) {\n    return f();\n}\n",
             "b.c": "void g(void) {\n}\n"}
    script = inputs.edit_script(files, 3, rounds=4)
    assert script == inputs.edit_script(files, 3, rounds=4)
    for start in range(0, len(script), 2):
        assert sorted(name for name, _t, _k in
                      script[start:start + 2]) == ["a.c", "b.c"]
    for name, text, kind in script:
        assert "bench_" in text or kind.startswith("remove")


def test_self_time_subtracts_child_coverage():
    spans = {"start": [0.0, 1.0, 2.0, 5.0], "end": [10.0, 4.0, 3.0, 6.0],
             "parent": [-1, 0, 1, 0]}
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
