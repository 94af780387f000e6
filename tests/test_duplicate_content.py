"""Byte-identical files keep their own identity end to end.

Two files with the same bytes may share cached parse and transform
work, but every report — and every diagnostic on it — must name its own
file, exactly as a run over each file alone would.  Covered here for
the collected batch at jobs 1 and 4 and for a journaled ``repro batch``
that is then resumed from its journal.
"""

import json

import pytest

from repro.core.batch import SourceProgram, apply_batch
from repro.core.report import diagnostics_payload, render_diagnostics

from .test_runlog import run_cli

#: Preprocesses fine, fails to parse at line 2, column 11.
TWIN = "int main(void) {\n  int x = ;\n  return 0;\n}\n"
NAMES = ("a.c", "b.c")


def expected(name):
    return (name, f"{name}:2:11",
            f"{name}:2:11: unexpected token ';' in expression")


def diagnostics_rows(text):
    """``(file, location, message)`` per row of the diagnostics table
    (file, stage, kind, location, retries, message) inside ``text``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.split()[:2] == ["file", "stage"])
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        cells = line.split()
        rows.append((cells[0], cells[3], " ".join(cells[5:])))
    return rows


def assert_each_names_itself(payload, text):
    """Every JSON diagnostic and every table row belongs to its file."""
    want = [expected(name) for name in NAMES]
    assert sorted((d["filename"], d["location"], d["message"])
                  for d in payload["diagnostics"]) == want
    assert payload["statuses"] == {name: "failed" for name in NAMES}
    assert sorted(diagnostics_rows(text)) == want


@pytest.mark.parametrize("jobs", [1, 4])
def test_apply_batch_diagnostics_name_their_file(fresh_store, jobs):
    program = SourceProgram("twins", {name: TWIN for name in NAMES})
    result = apply_batch(program, jobs=jobs, validate=False)
    assert [r.filename for r in result.reports] == list(NAMES)
    for report in result.reports:
        assert {d.filename for d in report.diagnostics} \
            == {report.filename}
    assert_each_names_itself(diagnostics_payload(result),
                             render_diagnostics(result))


@pytest.mark.parametrize("jobs", [1, 4])
def test_journaled_batch_and_resume_name_their_file(fresh_store, tmp_path,
                                                    monkeypatch, jobs):
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
    target = tmp_path / "twins"
    target.mkdir()
    for name in NAMES:
        (target / name).write_text(TWIN, encoding="utf-8")

    first_json = tmp_path / "first.json"
    code, out, _ = run_cli(["batch", target, "--jobs", jobs,
                            "--run-id", "twins",
                            "--diagnostics-json", first_json])
    assert code == 0
    assert_each_names_itself(json.loads(first_json.read_text()), out)

    resumed_json = tmp_path / "resumed.json"
    code, out, err = run_cli(["batch", target, "--jobs", jobs,
                              "--resume", "twins",
                              "--diagnostics-json", resumed_json])
    assert code == 0
    assert "(2 replayed, 0 quarantined)" in err
    assert_each_names_itself(json.loads(resumed_json.read_text()), out)
