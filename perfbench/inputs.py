"""Seeded inputs for the three workloads.

The seed decides *which* programs, files and functions are used; the
*composition* of every draw is fixed, so two seeds measure the same mix
of work:

* SAMATE draws are stratified by (CWE, functional variant) — the
  property per-file cost depends on most — with each stratum's share of
  the 4,505-program Table III population, and spread evenly over buffer
  sizes within a stratum.
* Edit scripts run in rounds that touch each of the 18 corpus files
  once; every file follows the same cycle of edit kinds, and the seed
  picks the file order and the order in which each file's functions
  are edited.

Sizes come from ``--seconds`` at nominal rates (never from elapsed
time), so the same seed and seconds always give the same inputs.
"""

from __future__ import annotations

import math
import random

#: Nominal cold-oracle rate: a run of S seconds draws 12*S programs.
COLD_FILES_PER_SECOND = 12
#: Warm-rerun: one fresh measuring process per 4 s of run time.
WARM_SECONDS_PER_PASS = 4
#: Edit-loop: three rounds (every corpus file edited once) per 4 s.
EDIT_ROUNDS_PER_SECOND = 0.75

SETTINGS = {"run_slr": True, "run_str": True, "profile": "glib",
            "validate": True, "backends": None, "arbitration": "file"}


def draw_size(seconds: int) -> int:
    return COLD_FILES_PER_SECOND * seconds


def warm_passes(seconds: int) -> int:
    return max(1, math.ceil(seconds / WARM_SECONDS_PER_PASS))


def edit_rounds(seconds: int) -> int:
    return max(1, math.ceil(seconds * EDIT_ROUNDS_PER_SECOND))


def _stratum_counts(sizes: dict, total: int) -> dict:
    """Largest-remainder apportionment of ``total`` over strata."""
    population = sum(sizes.values())
    exact = {key: total * size / population for key, size in sizes.items()}
    counts = {key: int(share) for key, share in exact.items()}
    short = total - sum(counts.values())
    for key in sorted(exact, key=lambda k: (counts[k] - exact[k], k))[:short]:
        counts[key] += 1
    return counts


def samate_draw(seed: int, count: int):
    """``(SourceProgram, {filename: TestProgram})`` for one seeded draw.

    Within a stratum, programs are generated size by size (flows vary
    fastest), so a systematic sample from a seeded offset spreads the
    draw evenly over buffer sizes — which set how long the oracle's VM
    runs — while the seed still moves every pick.
    """
    from repro.core.batch import SourceProgram
    from repro.samate import generate_suite

    strata: dict = {}
    for programs in generate_suite(1.0).values():
        for program in programs:
            strata.setdefault((program.cwe, program.variant),
                              []).append(program)
    rng = random.Random(seed)
    counts = _stratum_counts({k: len(v) for k, v in strata.items()}, count)
    picked = []
    for key in sorted(strata):
        members, quota = strata[key], counts[key]
        if not quota:
            continue
        step = len(members) / quota
        offset = rng.random() * step
        picked.extend(members[int(offset + j * step)] for j in range(quota))
    rng.shuffle(picked)
    labels = {f"{i:04d}_{p.name}.c": p for i, p in enumerate(picked)}
    files = {name: p.source for name, p in labels.items()}
    return SourceProgram(f"samate-draw-{seed}", files), labels


def corpus_files() -> dict[str, str]:
    """The 18 preprocessed .c files of the four Table IV programs."""
    from repro.corpus import build_all

    files: dict[str, str] = {}
    for program in build_all().values():
        files.update(program.preprocess().files)
    return files


_INERT = "    {{ int bench_{k} = {k}; (void)bench_{k}; }}\n"
_UNSAFE = "    {{ char bench_{k}[16]; strcpy(bench_{k}, \"edit\"); }}\n"


def _body_end(text: str, filename: str, function: str) -> int:
    """Offset of the closing brace of ``function``'s body."""
    from repro.cfront.funcdiff import segment_file

    offset = 0
    for seg in segment_file(text, filename).segments:
        if seg.is_function and seg.name == function:
            return offset + seg.text.rstrip().rfind("}")
        offset += len(seg.text)
    raise KeyError(function)


#: Per-file edit cycle; every file follows it, so any run of whole
#: cycles has the same mix of edit kinds whatever the seed.
EDIT_CYCLE = ("add-inert", "add-unsafe", "remove", "add-unsafe",
              "add-inert", "remove")


def edit_script(files: dict[str, str], seed: int, rounds: int):
    """List of ``(filename, new_text, kind)``: function-body edits only.

    Each round edits every file once, in a seeded order.  An edit either
    inserts a block before a function's closing brace — inert (an unused
    local) or unsafe (a ``strcpy`` SLR rewrites) — or removes a block an
    earlier edit inserted in that file, oldest first (kinds follow
    :data:`EDIT_CYCLE`).
    Functions are visited in a seeded permutation per file, so every
    function of a small file is edited about equally often.
    """
    from repro.cfront.funcdiff import segment_file

    rng = random.Random(seed)
    texts = dict(files)
    inserted: dict[str, list[str]] = {name: [] for name in files}
    visits = {}
    for name in sorted(files):
        functions = segment_file(files[name], name).function_order()
        rng.shuffle(functions)
        visits[name] = functions
    script = []
    k = 0
    for round_no in range(rounds):
        order = sorted(files)
        rng.shuffle(order)
        step = EDIT_CYCLE[round_no % len(EDIT_CYCLE)]
        for filename in order:
            text = texts[filename]
            if step == "remove" and inserted[filename]:
                block = inserted[filename].pop(0)
                text = text.replace(block, "", 1)
                kind = "remove-unsafe" if "strcpy" in block \
                    else "remove-inert"
            else:
                functions = visits[filename]
                function = functions[round_no % len(functions)]
                unsafe = step == "add-unsafe"
                block = (_UNSAFE if unsafe else _INERT).format(k=k)
                k += 1
                end = _body_end(text, filename, function)
                text = text[:end] + block + text[end:]
                inserted[filename].append(block)
                kind = "add-unsafe" if unsafe else "add-inert"
            texts[filename] = text
            script.append((filename, text, kind))
    return script
