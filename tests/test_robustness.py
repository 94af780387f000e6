"""Robustness and failure-injection tests.

The toolchain must fail *cleanly* — typed exceptions or recorded
precondition failures, never corrupted output — on pathological input at
every stage.
"""

import pytest

from repro.cfront.parser import parse_translation_unit
from repro.cfront.preprocessor import Preprocessor
from repro.cfront.source import LexError, ParseError, PreprocessorError
from repro.core.slr import SafeLibraryReplacement
from repro.core.strtransform import SafeTypeReplacement
from repro.vm import run_source

from .helpers import pp, run


class TestParserResilience:
    GARBAGE = [
        "int int int;",
        "}{",
        "int f( { }",
        "return 0;",
        "int x = = 3;",
        "struct { int",
        "void f(void) { if }",
        "int a[];",        # incomplete array at file scope: we accept or reject cleanly
        "((((",
        "int 9x;",
    ]

    @pytest.mark.parametrize("source", GARBAGE)
    def test_garbage_raises_typed_error(self, source):
        try:
            parse_translation_unit(source)
        except (ParseError, LexError):
            pass        # clean, typed rejection

    def test_empty_file(self):
        unit = parse_translation_unit("")
        assert unit.items == []

    def test_only_comments(self):
        text = Preprocessor().preprocess("/* nothing */\n// here\n",
                                         "t.c").text
        unit = parse_translation_unit(text)
        assert unit.items == []

    def test_deeply_nested_expressions(self):
        depth = 200
        expr = "(" * depth + "1" + ")" * depth
        unit = parse_translation_unit(
            f"int main(void) {{ return {expr}; }}")
        assert unit.function("main") is not None

    def test_very_long_identifier(self):
        name = "x" * 5000
        unit = parse_translation_unit(f"int {name};")
        assert unit.items[0].declarators[0].name == name


class TestPreprocessorResilience:
    def test_macro_expansion_depth_guard(self):
        # Mutually recursive function-like macros terminate via hide sets.
        src = "#define A(x) B(x)\n#define B(x) A(x)\nint v = A(1);\n"
        out = Preprocessor().preprocess(src, "t.c").text
        assert "int v" in out

    def test_unterminated_macro_args(self):
        with pytest.raises(PreprocessorError):
            Preprocessor().preprocess("#define F(a) a\nint x = F(1;\n",
                                      "t.c")

    def test_hash_alone(self):
        out = Preprocessor().preprocess("#\nint x;\n", "t.c").text
        assert "int x;" in out

    def test_include_depth_is_bounded_by_cycle_guard(self):
        headers = {f"h{i}.h": f'#include "h{i + 1}.h"\nint v{i};\n'
                   for i in range(50)}
        headers["h50.h"] = "int v50;\n"
        out = Preprocessor(headers).preprocess('#include "h0.h"\n',
                                               "t.c").text
        assert "int v0;" in out and "int v50;" in out


class TestTransformationsOnOddInput:
    def test_slr_on_empty_unit(self):
        result = SafeLibraryReplacement("", "empty.c").run()
        assert result.candidates == 0
        assert not result.changed

    def test_str_on_empty_unit(self):
        result = SafeTypeReplacement("", "empty.c").run()
        assert result.candidates == 0

    def test_slr_unsafe_name_as_variable(self):
        # A local variable named strcpy must not confuse SLR.
        text = pp("""
        int main(void) {
            int strcpy = 3;
            return strcpy;
        }""")
        result = SafeLibraryReplacement(text, "t.c").run()
        assert result.candidates == 0

    def test_slr_wrong_arity_call(self):
        text = pp("""
        #include <string.h>
        char *strcpy(char *, const char *);
        int main(void) { char b[4]; strcpy(b, "x", 1, 2); return 0; }
        """)
        result = SafeLibraryReplacement(text, "t.c").run()
        assert result.outcomes[0].reason == "bad-arity"

    def test_str_buffer_never_used(self):
        text = pp("int main(void) { char idle[16]; return 0; }")
        result = SafeTypeReplacement(text, "t.c").run()
        outcome = result.outcomes[0]
        assert outcome.transformed        # declaration-only is fine
        from repro.cfront.parser import parse_translation_unit as p2
        p2(result.new_text)

    def test_transformations_never_raise_on_corpus_shuffle(self):
        # Applying STR to already-STR'd text: stralloc uses are left
        # alone (stralloc* is not char*), nothing breaks.
        text = pp("""
        #include <string.h>
        int main(void) { char b[8]; strcpy(b, "x"); return 0; }""")
        once = SafeTypeReplacement(text, "t.c").run()
        twice = SafeTypeReplacement(once.new_text, "t.c").run()
        assert twice.candidates == 0
        assert twice.new_text == once.new_text


class TestVMResilience:
    def test_missing_main(self):
        result = run_source("int helper(void) { return 1; }")
        assert result.fault == "vm-error"
        assert "main" in result.fault_detail

    def test_wild_jump_goto_unknown_label_is_clean_error(self):
        result = run("int main(void) { goto nowhere; return 0; }")
        assert result.fault == "vm-error"
        assert "nowhere" in result.fault_detail

    def test_huge_allocation_request(self):
        result = run("#include <stdlib.h>\n"
                     "int main(void){ char *p = malloc(1 << 20); "
                     "p[1048575] = 'x'; return 0; }")
        assert result.ok

    def test_step_budget_enforced_in_nested_loops(self):
        result = run("""
        int main(void) {
            int i, j, k, total = 0;
            for (i = 0; i < 1000; i++)
                for (j = 0; j < 1000; j++)
                    for (k = 0; k < 1000; k++)
                        total++;
            return total;
        }""", step_limit=50_000)
        assert result.fault == "step-limit"

    def test_stack_overflow_fault(self):
        result = run("""
        int spin(int n) { return spin(n + 1); }
        int main(void) { return spin(0); }
        """, step_limit=5_000_000)
        assert result.fault in ("stack-overflow", "step-limit")

    def test_uninitialized_pointer_is_null(self):
        result = run("int main(void){ char *p; *p = 'x'; return 0; }")
        assert result.fault == "null-dereference"

    def test_scribbling_over_freed_memory(self):
        result = run("""
        #include <stdlib.h>
        int main(void) {
            char *p = malloc(8);
            free(p);
            p[0] = 'x';
            return 0;
        }""")
        assert result.fault == "use-after-free"

    def test_program_with_zero_statements(self):
        result = run("int main(void) { }")
        assert result.ok
        assert result.exit_code == 0


class TestRewriterCheckpoint:
    def test_rollback_drops_later_edits(self):
        from repro.cfront.rewriter import Rewriter
        rw = Rewriter("abcdef")
        rw.replace_range(0, 1, "X")
        mark = rw.checkpoint()
        rw.replace_range(2, 3, "Y")
        rw.replace_range(4, 5, "Z")
        rw.rollback(mark)
        assert rw.edit_count == 1
        assert rw.apply() == "Xbcdef"

    def test_rollback_to_zero(self):
        from repro.cfront.rewriter import Rewriter
        rw = Rewriter("abc")
        rw.replace_range(0, 1, "X")
        rw.rollback(0)
        assert not rw.has_edits
        assert rw.apply() == "abc"

    def test_bad_mark_raises(self):
        from repro.cfront.rewriter import Rewriter
        rw = Rewriter("abc")
        with pytest.raises(ValueError):
            rw.rollback(5)
        with pytest.raises(ValueError):
            rw.rollback(-1)


class TestPerSiteContainment:
    """A site handler that raises is contained as a ``site-error``
    outcome with its queued edits rolled back; sibling sites still
    transform."""

    SOURCE = (
        "#include <string.h>\n"
        "void f(void) {\n"
        "    char a[8];\n"
        "    char b[8];\n"
        "    strcpy(a, \"one\");\n"
        "    strcat(b, \"two\");\n"
        "}\n")

    def test_one_bad_site_does_not_kill_the_file(self, monkeypatch):
        from repro.core.transform import SITE_ERROR

        original_apply = SafeLibraryReplacement.apply_to

        def exploding_apply(self, target):
            if getattr(target, "callee_name", "") == "strcat":
                self.rewriter.insert_before(0, "/* half-applied */")
                raise RuntimeError("handler exploded mid-edit")
            return original_apply(self, target)

        monkeypatch.setattr(SafeLibraryReplacement, "apply_to",
                            exploding_apply)
        result = SafeLibraryReplacement(pp(self.SOURCE)).run()
        by_target = {o.target: o for o in result.outcomes}
        assert by_target["strcpy"].transformed
        bad = by_target["strcat"]
        assert bad.status == SITE_ERROR
        assert bad.reason == "internal-error"
        assert "handler exploded" in bad.detail
        # The rolled-back edit never reaches the output.
        assert "half-applied" not in result.new_text
        assert "g_strlcpy" in result.new_text


class TestVMMemoryBudget:
    def test_mem_limit_trips_runaway_allocation(self):
        source = pp(
            "#include <stdlib.h>\n"
            "int main(void) {\n"
            "    long i;\n"
            "    for (i = 0; i < 1000000; i++) { malloc(4096); }\n"
            "    return 0;\n"
            "}\n")
        result = run_source(source, mem_limit=1 << 20)
        assert result.fault == "mem-limit"
        # A resource fault, not a memory-safety trap.
        assert not result.memory_trapped

    def test_mem_limit_counts_cumulatively(self):
        # free() does not refund the budget: a free-as-you-go loop
        # still trips it (that is what bounds worker RSS).
        source = pp(
            "#include <stdlib.h>\n"
            "int main(void) {\n"
            "    long i;\n"
            "    for (i = 0; i < 1000000; i++) {\n"
            "        void *p = malloc(4096);\n"
            "        free(p);\n"
            "    }\n"
            "    return 0;\n"
            "}\n")
        result = run_source(source, mem_limit=1 << 20)
        assert result.fault == "mem-limit"

    def test_normal_program_unaffected(self):
        source = pp(
            "#include <stdlib.h>\n"
            "int main(void) {\n"
            "    char *p = malloc(64);\n"
            "    free(p);\n"
            "    return 5;\n"
            "}\n")
        result = run_source(source, mem_limit=1 << 20)
        assert result.ok and result.exit_code == 5

    def test_oracle_budget_knobs(self):
        """The oracle's step and allocation budgets are validate_pair
        parameters: the defaults let a small program finish, a tight
        budget traps it, and ``mem_limit=None`` lifts the allocation
        budget."""
        from repro.core.validate import DifferentialInput, validate_pair
        probe = [DifferentialInput("empty", b"", "benign")]

        def fault(src, **limits):
            text = pp(src, "budget.c")
            verdict = validate_pair(text, text + "\n",
                                    filename="budget.c", inputs=probe,
                                    **limits).verdicts[0]
            return verdict.fault_before, verdict.fault_after

        loop = ("int main(void) { int i; int s = 0;\n"
                "  for (i = 0; i < 100000; i++) s += i;\n"
                "  return s & 7; }\n")
        assert fault(loop) == ("", "")
        assert fault(loop, step_limit=1000) == ("step-limit",
                                                 "step-limit")
        alloc = ("#include <stdlib.h>\n"
                 "int main(void) { char *p = malloc(4096); free(p);\n"
                 "  return 3; }\n")
        assert fault(alloc, mem_limit=1024) == ("mem-limit", "mem-limit")
        assert fault(alloc, mem_limit=None) == ("", "")
