"""Preprocessor: macros, conditionals, includes, stringizing."""

import pytest

from repro.cfront.errors import PreprocessorError
from repro.cfront.preprocessor import Preprocessor


def expand(text: str, defines=None) -> str:
    pp = Preprocessor(include_dirs=[], defines=defines)
    tokens = pp.process_text(text, "t.c")
    return " ".join(t.text for t in tokens)


class TestObjectMacros:
    def test_simple_replacement(self):
        assert expand("#define N 10\nint a[N];") == "int a [ 10 ] ;"

    def test_nested_expansion(self):
        text = "#define A B\n#define B 42\nA"
        assert expand(text) == "42"

    def test_self_reference_does_not_loop(self):
        assert expand("#define X X\nX") == "X"

    def test_undef(self):
        assert expand("#define N 1\n#undef N\nN") == "N"

    def test_redefinition_takes_effect(self):
        assert expand("#define N 1\n#define N 2\nN") == "2"


class TestFunctionMacros:
    def test_parameter_substitution(self):
        text = "#define SQ(x) ((x) * (x))\nSQ(3)"
        assert expand(text) == "( ( 3 ) * ( 3 ) )"

    def test_multiple_parameters(self):
        text = "#define MAX(a, b) ((a) > (b) ? (a) : (b))\nMAX(1, 2)"
        assert "( 1 ) > ( 2 )" in expand(text)

    def test_not_invoked_without_parens(self):
        text = "#define F(x) x\nF"
        assert expand(text) == "F"

    def test_argument_containing_commas_in_parens(self):
        text = "#define FIRST(p) p\nFIRST((a, b))"
        assert expand(text) == "( a , b )"

    def test_invocation_spanning_lines(self):
        text = "#define ADD(a, b) a + b\nADD(1,\n    2)"
        assert expand(text) == "1 + 2"

    def test_stringize(self):
        text = '#define STR(x) #x\nSTR(hello world)'
        tokens = Preprocessor(include_dirs=[]).process_text(text, "t.c")
        assert tokens[0].value == b"hello world"

    def test_arity_mismatch(self):
        with pytest.raises(PreprocessorError):
            expand("#define F(a, b) a b\nF(1)")

    def test_empty_argument_list(self):
        assert expand("#define NIL() 0\nNIL()") == "0"


class TestConditionals:
    def test_ifdef_taken(self):
        assert expand("#define A 1\n#ifdef A\nyes\n#endif") == "yes"

    def test_ifndef(self):
        assert expand("#ifndef MISSING\nyes\n#endif") == "yes"

    def test_else_branch(self):
        assert expand("#ifdef MISSING\nno\n#else\nyes\n#endif") == "yes"

    def test_elif_chain(self):
        text = ("#define V 2\n"
                "#if V == 1\none\n#elif V == 2\ntwo\n#else\nother\n"
                "#endif")
        assert expand(text) == "two"

    def test_nested_conditionals(self):
        text = ("#define A 1\n"
                "#ifdef A\n#ifdef B\nab\n#else\na\n#endif\n#endif")
        assert expand(text) == "a"

    def test_defined_operator(self):
        text = "#if defined(A) || defined(B)\nyes\n#else\nno\n#endif"
        assert expand(text, defines={"B": "1"}) == "yes"

    def test_unknown_identifier_is_zero(self):
        assert expand("#if UNKNOWN\nno\n#else\nyes\n#endif") == "yes"

    def test_arithmetic_in_condition(self):
        assert expand("#if 3 * 4 == 12\nyes\n#endif") == "yes"

    def test_unterminated_if_rejected(self):
        with pytest.raises(PreprocessorError):
            expand("#if 1\nabc")

    def test_error_directive(self):
        with pytest.raises(PreprocessorError, match="nope"):
            expand("#error nope")

    def test_inactive_error_skipped(self):
        assert expand("#if 0\n#error nope\n#endif\nok") == "ok"


class TestBuiltinsAndIncludes:
    def test_line_macro(self):
        pp = Preprocessor(include_dirs=[])
        tokens = pp.process_text("a\nb __LINE__", "t.c")
        line_tok = tokens[-1]
        assert line_tok.value[0] == 2

    def test_include_libc_header(self):
        from repro.libc import include_dir
        pp = Preprocessor(include_dirs=[include_dir()])
        tokens = pp.process_text('#include <stddef.h>\nsize_t n;', "t.c")
        text = " ".join(t.text for t in tokens)
        assert "size_t" in text

    def test_missing_include_rejected(self):
        pp = Preprocessor(include_dirs=[])
        with pytest.raises(PreprocessorError, match="not found"):
            pp.process_text('#include <nothing.h>', "t.c")

    def test_include_guard_idempotent(self):
        from repro.libc import include_dir
        pp = Preprocessor(include_dirs=[include_dir()])
        tokens = pp.process_text(
            '#include <stddef.h>\n#include <stddef.h>\nint x;', "t.c")
        text = " ".join(t.text for t in tokens)
        assert text.count("typedef unsigned long size_t") == 1


class TestHeaderMemo:
    """Each included file is lexed once per process for a given text;
    what the preprocessor does with the shared tokens is unchanged."""

    @staticmethod
    def include(directory, name, defines=None):
        pp = Preprocessor(include_dirs=[str(directory)], defines=defines)
        tokens = pp.process_text(f"#include <{name}>\n", "t.c")
        return " ".join(t.text for t in tokens), pp.included_files

    def test_header_rewritten_in_place_is_lexed_again(self, tmp_path):
        header = tmp_path / "rewritten.h"
        header.write_text("int first;\n")
        before, before_files = self.include(tmp_path, "rewritten.h")
        header.write_text("int second;\n")
        after, after_files = self.include(tmp_path, "rewritten.h")
        assert (before, after) == ("int first ;", "int second ;")
        assert before_files[0][0] == after_files[0][0]
        assert before_files[0][1] != after_files[0][1]

    def test_one_header_expands_per_defines(self, tmp_path, monkeypatch):
        from repro.cfront import lexer
        (tmp_path / "sized.h").write_text(
            "#ifdef WIDE\nlong x;\n#else\nshort x;\n#endif\nT y;\n")
        lexed = []
        tokenize = lexer.tokenize
        monkeypatch.setattr(
            lexer, "tokenize",
            lambda text, filename: lexed.append(filename)
            or tokenize(text, filename))
        wide = {"WIDE": "1", "T": "int"}
        assert self.include(tmp_path, "sized.h", wide)[0] == \
            "long x ; int y ;"
        assert self.include(tmp_path, "sized.h", {"T": "char"})[0] == \
            "short x ; char y ;"
        assert self.include(tmp_path, "sized.h", wide)[0] == \
            "long x ; int y ;"
        assert lexed.count(str(tmp_path / "sized.h")) == 1

    def test_error_in_header_has_one_location_on_hit_and_miss(
            self, tmp_path):
        (tmp_path / "stop.h").write_text("int a;\n#error stop here\n")
        reports = []
        for _attempt in range(2):
            with pytest.raises(PreprocessorError) as info:
                self.include(tmp_path, "stop.h")
            reports.append((str(info.value), info.value.loc))
        assert reports[0] == reports[1]
        assert reports[0][0].startswith(str(tmp_path / "stop.h") + ":2:")
