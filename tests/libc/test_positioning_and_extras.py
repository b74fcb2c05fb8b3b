"""The extended libc surface: stream positioning, remove(), and the
string/ctype additions — identical on both engines."""

import pytest

from repro.native import compile_native, run_native


def both(engine, source, stdin=b"", vfs=None):
    managed = engine.run_source(source, stdin=stdin, vfs=vfs)
    native = run_native(compile_native(source), stdin=stdin, vfs=vfs)
    assert not managed.detected_bug, managed.bugs
    assert not managed.crashed, managed.crash_message
    assert managed.stdout == native.stdout, (managed.stdout,
                                             native.stdout)
    assert managed.stderr == native.stderr, (managed.stderr,
                                             native.stderr)
    assert managed.status == native.status
    return managed


class TestProcess:
    """What the process gives a program, the same under both memory
    models: stdin, the environment, and the exit status."""

    def test_stdin_reads(self, engine):
        result = both(engine, r"""
            #include <stdio.h>
            int main(void) {
                char line[16];
                int n = 0, c;
                fgets(line, sizeof line, stdin);
                scanf("%d", &n);
                fprintf(stderr, "n=%d\n", n);
                while ((c = getchar()) != EOF)
                    putchar(c == '\n' ? '|' : c);
                printf(" %s", line);
                return 0;
            }
        """, stdin=b"first\n42\nrest\n")
        assert result.stdout == b"|rest| first\n"
        assert result.stderr == b"n=42\n"

    def test_envp(self, engine):
        result = both(engine, r"""
            #include <stdio.h>
            int main(int argc, char **argv, char **envp) {
                int i = 0;
                while (envp[i]) puts(envp[i++]);
                fprintf(stderr, "%d\n", i);
                return argc;
            }
        """)
        assert result.stdout.startswith(b"SULONG_SECRET=")
        assert result.stderr == b"3\n"

    @pytest.mark.parametrize("exit_with", ["return -3;", "exit(-3);"])
    def test_negative_exit_status(self, engine, exit_with):
        result = both(engine, r"""
            #include <stdio.h>
            #include <stdlib.h>
            int main(void) {
                fputs("bye\n", stderr);
                %s
            }
        """ % exit_with)
        assert result.status == -3
        assert result.stderr == b"bye\n"


class TestSeekTell:
    def test_fseek_set_and_ftell(self, engine):
        result = both(engine, r"""
            #include <stdio.h>
            int main(void) {
                FILE *f = fopen("data.txt", "w");
                fputs("abcdefgh", f);
                fclose(f);
                f = fopen("data.txt", "r");
                fseek(f, 3, SEEK_SET);
                printf("%c %ld ", fgetc(f), ftell(f));
                fseek(f, -2, SEEK_END);
                printf("%c ", fgetc(f));
                fseek(f, -2, SEEK_CUR);
                printf("%c\n", fgetc(f));
                fclose(f);
                return 0;
            }
        """)
        assert result.stdout == b"d 4 g f\n"

    def test_rewind(self, engine):
        result = both(engine, r"""
            #include <stdio.h>
            int main(void) {
                FILE *f = fopen("r.txt", "w");
                fputs("xy", f);
                fclose(f);
                f = fopen("r.txt", "r");
                fgetc(f);
                fgetc(f);
                rewind(f);
                printf("%c %d\n", fgetc(f), feof(f));
                fclose(f);
                return 0;
            }
        """)
        assert result.stdout == b"x 0\n"

    def test_ftell_accounts_for_ungetc(self, engine):
        result = both(engine, r"""
            #include <stdio.h>
            int main(void) {
                FILE *f = fopen("u.txt", "w");
                fputs("pq", f);
                fclose(f);
                f = fopen("u.txt", "r");
                int c = fgetc(f);
                ungetc(c, f);
                printf("%ld\n", ftell(f));
                fclose(f);
                return 0;
            }
        """)
        assert result.stdout == b"0\n"

    def test_remove(self, engine):
        result = both(engine, r"""
            #include <stdio.h>
            int main(void) {
                FILE *f = fopen("gone.txt", "w");
                fputs("data", f);
                fclose(f);
                int first = remove("gone.txt");
                int second = remove("gone.txt");
                printf("%d %d %d\n", first, second,
                       fopen("gone.txt", "r") == NULL);
                return 0;
            }
        """)
        assert result.stdout == b"0 -1 1\n"


class TestStringExtras:
    def test_strnlen(self, engine):
        result = both(engine, r"""
            #include <stdio.h>
            #include <string.h>
            int main(void) {
                char raw[4] = {'a', 'b', 'c', 'd'};  /* no NUL */
                printf("%d %d\n", (int)strnlen("ab", 8),
                       (int)strnlen(raw, 4));
                return 0;
            }
        """)
        assert result.stdout == b"2 4\n"

    def test_strncasecmp(self, engine):
        result = both(engine, r"""
            #include <stdio.h>
            #include <string.h>
            int main(void) {
                printf("%d %d %d\n",
                       strncasecmp("HELLO", "hellx", 4) == 0,
                       strncasecmp("HELLO", "hellx", 5) != 0,
                       strncasecmp("ab", "AB", 9) == 0);
                return 0;
            }
        """)
        assert result.stdout == b"1 1 1\n"

    def test_llabs_isblank(self, engine):
        result = both(engine, r"""
            #include <ctype.h>
            #include <stdio.h>
            #include <stdlib.h>
            int main(void) {
                long long big = -5000000000LL;
                printf("%ld %d %d %d\n", (long)llabs(big),
                       isblank(' ') != 0, isblank('\t') != 0,
                       isblank('x'));
                return 0;
            }
        """)
        assert result.stdout == b"5000000000 1 1 0\n"


def test_libc_surface_reaches_paper_scale(libc):
    """§3.1: 'Currently, we support 126 common libc functions.'"""
    from repro.core.intrinsics import INTRINSICS
    module = libc

    c_functions = {name for name, fn in module.functions.items()
                   if fn.is_definition and not name.startswith("__")
                   and ".static" not in name}
    intrinsics = {name for name in INTRINSICS
                  if not name.startswith("__")}
    surface = c_functions | intrinsics
    assert len(surface) >= 126, sorted(surface)
