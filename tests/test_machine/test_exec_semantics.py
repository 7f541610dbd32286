"""Differential execution tests: every C snippet must compute the same
result under all four build configurations (optimizer on/off, annotation
on/off) — the strongest end-to-end correctness check for the compiler.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import CompileConfig, VM, compile_source

ALL_CONFIGS = ("O", "O_safe", "g", "g_checked")


def run_all(source, stdin="", configs=ALL_CONFIGS):
    results = {}
    for name in configs:
        config = CompileConfig.named(name)
        compiled = compile_source(source, config)
        vm = VM(compiled.asm, config.model)
        vm.stdin = stdin
        results[name] = vm.run()
    codes = {r.exit_code for r in results.values()}
    outputs = {r.output for r in results.values()}
    assert len(codes) == 1, f"exit codes disagree: { {k: v.exit_code for k, v in results.items()} }"
    assert len(outputs) == 1, "outputs disagree"
    return results["O"]


CASES = [
    # (source, expected exit code)
    ("int main(void) { return 7; }", 7),
    ("int main(void) { return 10 - 3 * 2; }", 4),
    ("int main(void) { return (20 / 3) % 4; }", 2),
    ("int main(void) { return -5 / 2 == -2; }", 1),  # C truncating division
    ("int main(void) { return -7 % 3 == -1; }", 1),
    ("int main(void) { return 1 << 4 | 3; }", 19),
    ("int main(void) { return (0xF0 >> 2) & 0x3C; }", 0x3C),
    ("int main(void) { return ~0 & 0xFF; }", 0xFF),
    ("int main(void) { return !0 + !5; }", 1),
    ("int main(void) { return 3 > 2 && 2 > 3 || 1; }", 1),
    ("int main(void) { int x = 0; return x++ + x++; }", 1),
    ("int main(void) { int x = 0; ++x; ++x; return x + x; }", 4),
    ("int main(void) { int x = 10; x += 5; x -= 3; x *= 2; return x; }", 24),
    ("int main(void) { int x = 1; return x ? 10 : 20; }", 10),
    ("int main(void) { int i, s = 0; for (i = 0; i < 10; i++) s += i; return s; }", 45),
    ("int main(void) { int i = 0, s = 0; while (i < 5) { s += i; i++; } return s; }", 10),
    ("int main(void) { int i = 0; do i++; while (i < 7); return i; }", 7),
    ("int main(void) { int i, s = 0; for (i = 0; i < 10; i++) { if (i == 3) continue; if (i == 7) break; s += i; } return s; }", 18),
    ("int main(void) { int s = 0, i; for (i = 0; i < 4; i++) switch (i) { case 0: s += 1; break; case 2: s += 10; break; default: s += 100; } return s; }", 211),
    ("int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }\nint main(void) { return f(11); }", 89),
    ("int main(void) { int a[5]; int i; for (i = 0; i < 5; i++) a[i] = i * i; return a[4] - a[2]; }", 12),
    ("int main(void) { int a[3] = {5, 6, 7}; return a[0] + a[2]; }", 12),
    ("int main(void) { char s[] = \"hello\"; return s[1]; }", ord('e')),
    ("int main(void) { int x = 5; int *p = &x; *p = 9; return x; }", 9),
    ("void set(int *p, int v) { *p = v; }\nint main(void) { int x; set(&x, 33); return x; }", 33),
    ("int main(void) { int a[4] = {1,2,3,4}; int *p = a; p++; p += 2; return *p; }", 4),
    ("int main(void) { int a[4] = {1,2,3,4}; return &a[3] - &a[0]; }", 3),
    ("struct pt { int x; int y; };\nint main(void) { struct pt p; p.x = 3; p.y = 4; return p.x * p.y; }", 12),
    ("struct pt { int x; int y; };\nint main(void) { struct pt p, q; p.x = 1; p.y = 2; q = p; return q.y; }", 2),
    ("struct pt { int x; int y; };\nint get(struct pt *p) { return p->x + p->y; }\nint main(void) { struct pt p; p.x = 30; p.y = 12; return get(&p); }", 42),
    ("int main(void) { return sizeof(int) + sizeof(char) + sizeof(char *); }", 9),
    ("struct s { char c; int i; };\nint main(void) { return sizeof(struct s); }", 8),
    ("int add(int a, int b) { return a + b; }\nint apply(int (*f)(int, int), int x, int y) { return f(x, y); }\nint main(void) { return apply(add, 20, 22); }", 42),
    ("int g = 100;\nint main(void) { g += 11; return g; }", 111),
    ("int tab[4] = {2, 4, 6, 8};\nint main(void) { return tab[1] + tab[3]; }", 12),
    ("int main(void) { char c = 200; return c < 0; }", 1),  # char is signed
    ("int main(void) { unsigned char c = 200; return c > 0; }", 1),
    ("int main(void) { short h = 70000; return h == 4464; }", 1),  # truncation
    ("int main(void) { int x = 5; { int x = 7; } return x; }", 5),
    ("int main(void) { goto end; return 1; end: return 2; }", 2),
    ("int main(void) { return (1, 2, 3); }", 3),
    ("char *id(char *p) { return p; }\nint main(void) { char *s = \"ab\"; return id(s)[1]; }", ord('b')),
    ("int main(void) { char *p = (char *)GC_malloc(10); p[3] = 42; return p[3] + p[4]; }", 42),
    ("int main(void) { unsigned int a = 0xFFFFFFFF; return a > 10; }", 1),
    ("int main(void) { return 2[\"abc\"]; }", ord('c')),
    # A u suffix, or a value too big for int, makes a literal unsigned.
    ("int main(void) { return 4294967295u >> 4; }", 0x0FFFFFFF),
    ("int main(void) { return 0x80000000 >> 4; }", 0x08000000),
    ("int main(void) { int m = -1; return m < 5u; }", 0),
    # unsigned char and short promote to int: these compares are signed.
    ("int main(void) { unsigned char c = 200; int x = -1; "
     "return (c < x) * 2 + (c > x); }", 1),
    ("int main(void) { unsigned short h = 60000; int x = -1; "
     "return (h <= x) * 2 + (h >= x); }", 1),
    # An enum, a global initializer and a function body compute one
    # value for an unsigned constant expression.
    ("enum { B = -1u / 2 };\nint g = -1u / 2;\nint main(void) { "
     "int l = -1u / 2; return (B == g) + (l == g) * 2 + (B > 0) * 4; }", 7),
    # sizeof a declared object is a constant expression.
    ("int x; int a[sizeof x]; int main() { return sizeof a; }", 16),
]


@pytest.mark.parametrize("source,expected", CASES,
                         ids=[f"case{i}" for i in range(len(CASES))])
def test_snippet_all_configs(source, expected):
    result = run_all(source)
    assert result.exit_code == expected


class TestStringsAndIO:
    def test_printf_formats(self):
        r = run_all('int main(void) { printf("%d %u %x %c %s%%\\n", -5, 7, 255, 65, "ok"); return 0; }')
        assert r.output == "-5 7 ff A ok%\n"

    def test_puts_and_putchar(self):
        r = run_all('int main(void) { puts("line"); putchar(33); return 0; }')
        assert r.output == "line\n!"

    def test_getchar_reads_stdin(self):
        r = run_all("int main(void) { int c, n = 0; while ((c = getchar()) >= 0) n++; return n; }",
                    stdin="abc\n")
        assert r.exit_code == 4

    def test_string_builtins(self):
        src = """
        int main(void) {
            char buf[32];
            strcpy(buf, "hello");
            strcat(buf, " world");
            if (strcmp(buf, "hello world") != 0) return 1;
            if (strlen(buf) != 11) return 2;
            if (strncmp(buf, "hello!", 5) != 0) return 3;
            return 0;
        }"""
        assert run_all(src).exit_code == 0

    def test_mem_builtins(self):
        src = """
        int main(void) {
            char a[8]; char b[8]; int i;
            memset(a, 7, 8);
            memcpy(b, a, 8);
            for (i = 0; i < 8; i++) if (b[i] != 7) return 1;
            return 0;
        }"""
        assert run_all(src).exit_code == 0

    def test_atoi(self):
        assert run_all('int main(void) { return atoi("  -42x") == -42; }').exit_code == 1


class TestDifferentialArithmetic:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000),
           st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    def test_binary_ops_match_python(self, a, b, op):
        source = f"int main(void) {{ return ({a} {op} {b}) == ({a} {op} {b}); }}"
        # compute in python
        expected = {"+" : a + b, "-": a - b, "*": a * b,
                    "&": a & b, "|": a | b, "^": a ^ b}[op]
        src2 = f"int main(void) {{ int r = {a} {op} ({b}); return r == ({expected}); }}"
        assert run_all(src2, configs=("O", "g")).exit_code == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-500, 500), st.integers(1, 40))
    def test_division_truncates_like_c(self, a, b):
        q, r = int(a / b), a - int(a / b) * b
        src = (f"int main(void) {{ return ({a} / {b} == {q}) "
               f"&& ({a} % {b} == {r}); }}")
        assert run_all(src, configs=("O", "g")).exit_code == 1

    def test_unsigned_division_and_remainder(self):
        # Operands that convert to unsigned int divide unsigned; an
        # unsigned char promotes to int and divides signed.
        src = """
        unsigned half = (unsigned) -2 / 2;
        int main(void) {
            unsigned u = 0xFFFFFFFE, v = 0xFFFFFFF0;
            unsigned char c = 200;
            v /= 16;
            printf("%x %x %x %x %d\\n", u / 2, u % 7, v, half, c / -3);
            return 0;
        }
        """
        result = run_all(src, configs=("O0",) + ALL_CONFIGS)
        assert result.output == "7fffffff 2 fffffff 7fffffff -66\n"

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=12))
    def test_array_sum_matches(self, values):
        n = len(values)
        init = ", ".join(map(str, values))
        total = sum(values) & 0xFF  # exit codes are bytes on real systems;
        src = (f"int main(void) {{ int a[{n}] = {{{init}}}; int i, s = 0; "
               f"for (i = 0; i < {n}; i++) s += a[i]; "
               f"return (s & 0xFF) == {total}; }}")
        assert run_all(src, configs=("O", "g")).exit_code == 1


CASES_2 = [
    # Nested structs and arrays of structs.
    ("struct in { int a; int b; };\nstruct out { struct in pair; int tag; };\n"
     "int main(void) { struct out o; o.pair.a = 3; o.pair.b = 4; o.tag = 5; "
     "return o.pair.a * o.pair.b + o.tag; }", 17),
    ("struct pt { int x; int y; };\n"
     "int main(void) { struct pt grid[3]; int i; "
     "for (i = 0; i < 3; i++) { grid[i].x = i; grid[i].y = i * 2; } "
     "return grid[2].x + grid[2].y; }", 6),
    ("struct pt { int x; };\n"
     "int main(void) { struct pt a; struct pt *p = &a; "
     "p->x = 9; return (*p).x; }", 9),
    # Pointer to pointer.
    ("int main(void) { int v = 5; int *p = &v; int **pp = &p; "
     "**pp = 8; return v; }", 8),
    ("void set(int **out, int *target) { *out = target; }\n"
     "int main(void) { int a = 3, b = 7; int *p = &a; "
     "set(&p, &b); return *p; }", 7),
    # Unsigned wraparound and shifts.
    ("int main(void) { unsigned int u = 0; u--; return u > 1000; }", 1),
    ("int main(void) { unsigned int u = 0x80000000; return (u >> 31) == 1; }", 1),
    ("int main(void) { int s = -8; return s >> 1 == -4; }", 1),
    # Comma in for, multiple declarators, shadowing.
    ("int main(void) { int i, j, s = 0; "
     "for (i = 0, j = 10; i < j; i++, j--) s++; return s; }", 5),
    ("int x = 1;\nint f(void) { int x = 2; { int x = 3; } return x; }\n"
     "int main(void) { return f() * 10 + x; }", 21),
    # Switch fallthrough.
    ("int main(void) { int s = 0, i; for (i = 0; i < 3; i++) "
     "switch (i) { case 0: s += 1; case 1: s += 10; break; case 2: s += 100; } "
     "return s; }", 121),
    # do-while with break and continue semantics.
    ("int main(void) { int i = 0, s = 0; "
     "do { i++; if (i == 3) continue; if (i == 6) break; s += i; } while (1); "
     "return s; }", 1 + 2 + 4 + 5),
    # String walking and pointer comparison.
    ("int main(void) { char *s = \"abcdef\"; char *e = s; "
     "while (*e) e++; return e - s; }", 6),
    ("int main(void) { char *a = \"xy\"; char *b = a; return a == b; }", 1),
    # sizeof expressions and arrays.
    ("int main(void) { int a[6]; return sizeof(a) / sizeof(a[0]); }", 6),
    ("struct s { char c[3]; short h; };\n"
     "int main(void) { return sizeof(struct s); }", 6),
    # Function pointer tables.
    ("int add1(int x) { return x + 1; }\nint dbl(int x) { return x * 2; }\n"
     "int main(void) { int (*ops[2])(int); int s = 0; int i; "
     "ops[0] = add1; ops[1] = dbl; "
     "for (i = 0; i < 2; i++) s += ops[i](10); return s; }", 31),
    # Recursion with arrays on the stack.
    ("int sum_to(int n) { int local[2]; local[0] = n; "
     "if (n == 0) return 0; return local[0] + sum_to(n - 1); }\n"
     "int main(void) { return sum_to(10); }", 55),
    # Ternary chains and assignment results.
    ("int main(void) { int a = 5, b; b = (a = a + 1); return a + b; }", 12),
    ("int main(void) { int x = 7; return x > 10 ? 1 : x > 5 ? 2 : 3; }", 2),
    # Global struct with pointers, modified through functions.
    ("struct box { int *slot; };\nstruct box g;\n"
     "void fill(int *p) { g.slot = p; }\n"
     "int main(void) { int v = 44; fill(&v); return *g.slot; }", 44),
    # Character arithmetic.
    ("int main(void) { char c = 'a'; c = c + 2; return c == 'c'; }", 1),
    # Negative modulo chain (C semantics).
    ("int main(void) { return (-13 % 5) + 10; }", 7),
    # Empty function body and void returns.
    ("void nothing(void) { }\nint main(void) { nothing(); return 6; }", 6),
]


@pytest.mark.parametrize("source,expected", CASES_2,
                         ids=[f"extra{i}" for i in range(len(CASES_2))])
def test_snippet_all_configs_extra(source, expected):
    result = run_all(source)
    assert result.exit_code == expected
