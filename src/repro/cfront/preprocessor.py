"""C preprocessor.

Token-based macro expansion with hide sets, conditionals, and includes.
Supports what the paper's code needs: object- and function-like macros
(``va_start``/``va_arg`` from Figure 9 are function-like macros in our safe
libc), ``#include``, ``#if``/``#ifdef`` conditionals with ``defined()``,
``#undef``, ``#error``, ``#pragma`` and stringizing ``#param``.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque

from ..source import SourceLocation
from . import lexer
from .errors import PreprocessorError
from .lexer import IDENT, INT_CONST, PUNCT, STRING, Token


class Macro:
    __slots__ = ("name", "params", "body", "is_function", "is_varargs")

    def __init__(self, name: str, body: list[Token],
                 params: list[str] | None = None, is_varargs: bool = False):
        self.name = name
        self.body = body
        self.params = params
        self.is_function = params is not None
        self.is_varargs = is_varargs


class Preprocessor:
    def __init__(self, include_dirs: list[str] | None = None,
                 defines: dict[str, str] | None = None):
        self.include_dirs = list(include_dirs or [])
        self.macros: dict[str, Macro] = {}
        self.include_depth = 0
        # (absolute path, sha256) for every file pulled in via #include
        # — the compilation cache's invalidation manifest.
        self.included_files: list[tuple[str, str]] = []
        # __STDC__ is always defined; the execution-model macro
        # (__SAFE_SULONG__ or __NATIVE__) is chosen by the driver.
        self.define_from_string("__STDC__", "1")
        for name, value in (defines or {}).items():
            self.define_from_string(name, value)

    # -- public entry points -------------------------------------------------

    def define_from_string(self, name: str, value: str = "1") -> None:
        body = lexer.tokenize(value, f"<define:{name}>")
        self.macros[name] = Macro(name, body)

    def process_file(self, path: str) -> list[Token]:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return self.process_text(text, path)

    def process_text(self, text: str, filename: str) -> list[Token]:
        tokens = lexer.tokenize(text, filename)
        lines = _split_lines(tokens)
        out: list[Token] = []
        self._process_lines(lines, os.path.dirname(filename), out)
        return out

    # -- driver ---------------------------------------------------------------

    def _process_lines(self, lines: list[list[Token]], cwd: str,
                       out: list[Token]) -> None:
        # Conditional stack entries: [currently_active, any_branch_taken,
        # seen_else].
        stack: list[list[bool]] = []
        pending: list[Token] = []

        def flush() -> None:
            if pending:
                out.extend(self._expand(deque(pending)))
                pending.clear()

        for line in lines:
            if line and line[0].is_punct("#"):
                flush()
                self._directive(line, cwd, out, stack)
            else:
                active = all(entry[0] for entry in stack)
                if active:
                    pending.extend(line)
        flush()
        if stack:
            raise PreprocessorError("unterminated #if", None)

    def _directive(self, line: list[Token], cwd: str, out: list[Token],
                   stack: list[list[bool]]) -> None:
        if len(line) == 1:
            return  # A lone '#' is a null directive.
        directive = line[1]
        name = directive.text
        rest = line[2:]
        active = all(entry[0] for entry in stack)
        parent_active = all(entry[0] for entry in stack[:-1]) if stack else True

        if name == "ifdef" or name == "ifndef":
            if not rest or rest[0].kind != IDENT:
                raise PreprocessorError(f"#{name} expects an identifier",
                                        directive.loc)
            defined = rest[0].text in self.macros
            truth = defined if name == "ifdef" else not defined
            stack.append([active and truth, truth, False])
            return
        if name == "if":
            truth = bool(self._evaluate_condition(rest, directive.loc)) \
                if active else False
            stack.append([active and truth, truth, False])
            return
        if name == "elif":
            if not stack:
                raise PreprocessorError("#elif without #if", directive.loc)
            entry = stack[-1]
            if entry[2]:
                raise PreprocessorError("#elif after #else", directive.loc)
            if entry[1] or not parent_active:
                entry[0] = False
            else:
                truth = bool(self._evaluate_condition(rest, directive.loc))
                entry[0] = truth
                entry[1] = truth
            return
        if name == "else":
            if not stack:
                raise PreprocessorError("#else without #if", directive.loc)
            entry = stack[-1]
            if entry[2]:
                raise PreprocessorError("duplicate #else", directive.loc)
            entry[2] = True
            entry[0] = parent_active and not entry[1]
            entry[1] = True
            return
        if name == "endif":
            if not stack:
                raise PreprocessorError("#endif without #if", directive.loc)
            stack.pop()
            return

        if not active:
            return

        if name == "define":
            self._define(rest, directive.loc)
        elif name == "undef":
            if rest and rest[0].kind == IDENT:
                self.macros.pop(rest[0].text, None)
        elif name == "include":
            self._include(rest, cwd, out, directive.loc)
        elif name == "error":
            message = " ".join(t.text for t in rest)
            raise PreprocessorError(f"#error {message}", directive.loc)
        elif name == "pragma":
            pass  # Ignored (e.g. #pragma once is handled by include guards).
        elif name == "warning":
            pass
        else:
            raise PreprocessorError(f"unknown directive #{name}",
                                    directive.loc)

    # -- #define --------------------------------------------------------------

    def _define(self, rest: list[Token], loc: SourceLocation) -> None:
        if not rest or rest[0].kind != IDENT:
            raise PreprocessorError("#define expects a name", loc)
        name = rest[0].text
        # Function-like only when '(' immediately follows the name.
        if (len(rest) > 1 and rest[1].is_punct("(")
                and not rest[1].space_before):
            params: list[str] = []
            is_varargs = False
            i = 2
            if rest[i].is_punct(")"):
                i += 1
            else:
                while True:
                    if rest[i].is_punct("..."):
                        is_varargs = True
                        i += 1
                    elif rest[i].kind == IDENT:
                        params.append(rest[i].text)
                        i += 1
                    else:
                        raise PreprocessorError(
                            "bad macro parameter list", loc)
                    if rest[i].is_punct(")"):
                        i += 1
                        break
                    if not rest[i].is_punct(","):
                        raise PreprocessorError(
                            "bad macro parameter list", loc)
                    i += 1
            body = rest[i:]
            self.macros[name] = Macro(name, body, params, is_varargs)
        else:
            self.macros[name] = Macro(name, rest[1:])

    # -- #include ---------------------------------------------------------------

    def _include(self, rest: list[Token], cwd: str, out: list[Token],
                 loc: SourceLocation) -> None:
        if rest and rest[0].kind == STRING:
            target = rest[0].value.decode("utf-8")
            search = [cwd, *self.include_dirs]
        elif rest and rest[0].is_punct("<"):
            parts = []
            for token in rest[1:]:
                if token.is_punct(">"):
                    break
                parts.append(token.text)
            target = "".join(parts)
            search = list(self.include_dirs)
        else:
            raise PreprocessorError("malformed #include", loc)
        for directory in search:
            candidate = os.path.join(directory, target)
            if os.path.exists(candidate):
                if self.include_depth > 40:
                    raise PreprocessorError("include depth exceeded", loc)
                self.include_depth += 1
                try:
                    with open(candidate, "r", encoding="utf-8") as handle:
                        text = handle.read()
                    digest = hashlib.sha256(
                        text.encode("utf-8")).hexdigest()
                    self.included_files.append(
                        (os.path.abspath(candidate), digest))
                    lines = _header_lines(candidate, text, digest)
                    self._process_lines(lines, os.path.dirname(candidate),
                                        out)
                finally:
                    self.include_depth -= 1
                return
        raise PreprocessorError(f"include file not found: {target}", loc)

    # -- macro expansion ----------------------------------------------------------

    def _expand(self, stream: deque[Token]) -> list[Token]:
        out: list[Token] = []
        while stream:
            token = stream.popleft()
            if token.kind != IDENT:
                out.append(token)
                continue
            name = token.text
            if name in token.hide_set or name not in self.macros:
                if name == "__LINE__":
                    replacement = Token(INT_CONST, (token.loc.line, False, 0),
                                        str(token.loc.line), token.loc)
                    out.append(replacement)
                elif name == "__FILE__":
                    out.append(Token(STRING,
                                     token.loc.filename.encode() + b"",
                                     token.loc.filename, token.loc))
                else:
                    out.append(token)
                continue
            macro = self.macros[name]
            if macro.is_function:
                if not stream or not stream[0].is_punct("("):
                    out.append(token)
                    continue
                args = self._collect_args(stream, macro, token.loc)
                body = self._substitute(macro, args, token)
            else:
                body = []
                for body_token in macro.body:
                    copy = body_token.copy()
                    copy.loc = token.loc
                    copy.hide_set = token.hide_set | {name}
                    body.append(copy)
            stream.extendleft(reversed(body))
        return out

    def _collect_args(self, stream: deque[Token], macro: Macro,
                      loc: SourceLocation) -> list[list[Token]]:
        stream.popleft()  # consume '('
        args: list[list[Token]] = [[]]
        depth = 0
        while True:
            if not stream:
                raise PreprocessorError(
                    f"unterminated call to macro {macro.name}", loc)
            token = stream.popleft()
            if token.is_punct("(") or token.is_punct("[") or token.is_punct("{"):
                depth += 1
            elif token.is_punct(")") or token.is_punct("]") or token.is_punct("}"):
                if depth == 0 and token.is_punct(")"):
                    break
                depth -= 1
            elif token.is_punct(",") and depth == 0:
                args.append([])
                continue
            args[-1].append(token)
        expected = len(macro.params or [])
        if len(args) == 1 and not args[0] and expected == 0:
            args = []
        if macro.is_varargs:
            if len(args) < expected:
                raise PreprocessorError(
                    f"macro {macro.name} expects at least {expected} "
                    f"arguments", loc)
        elif len(args) != expected:
            raise PreprocessorError(
                f"macro {macro.name} expects {expected} arguments, "
                f"got {len(args)}", loc)
        return args

    def _substitute(self, macro: Macro, args: list[list[Token]],
                    invocation: Token) -> list[Token]:
        params = macro.params or []
        expanded_args = [self._expand(deque(list(arg))) for arg in args]
        named = dict(zip(params, expanded_args))
        raw_named = dict(zip(params, args))
        if macro.is_varargs:
            extra = args[len(params):]
            va_tokens: list[Token] = []
            for i, arg in enumerate(self._expand_all(extra)):
                if i:
                    comma = Token(PUNCT, ",", ",", invocation.loc)
                    va_tokens.append(comma)
                va_tokens.extend(arg)
            named["__VA_ARGS__"] = va_tokens
            raw_named["__VA_ARGS__"] = va_tokens

        hide = invocation.hide_set | {macro.name}
        out: list[Token] = []
        body = macro.body
        i = 0
        while i < len(body):
            token = body[i]
            if token.is_punct("#") and i + 1 < len(body) \
                    and body[i + 1].kind == IDENT \
                    and body[i + 1].text in raw_named:
                # Stringize the *unexpanded* argument spelling.
                spelling = " ".join(
                    t.text for t in raw_named[body[i + 1].text])
                out.append(Token(STRING, spelling.encode("utf-8"),
                                 f'"{spelling}"', invocation.loc))
                i += 2
                continue
            if token.kind == IDENT and token.text in named:
                for arg_token in named[token.text]:
                    copy = arg_token.copy()
                    copy.loc = invocation.loc
                    out.append(copy)
                i += 1
                continue
            copy = token.copy()
            copy.loc = invocation.loc
            copy.hide_set = copy.hide_set | hide
            out.append(copy)
            i += 1
        return out

    def _expand_all(self, groups: list[list[Token]]) -> list[list[Token]]:
        return [self._expand(deque(list(g))) for g in groups]

    # -- #if expression evaluation ------------------------------------------------

    def _evaluate_condition(self, tokens: list[Token],
                            loc: SourceLocation) -> int:
        # Replace `defined NAME` / `defined(NAME)` before macro expansion.
        replaced: list[Token] = []
        i = 0
        while i < len(tokens):
            token = tokens[i]
            if token.kind == IDENT and token.text == "defined":
                if i + 1 < len(tokens) and tokens[i + 1].is_punct("("):
                    if i + 3 >= len(tokens) or not tokens[i + 3].is_punct(")"):
                        raise PreprocessorError("malformed defined()", loc)
                    name = tokens[i + 2].text
                    i += 4
                else:
                    name = tokens[i + 1].text
                    i += 2
                value = 1 if name in self.macros else 0
                replaced.append(Token(INT_CONST, (value, False, 0),
                                      str(value), loc))
                continue
            replaced.append(token)
            i += 1
        expanded = self._expand(deque(replaced))
        # Remaining identifiers evaluate to 0.
        return _CondParser(expanded, loc).parse()


class _CondParser:
    """Tiny recursive-descent evaluator for #if expressions."""

    def __init__(self, tokens: list[Token], loc: SourceLocation):
        self.tokens = tokens
        self.pos = 0
        self.loc = loc

    def parse(self) -> int:
        value = self._ternary()
        if self.pos != len(self.tokens):
            raise PreprocessorError("trailing tokens in #if expression",
                                    self.loc)
        return value

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _accept(self, text: str) -> bool:
        token = self._peek()
        if token is not None and token.is_punct(text):
            self.pos += 1
            return True
        return False

    def _ternary(self) -> int:
        cond = self._binary(0)
        if self._accept("?"):
            if_true = self._ternary()
            if not self._accept(":"):
                raise PreprocessorError("expected ':'", self.loc)
            if_false = self._ternary()
            return if_true if cond else if_false
        return cond

    _LEVELS = [
        ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
        ("<", ">", "<=", ">="), ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
    ]

    def _binary(self, level: int) -> int:
        if level == len(self._LEVELS):
            return self._unary()
        lhs = self._binary(level + 1)
        while True:
            token = self._peek()
            if token is None or token.kind != PUNCT \
                    or token.text not in self._LEVELS[level]:
                return lhs
            self.pos += 1
            rhs = self._binary(level + 1)
            lhs = _apply(token.text, lhs, rhs, self.loc)

    def _unary(self) -> int:
        if self._accept("!"):
            return 0 if self._unary() else 1
        if self._accept("-"):
            return -self._unary()
        if self._accept("+"):
            return self._unary()
        if self._accept("~"):
            return ~self._unary()
        if self._accept("("):
            value = self._ternary()
            if not self._accept(")"):
                raise PreprocessorError("expected ')'", self.loc)
            return value
        token = self._peek()
        if token is None:
            raise PreprocessorError("truncated #if expression", self.loc)
        self.pos += 1
        if token.kind == INT_CONST:
            return token.value[0]
        if token.kind == lexer.CHAR_CONST:
            return token.value
        if token.kind == IDENT:
            return 0
        raise PreprocessorError(
            f"unexpected token {token.text!r} in #if", self.loc)


def _apply(op: str, lhs: int, rhs: int, loc: SourceLocation) -> int:
    if op in ("/", "%") and rhs == 0:
        raise PreprocessorError("division by zero in #if", loc)
    table = {
        "||": lambda a, b: 1 if a or b else 0,
        "&&": lambda a, b: 1 if a and b else 0,
        "|": lambda a, b: a | b, "^": lambda a, b: a ^ b,
        "&": lambda a, b: a & b,
        "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
        "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
        "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
        "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
        "+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: int(a / b),
        "%": lambda a, b: a - int(a / b) * b,
    }
    return table[op](lhs, rhs)


# The logical lines of every file ``#include`` lexed in this process,
# keyed by the filename the lexer stamps into token locations and the
# sha256 of the text.  Lexing is a pure function of the two, and no code
# changes a token after lexing (expansion copies a token before it sets
# its location or hide set), so conditionals and macro expansion run
# over the shared tokens exactly as over fresh ones.  Oldest out first.
_HEADER_LINES: dict[tuple[str, str], list[list[Token]]] = {}
_HEADER_LINES_MAX = 64


def _header_lines(filename: str, text: str,
                  digest: str) -> list[list[Token]]:
    key = (filename, digest)
    lines = _HEADER_LINES.get(key)
    if lines is None:
        lines = _split_lines(lexer.tokenize(text, filename))
        if len(_HEADER_LINES) >= _HEADER_LINES_MAX:
            _HEADER_LINES.pop(next(iter(_HEADER_LINES)), None)
        _HEADER_LINES[key] = lines
    return lines


def _split_lines(tokens: list[Token]) -> list[list[Token]]:
    """Group a token list into logical lines using start-of-line flags."""
    lines: list[list[Token]] = []
    current: list[Token] = []
    for token in tokens:
        if token.start_of_line and current:
            lines.append(current)
            current = []
        current.append(token)
    if current:
        lines.append(current)
    return lines
