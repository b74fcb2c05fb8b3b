"""Textual IR parser: round-trips with :mod:`repro.ir.printer`.

Useful for writing IR-level tests by hand, for golden-file tests of the
front end, and for persisting compiled modules.  Supports exactly the
dialect the printer emits.
"""

from __future__ import annotations

import re

from .. import source
from . import instructions as inst
from . import types as ty
from .module import Block, Function, Module
from .values import (ConstArray, ConstFloat, ConstGEP, ConstInt, ConstNull,
                     ConstString, ConstStruct, ConstUndef, ConstZero,
                     GlobalVariable, VirtualRegister)


class IRParseError(Exception):
    pass


_TOKEN = re.compile(r"""
      c"(?:[^"\\]|\\[0-9a-fA-F]{2})*"   # string constant
    | %[A-Za-z0-9._$-]+                 # register / struct name
    | @[A-Za-z0-9._$-]+                 # global name
    | -?\d+\.\d+(?:e[+-]?\d+)?          # float
    | -?\d+e[+-]?\d+                    # float, exponent only
    | -?(?:inf|nan)                     # special floats
    | -?\d+                             # int
    | \.\.\.                            # varargs ellipsis
    | [A-Za-z_][A-Za-z0-9_.]*           # word
    | [\[\]{}()*,=:]                    # punctuation
""", re.VERBOSE)


def _split_comment(line: str) -> tuple[str, str]:
    """Split a line into (code, comment) at the first ';' outside a
    c"..." constant.  Lines without string constants — the vast
    majority — take the ``str.partition`` fast path; only lines that
    contain a '"' pay for the character scan."""
    if '"' not in line:
        code, _, comment = line.partition(";")
        return code.strip(), comment.strip()
    in_string = False
    for i, c in enumerate(line):
        if in_string:
            if c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == ";":
            return line[:i].strip(), line[i + 1:].strip()
    return line.strip(), ""


def _parse_loc(text: str, cache: dict):
    """Decode the ``file:line[:col]`` comment the printer appends to
    instructions back into a SourceLocation (interned per spelling)."""
    if not text:
        return source.UNKNOWN
    loc = cache.get(text)
    if loc is not None:
        return loc
    parts = text.rsplit(":", 2)
    if len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
        loc = source.SourceLocation(parts[0], int(parts[1]),
                                    int(parts[2]))
    elif len(parts) >= 2 and parts[-1].isdigit():
        loc = source.SourceLocation(":".join(parts[:-1]),
                                    int(parts[-1]))
    else:
        loc = source.UNKNOWN
    cache[text] = loc
    return loc


class _Tokens:
    def __init__(self, text: str, line_no: int):
        self.items = _TOKEN.findall(text)
        self.pos = 0
        self.line_no = line_no

    def peek(self) -> str | None:
        if self.pos < len(self.items):
            return self.items[self.pos]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise IRParseError(f"line {self.line_no}: unexpected end")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise IRParseError(
                f"line {self.line_no}: expected {token!r}, got {got!r}")

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.pos += 1
            return True
        return False

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


class ModuleParser:
    def __init__(self, text: str):
        # Lines are split into (code, comment) exactly once; both the
        # forward-declaration pre-pass and the main pass walk this list.
        self.stripped = [_split_comment(raw) for raw in text.splitlines()]
        self.index = 0
        self.comment = ""  # comment tail of the last _next_line()
        self.module = Module("parsed")
        self.structs: dict[str, ty.StructType] = {}
        self.registers: dict[str, VirtualRegister] = {}
        self.blocks: dict[str, Block] = {}
        self.pending: list = []  # (fixup closures run at function end)
        self._locs: dict[str, source.SourceLocation] = {}
        # The printer opens with a "; module NAME" comment; restore the
        # name so a round-tripped module is not renamed to "parsed".
        for code, comment in self.stripped:
            if code:
                break
            if comment.startswith("module "):
                self.module.name = comment[len("module "):].strip()
                break

    # -- line plumbing ------------------------------------------------------

    def _next_line(self) -> str | None:
        stripped = self.stripped
        while self.index < len(stripped):
            code, comment = stripped[self.index]
            self.index += 1
            if code:
                self.comment = comment
                return code
        return None

    def _peek_line(self) -> str | None:
        save = self.index
        line = self._next_line()
        self.index = save
        return line

    # -- types ----------------------------------------------------------------

    def parse_type(self, tokens: _Tokens) -> ty.IRType:
        token = tokens.next()
        base: ty.IRType
        if token == "void":
            base = ty.VOID
        elif token == "float":
            base = ty.F32
        elif token == "double":
            base = ty.F64
        elif token.startswith("i") and token[1:].isdigit():
            base = ty.int_type(int(token[1:]))
        elif token == "[":
            count = int(tokens.next())
            tokens.expect("x")
            elem = self.parse_type(tokens)
            tokens.expect("]")
            base = ty.ArrayType(elem, count)
        elif token.startswith("%"):
            name = token[1:]
            struct = self.structs.get(name)
            if struct is None:
                struct = ty.StructType(name)
                self.structs[name] = struct
                self.module.structs[name] = struct
            base = struct
        else:
            raise IRParseError(
                f"line {tokens.line_no}: not a type: {token!r}")
        # Function types: `i32 (i32, i8*)`.
        if tokens.accept("("):
            params: list[ty.IRType] = []
            is_varargs = False
            while not tokens.accept(")"):
                if tokens.accept("..."):
                    is_varargs = True
                    tokens.expect(")")
                    break
                params.append(self.parse_type(tokens))
                tokens.accept(",")
            base = ty.FunctionType(base, params, is_varargs)
        while tokens.accept("*"):
            base = ty.PointerType(base)
        return base

    # -- values ----------------------------------------------------------------

    def parse_value(self, value_type: ty.IRType, tokens: _Tokens):
        token = tokens.next()
        if token.startswith("%"):
            name = token[1:]
            register = self.registers.get(name)
            if register is None:
                register = VirtualRegister(name, value_type)
                self.registers[name] = register
            return register
        if token.startswith("@"):
            return self._global_ref(token[1:])
        if token == "null":
            return ConstNull(value_type)
        if token == "undef":
            return ConstUndef(value_type)
        if token == "zeroinitializer":
            return ConstZero(value_type)
        if token.startswith('c"'):
            return ConstString(_decode_ir_string(token))
        if token == "gep":
            tokens.expect("(")
            base_token = tokens.next()
            base = self._global_ref(base_token[1:])
            tokens.expect(",")
            offset = int(tokens.next())
            tokens.expect(")")
            return ConstGEP(value_type, base, offset)
        if token == "[":
            elements = []
            while not tokens.accept("]"):
                elem_type = self.parse_type(tokens)
                elements.append(self.parse_value(elem_type, tokens))
                tokens.accept(",")
            return ConstArray(value_type, elements)
        if token == "{":
            elements = []
            while not tokens.accept("}"):
                elem_type = self.parse_type(tokens)
                elements.append(self.parse_value(elem_type, tokens))
                tokens.accept(",")
            return ConstStruct(value_type, elements)
        if isinstance(value_type, ty.FloatType):
            return ConstFloat(value_type, float(token))
        if isinstance(value_type, ty.IntType):
            return ConstInt(value_type, int(token))
        if isinstance(value_type, ty.PointerType) and token == "0":
            return ConstNull(value_type)
        raise IRParseError(
            f"line {tokens.line_no}: cannot parse value {token!r} of "
            f"type {value_type}")

    def _global_ref(self, name: str):
        if name in self.module.functions:
            return self.module.functions[name]
        if name in self.module.globals:
            return self.module.globals[name]
        raise IRParseError(f"unknown global @{name}")

    def parse_typed_value(self, tokens: _Tokens):
        value_type = self.parse_type(tokens)
        return value_type, self.parse_value(value_type, tokens)

    # -- top level ------------------------------------------------------------

    def parse(self) -> Module:
        # Pre-pass: create shells for every function so forward
        # references (calls, function-pointer tables) resolve.
        save = self.index
        while True:
            line = self._next_line()
            if line is None:
                break
            if line.startswith("%") and "= type" not in line \
                    and "= union" not in line:
                continue  # body line
            if line.startswith(("define", "declare")):
                self._declare_header(line)
        self.index = save

        while True:
            line = self._next_line()
            if line is None:
                break
            if line.startswith("%"):
                self._parse_struct(line)
            elif line.startswith("@"):
                self._parse_global(line)
            elif line.startswith("define"):
                self._parse_function(line, is_definition=True)
            elif line.startswith("declare"):
                pass  # shell created in the pre-pass
            else:
                raise IRParseError(f"unexpected line: {line!r}")
        return self.module

    def _parse_struct(self, line: str) -> None:
        tokens = _Tokens(line, self.index)
        name = tokens.next()[1:]
        tokens.expect("=")
        keyword = tokens.next()  # "type" or "union"
        is_union = keyword == "union"
        struct = self.structs.get(name)
        if struct is None:
            struct = ty.StructType(name, is_union=is_union)
            self.structs[name] = struct
            self.module.structs[name] = struct
        struct.is_union = is_union
        if tokens.accept("opaque"):
            return
        # Field names ride in the printer's "; fields a b c" comment
        # (they reach allocation labels and therefore bug messages).
        field_names: list[str] = []
        if self.comment.startswith("fields "):
            field_names = self.comment[len("fields "):].split()
        tokens.expect("{")
        fields = []
        index = 0
        while not tokens.accept("}"):
            field_type = self.parse_type(tokens)
            field_name = field_names[index] if index < len(field_names) \
                else f"f{index}"
            fields.append(ty.StructField(field_name, field_type))
            index += 1
            tokens.accept(",")
        if struct.is_opaque:
            struct.set_fields(fields)

    def _parse_global(self, line: str) -> None:
        tokens = _Tokens(line, self.index)
        name = tokens.next()[1:]
        tokens.expect("=")
        kind = tokens.next()  # [external] global | constant
        is_external = kind == "external"
        if is_external:
            kind = tokens.next()
        value_type = self.parse_type(tokens)
        zero_initialized = False
        initializer = None
        if tokens.accept("zeroinitializer"):
            zero_initialized = True
        elif tokens.accept("undef"):
            pass
        else:
            initializer = self.parse_value(value_type, tokens)
        comment = self.comment
        if comment.startswith("common"):
            comment = comment[len("common"):].strip()
        loc = _parse_loc(comment, self._locs) if comment else None
        if loc is source.UNKNOWN:
            loc = None
        self.module.add_global(GlobalVariable(
            name, value_type, initializer,
            zero_initialized=zero_initialized,
            is_constant=(kind == "constant"),
            is_external=is_external, loc=loc))

    # -- functions ---------------------------------------------------------------

    def _parse_header(self, header: str):
        tokens = _Tokens(header, self.index)
        tokens.next()  # define/declare
        ret_type = self.parse_type(tokens)
        name = tokens.next()[1:]
        tokens.expect("(")
        params: list[tuple[ty.IRType, str]] = []
        is_varargs = False
        while not tokens.accept(")"):
            if tokens.accept("..."):
                is_varargs = True
                tokens.expect(")")
                break
            param_type = self.parse_type(tokens)
            token = tokens.peek()
            if token is not None and token.startswith("%"):
                param_name = tokens.next()[1:]
            else:
                param_name = f"arg{len(params)}"
            params.append((param_type, param_name))
            tokens.accept(",")
        ftype = ty.FunctionType(ret_type, [p[0] for p in params],
                                is_varargs)
        return name, ftype, [p[1] for p in params]

    def _declare_header(self, header: str) -> None:
        name, ftype, param_names = self._parse_header(header)
        if name not in self.module.functions:
            self.module.add_function(Function(name, ftype, param_names))

    def _parse_function(self, header: str, is_definition: bool) -> None:
        name, _ftype, _params = self._parse_header(header)
        function = self.module.functions[name]
        if not is_definition:
            return

        self.registers = {p.name: p for p in function.params}
        self.blocks = {}
        # (label, [(code, comment)]) — the comment tail carries the
        # instruction's source location (and alloca var names).
        body: list[tuple[str, list[tuple[str, str]]]] = []
        current_label = None
        current_lines: list[tuple[str, str]] = []
        while True:
            line = self._next_line()
            if line is None:
                raise IRParseError(f"@{name}: missing closing brace")
            if line == "}":
                break
            if line.endswith(":") and " " not in line:
                if current_label is not None:
                    body.append((current_label, current_lines))
                current_label = line[:-1]
                current_lines = []
            else:
                current_lines.append((line, self.comment))
        if current_label is not None:
            body.append((current_label, current_lines))

        for label, _ in body:
            block = function.add_block(label)
            self.blocks[label] = block
        self.pending = []
        for label, lines in body:
            block = self.blocks[label]
            for text, comment in lines:
                block.instructions.append(
                    self._parse_instruction(text, comment))
        for fixup in self.pending:
            fixup()

    def _block_ref(self, label: str) -> Block:
        block = self.blocks.get(label)
        if block is None:
            raise IRParseError(f"unknown block label %{label}")
        return block

    def _result_register(self, name: str,
                         value_type: ty.IRType) -> VirtualRegister:
        register = self.registers.get(name)
        if register is None:
            register = VirtualRegister(name, value_type)
            self.registers[name] = register
        else:
            register.type = value_type
        return register

    def _parse_instruction(self, text: str,
                           comment: str = "") -> inst.Instruction:
        tokens = _Tokens(text, self.index)
        # The comment tail is "var NAME" (alloca), "file:line[:col]", or
        # "var NAME  ; file:line[:col]" — printer dialect, round-tripped.
        var_name = ""
        if comment.startswith("var "):
            var_part, _, comment = comment[len("var "):].partition(";")
            var_name = var_part.strip()
            comment = comment.strip()
        loc = _parse_loc(comment, self._locs)
        first = tokens.next()
        if first.startswith("%"):
            result_name = first[1:]
            tokens.expect("=")
            op = tokens.next()
            return self._parse_op(op, result_name, tokens, loc, var_name)
        return self._parse_op(first, None, tokens, loc, var_name)

    def _parse_op(self, op: str, result_name: str | None, tokens: _Tokens,
                  loc, var_name: str = "") -> inst.Instruction:
        if op == "alloca":
            allocated = self.parse_type(tokens)
            result = self._result_register(result_name,
                                           ty.PointerType(allocated))
            return inst.Alloca(result, allocated, var_name=var_name,
                               loc=loc)
        if op == "load":
            value_type = self.parse_type(tokens)
            tokens.expect(",")
            _ptr_type, pointer = self.parse_typed_value(tokens)
            result = self._result_register(result_name, value_type)
            return inst.Load(result, pointer, loc=loc)
        if op == "store":
            _value_type, value = self.parse_typed_value(tokens)
            tokens.expect(",")
            _ptr_type, pointer = self.parse_typed_value(tokens)
            return inst.Store(value, pointer, loc=loc)
        if op == "getelementptr":
            pointee = self.parse_type(tokens)
            tokens.expect(",")
            _base_type, base = self.parse_typed_value(tokens)
            indices = []
            index_values = []
            while tokens.accept(","):
                index_type = self.parse_type(tokens)
                index = self.parse_value(index_type, tokens)
                indices.append(index)
                index_values.append(index.signed_value
                                    if isinstance(index, ConstInt) else 0)
            try:
                _offset, final = inst.gep_offset(pointee, index_values)
            except TypeError as error:
                raise IRParseError(
                    f"line {tokens.line_no}: getelementptr: {error}") \
                    from None
            result = self._result_register(result_name,
                                           ty.PointerType(final))
            return inst.Gep(result, base, indices, loc=loc)
        if op in inst.INT_BINOPS or op in inst.FLOAT_BINOPS:
            value_type = self.parse_type(tokens)
            lhs = self.parse_value(value_type, tokens)
            tokens.expect(",")
            rhs = self.parse_value(value_type, tokens)
            result = self._result_register(result_name, value_type)
            return inst.BinOp(result, op, lhs, rhs, loc=loc)
        if op in ("icmp", "fcmp"):
            predicate = tokens.next()
            value_type = self.parse_type(tokens)
            lhs = self.parse_value(value_type, tokens)
            tokens.expect(",")
            rhs = self.parse_value(value_type, tokens)
            result = self._result_register(result_name, ty.I1)
            cls = inst.ICmp if op == "icmp" else inst.FCmp
            return cls(result, predicate, lhs, rhs, loc=loc)
        if op in inst.CAST_KINDS:
            _src_type, value = self.parse_typed_value(tokens)
            tokens.expect("to")
            target = self.parse_type(tokens)
            result = self._result_register(result_name, target)
            return inst.Cast(result, op, value, loc=loc)
        if op == "select":
            _cond_type, condition = self.parse_typed_value(tokens)
            tokens.expect(",")
            true_type, if_true = self.parse_typed_value(tokens)
            tokens.expect(",")
            _false_type, if_false = self.parse_typed_value(tokens)
            result = self._result_register(result_name, true_type)
            return inst.Select(result, condition, if_true, if_false,
                               loc=loc)
        if op == "call":
            ret_type = self.parse_type(tokens)
            callee_token = tokens.next()
            tokens.expect("(")
            args = []
            arg_types = []
            while not tokens.accept(")"):
                arg_type, arg = self.parse_typed_value(tokens)
                args.append(arg)
                arg_types.append(arg_type)
                tokens.accept(",")
            if callee_token.startswith("@"):
                callee = self._global_ref(callee_token[1:])
                signature = callee.ftype
            else:
                callee = self.parse_value(
                    ty.PointerType(ty.FunctionType(ret_type, arg_types)),
                    _Tokens(callee_token, tokens.line_no))
                signature = ty.FunctionType(ret_type, arg_types)
            result = None
            if result_name is not None:
                result = self._result_register(result_name, ret_type)
            return inst.Call(result, callee, args, signature, loc=loc)
        if op == "phi":
            value_type = self.parse_type(tokens)
            incoming: list[tuple[Block, object]] = []
            result = self._result_register(result_name, value_type)
            phi = inst.Phi(result, [], loc=loc)
            pairs: list[tuple[str, object]] = []
            while tokens.accept("["):
                value = self.parse_value(value_type, tokens)
                tokens.expect(",")
                label = tokens.next()[1:]
                tokens.expect("]")
                pairs.append((label, value))
                tokens.accept(",")

            def fixup(phi=phi, pairs=pairs):
                phi.incoming = [(self._block_ref(label), value)
                                for label, value in pairs]
            self.pending.append(fixup)
            return phi
        if op == "br":
            if tokens.accept("label"):
                target = self._block_ref(tokens.next()[1:])
                return inst.Br(target, loc=loc)
            _cond_type, condition = self.parse_typed_value(tokens)
            tokens.expect(",")
            tokens.expect("label")
            if_true = self._block_ref(tokens.next()[1:])
            tokens.expect(",")
            tokens.expect("label")
            if_false = self._block_ref(tokens.next()[1:])
            return inst.CondBr(condition, if_true, if_false, loc=loc)
        if op == "switch":
            _value_type, value = self.parse_typed_value(tokens)
            tokens.expect(",")
            tokens.expect("label")
            default = self._block_ref(tokens.next()[1:])
            tokens.expect("[")
            cases = []
            while not tokens.accept("]"):
                self.parse_type(tokens)
                case_value = int(tokens.next())
                tokens.expect(",")
                tokens.expect("label")
                cases.append((case_value,
                              self._block_ref(tokens.next()[1:])))
            return inst.Switch(value, default, cases, loc=loc)
        if op == "ret":
            if tokens.accept("void"):
                return inst.Ret(None, loc=loc)
            _value_type, value = self.parse_typed_value(tokens)
            return inst.Ret(value, loc=loc)
        if op == "unreachable":
            return inst.Unreachable(loc=loc)
        raise IRParseError(f"unknown instruction {op!r}")


def _decode_ir_string(token: str) -> bytes:
    body = token[2:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        if body[i] == "\\":
            out.append(int(body[i + 1:i + 3], 16))
            i += 3
        else:
            out.append(ord(body[i]))
            i += 1
    return bytes(out)


def parse_module(text: str) -> Module:
    """Parse printer-dialect IR text into a Module."""
    return ModuleParser(text).parse()
