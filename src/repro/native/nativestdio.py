"""Native stdio builtins: printf/scanf families and FILE streams.

printf walks the caller's variadic argument slots on the simulated stack
with nothing but the format string to guide it — the exact mechanism that
makes format-string mismatches silent on the native model (and exploitable
in reality, §2.1).
"""

from __future__ import annotations

from ..core.bits import to_signed
from ..core.interpreter import SEEK_CUR, SEEK_SET
from .nativelibc import (_VaReader, _setup_va, builtin, read_cstring)

# FILE layout on the native heap: fd(i32), ungot+1(i32), eof(i32), err(i32)
_FILE_SIZE = 16


def initialize_stdio(machine) -> None:
    """Allocate FILE objects for the standard streams and point the
    ``stdin``/``stdout``/``stderr`` globals at them (the dynamic loader's
    job on a real system)."""
    for name, fd in (("stdin", 0), ("stdout", 1), ("stderr", 2)):
        address = machine.allocator.malloc(_FILE_SIZE)
        machine.tool.on_malloc(machine, address, _FILE_SIZE, zeroed=True)
        machine.memory.store_bytes(address, b"\x00" * _FILE_SIZE)
        machine.memory.store_int(address, 4, fd)
        setattr(machine, f"_{name}_file", address)
        gvar_address = machine.global_addresses.get(name)
        if gvar_address is not None:
            machine.memory.store_int(gvar_address, 8, address)


def _stream_fd(machine, stream: int) -> int:
    return to_signed(machine.mem_read_int(stream, 4, machine.current_loc), 32)


def _stream_getc(machine, stream: int) -> int:
    ungot = machine.mem_read_int(stream + 4, 4, machine.current_loc)
    if ungot:
        machine.mem_write_int(stream + 4, 4, 0, machine.current_loc)
        return (ungot - 1) & 0xFF
    data = machine.sys_read(_stream_fd(machine, stream), 1)
    if not data:
        machine.mem_write_int(stream + 8, 4, 1, machine.current_loc)  # eof
        return -1
    return data[0]


def _stream_ungetc(machine, stream: int, c: int) -> int:
    if c < 0:
        return -1
    machine.mem_write_int(stream + 4, 4, (c & 0xFF) + 1, machine.current_loc)
    machine.mem_write_int(stream + 8, 4, 0, machine.current_loc)
    return c


# ---------------------------------------------------------------------------
# character I/O builtins
# ---------------------------------------------------------------------------

@builtin("fputc")
def _fputc(machine, frame, args):
    c, stream = args
    machine.sys_write(_stream_fd(machine, stream), bytes([c & 0xFF]))
    return c & 0xFF


@builtin("putc")
def _putc(machine, frame, args):
    return _fputc(machine, frame, args)


@builtin("putchar")
def _putchar(machine, frame, args):
    machine.sys_write(1, bytes([args[0] & 0xFF]))
    return args[0] & 0xFF


@builtin("fputs")
def _fputs(machine, frame, args):
    text = read_cstring(machine, args[0], machine.current_loc)
    machine.sys_write(_stream_fd(machine, args[1]), text)
    return 0


@builtin("puts")
def _puts(machine, frame, args):
    text = read_cstring(machine, args[0], machine.current_loc)
    machine.sys_write(1, text + b"\n")
    return 0


@builtin("fgetc")
def _fgetc(machine, frame, args):
    value = _stream_getc(machine, args[0])
    return value & 0xFFFFFFFF


@builtin("getc")
def _getc(machine, frame, args):
    return _fgetc(machine, frame, args)


@builtin("getchar")
def _getchar(machine, frame, args):
    return _stream_getc(machine, machine._stdin_file) & 0xFFFFFFFF


@builtin("ungetc")
def _ungetc(machine, frame, args):
    c, stream = args
    return _stream_ungetc(machine, stream, to_signed(c, 32)) & 0xFFFFFFFF


@builtin("fgets")
def _fgets(machine, frame, args):
    buffer, size, stream = args
    size = to_signed(size, 32)
    if size <= 0:
        return 0
    loc = machine.current_loc
    i = 0
    while i < size - 1:
        c = _stream_getc(machine, stream)
        if c < 0:
            break
        machine.mem_write_int(buffer + i, 1, c, loc)
        i += 1
        if c == 10:
            break
    if i == 0:
        return 0
    machine.mem_write_int(buffer + i, 1, 0, loc)
    return buffer


@builtin("gets")
def _gets(machine, frame, args):
    buffer = args[0]
    loc = machine.current_loc
    i = 0
    c = -1
    while True:
        c = _stream_getc(machine, machine._stdin_file)
        if c < 0 or c == 10:
            break
        machine.mem_write_int(buffer + i, 1, c, loc)
        i += 1
    if i == 0 and c < 0:
        return 0
    machine.mem_write_int(buffer + i, 1, 0, loc)
    return buffer


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

@builtin("fopen")
def _fopen(machine, frame, args):
    path = read_cstring(machine, args[0],
                        machine.current_loc).decode("utf-8", "replace")
    mode = read_cstring(machine, args[1],
                        machine.current_loc).decode("utf-8", "replace")
    fd = machine.sys_open(path, mode)
    if fd < 0:
        return 0
    address = machine.allocator.malloc(_FILE_SIZE)
    machine.tool.on_malloc(machine, address, _FILE_SIZE, zeroed=True)
    machine.memory.store_bytes(address, b"\x00" * _FILE_SIZE)
    machine.memory.store_int(address, 4, fd)
    return address


@builtin("fclose")
def _fclose(machine, frame, args):
    fd = _stream_fd(machine, args[0])
    machine.sys_close(fd)
    if fd > 2:
        machine.tool.on_free(machine, args[0], machine.current_loc)
        machine.allocator.free(args[0])
    return 0


@builtin("fflush")
def _fflush(machine, frame, args):
    return 0


@builtin("feof")
def _feof(machine, frame, args):
    return machine.mem_read_int(args[0] + 8, 4, machine.current_loc)


@builtin("ferror")
def _ferror(machine, frame, args):
    return machine.mem_read_int(args[0] + 12, 4, machine.current_loc)


@builtin("fread")
def _fread(machine, frame, args):
    buffer, size, count, stream = args
    loc = machine.current_loc
    total = size * count
    got = 0
    while got < total:
        c = _stream_getc(machine, stream)
        if c < 0:
            break
        machine.mem_write_int(buffer + got, 1, c, loc)
        got += 1
    return got // size if size else 0


@builtin("fwrite")
def _fwrite(machine, frame, args):
    buffer, size, count, stream = args
    total = size * count
    data = machine.mem_read_bytes(buffer, total, machine.current_loc)
    written = machine.sys_write(_stream_fd(machine, stream), data)
    if written < 0:
        return 0
    return written // size if size else 0


@builtin("perror")
def _perror(machine, frame, args):
    if args[0]:
        machine.sys_write(
            2, read_cstring(machine, args[0], machine.current_loc) + b": ")
    machine.sys_write(2, b"error\n")
    return None


# ---------------------------------------------------------------------------
# printf
# ---------------------------------------------------------------------------

def _format_native(machine, fmt: bytes, reader: _VaReader) -> bytes:
    out = bytearray()
    i = 0
    n = len(fmt)
    while i < n:
        c = fmt[i]
        if c != 37:  # '%'
            out.append(c)
            i += 1
            continue
        i += 1
        left = zero = plus = False
        width = 0
        precision = -1
        longs = 0
        while i < n and fmt[i] in b"-0+ #":
            if fmt[i] == 45:
                left = True
            elif fmt[i] == 48:
                zero = True
            elif fmt[i] == 43:
                plus = True
            i += 1
        if i < n and fmt[i] == 42:  # '*'
            width = to_signed(reader.next_int(4), 32)
            i += 1
        else:
            while i < n and 48 <= fmt[i] <= 57:
                width = width * 10 + (fmt[i] - 48)
                i += 1
        if i < n and fmt[i] == 46:  # '.'
            i += 1
            precision = 0
            if i < n and fmt[i] == 42:
                precision = to_signed(reader.next_int(4), 32)
                i += 1
            else:
                while i < n and 48 <= fmt[i] <= 57:
                    precision = precision * 10 + (fmt[i] - 48)
                    i += 1
        while i < n and fmt[i] in b"lhz":
            if fmt[i] in b"lz":
                longs += 1
            i += 1
        if i >= n:
            break
        conv = chr(fmt[i])
        i += 1
        text = ""
        pad = "0" if (zero and not left) else " "
        if conv == "%":
            out.append(37)
            continue
        if conv in "di":
            size = 8 if longs else 4
            value = to_signed(reader.next_int(size), size * 8)
            text = f"{value:+d}" if plus else str(value)
        elif conv == "u":
            text = str(reader.next_int(8 if longs else 4))
        elif conv in "xX":
            text = format(reader.next_int(8 if longs else 4),
                          "X" if conv == "X" else "x")
        elif conv == "o":
            text = format(reader.next_int(8 if longs else 4), "o")
        elif conv == "c":
            text = chr(reader.next_int(4) & 0xFF)
        elif conv == "s":
            pointer = reader.next_pointer()
            if pointer == 0:
                text = "(null)"
            else:
                raw = read_cstring(machine, pointer, reader.loc)
                text = raw.decode("latin-1")
            if precision >= 0:
                text = text[:precision]
            pad = " "
        elif conv == "p":
            pointer = reader.next_pointer()
            text = "(nil)" if pointer == 0 else f"0x{pointer:x}"
            pad = " "
        elif conv in "fFeEgG":
            value = reader.next_double()
            p = precision if precision >= 0 else 6
            if conv in "eE":
                text = f"{value:.{p}e}"
            elif conv in "gG":
                text = f"{value:.{p if p else 1}g}"
            else:
                text = f"{value:.{p}f}"
        else:
            text = "%" + conv
        if width > len(text):
            if left:
                text = text + " " * (width - len(text))
            else:
                text = pad * (width - len(text)) + text
        out.extend(text.encode("latin-1"))
    return bytes(out)


def _printf_common(machine, fmt_ptr: int, extra: list,
                   va_base: int | None = None) -> bytes:
    fmt = read_cstring(machine, fmt_ptr, machine.current_loc)
    if va_base is None:
        base, saved_sp = _setup_va(machine, extra)
        try:
            return _format_native(machine, fmt,
                                  _VaReader(machine, base,
                                            machine.current_loc))
        finally:
            machine.sp = saved_sp
    return _format_native(machine, fmt,
                          _VaReader(machine, va_base, machine.current_loc))


@builtin("printf")
def _printf(machine, frame, args):
    data = _printf_common(machine, args[0], args[1:])
    machine.sys_write(1, data)
    return len(data)


@builtin("fprintf")
def _fprintf(machine, frame, args):
    data = _printf_common(machine, args[1], args[2:])
    machine.sys_write(_stream_fd(machine, args[0]), data)
    return len(data)


@builtin("vfprintf")
def _vfprintf(machine, frame, args):
    stream, fmt_ptr, ap = args
    data = _printf_common(machine, fmt_ptr, [], va_base=ap)
    machine.sys_write(_stream_fd(machine, stream), data)
    return len(data)


@builtin("sprintf")
def _sprintf(machine, frame, args):
    data = _printf_common(machine, args[1], args[2:])
    machine.mem_write_bytes(args[0], data + b"\x00", machine.current_loc)
    return len(data)


@builtin("snprintf")
def _snprintf(machine, frame, args):
    buffer, size, fmt_ptr = args[0], args[1], args[2]
    data = _printf_common(machine, fmt_ptr, args[3:])
    if size > 0:
        cut = data[:size - 1]
        machine.mem_write_bytes(buffer, cut + b"\x00", machine.current_loc)
    return len(data)


@builtin("vsnprintf")
def _vsnprintf(machine, frame, args):
    buffer, size, fmt_ptr, ap = args
    data = _printf_common(machine, fmt_ptr, [], va_base=ap)
    if size > 0:
        cut = data[:size - 1]
        machine.mem_write_bytes(buffer, cut + b"\x00", machine.current_loc)
    return len(data)


# ---------------------------------------------------------------------------
# scanf
# ---------------------------------------------------------------------------

class _ScanSource:
    def __init__(self, machine, stream: int | None, text_ptr: int | None):
        self.machine = machine
        self.stream = stream
        self.text_ptr = text_ptr
        self.pos = 0

    def getc(self) -> int:
        if self.stream is not None:
            return _stream_getc(self.machine, self.stream)
        byte = self.machine.mem_read_int(self.text_ptr + self.pos, 1,
                                         self.machine.current_loc)
        if byte == 0:
            return -1
        self.pos += 1
        return byte

    def ungetc(self, c: int) -> None:
        if c < 0:
            return
        if self.stream is not None:
            _stream_ungetc(self.machine, self.stream, c)
        else:
            self.pos -= 1


def _scan_core(machine, source: _ScanSource, fmt: bytes,
               reader: _VaReader) -> int:
    assigned = 0
    i = 0
    n = len(fmt)
    loc = machine.current_loc
    while i < n:
        f = fmt[i]
        if f in b" \t\n":
            c = source.getc()
            while c in (32, 9, 10, 13):
                c = source.getc()
            source.ungetc(c)
            i += 1
            continue
        if f != 37:
            c = source.getc()
            if c != f:
                source.ungetc(c)
                return assigned
            i += 1
            continue
        i += 1
        width = 0
        longs = 0
        while i < n and 48 <= fmt[i] <= 57:
            width = width * 10 + (fmt[i] - 48)
            i += 1
        while i < n and fmt[i] in b"lhz":
            if fmt[i] in b"lz":
                longs += 1
            i += 1
        if i >= n:
            break
        conv = chr(fmt[i])
        i += 1
        if conv == "%":
            c = source.getc()
            if c != 37:
                source.ungetc(c)
                return assigned
            continue
        if conv == "c":
            out = reader.next_pointer()
            count = width or 1
            for k in range(count):
                c = source.getc()
                if c < 0:
                    return assigned
                machine.mem_write_int(out + k, 1, c, loc)
            assigned += 1
            continue
        if conv == "s":
            out = reader.next_pointer()
            c = source.getc()
            while c in (32, 9, 10, 13):
                c = source.getc()
            if c < 0:
                return assigned
            k = 0
            while c >= 0 and c not in (32, 9, 10, 13) \
                    and (width == 0 or k < width):
                machine.mem_write_int(out + k, 1, c, loc)
                k += 1
                c = source.getc()
            source.ungetc(c)
            machine.mem_write_int(out + k, 1, 0, loc)
            assigned += 1
            continue
        if conv in "diux":
            digits = bytearray()
            base = 16 if conv == "x" else 10
            c = source.getc()
            while c in (32, 9, 10, 13):
                c = source.getc()
            if c in (43, 45):
                digits.append(c)
                c = source.getc()
            def is_digit(ch):
                if 48 <= ch <= 57:
                    return True
                return base == 16 and (97 <= ch <= 102 or 65 <= ch <= 70)
            while c >= 0 and is_digit(c):
                digits.append(c)
                c = source.getc()
            source.ungetc(c)
            if not digits or digits in (b"+", b"-"):
                return assigned
            value = int(bytes(digits), base)
            out = reader.next_pointer()
            machine.mem_write_int(out, 8 if longs else 4, value, loc)
            assigned += 1
            continue
        if conv in "feg":
            token = bytearray()
            c = source.getc()
            while c in (32, 9, 10, 13):
                c = source.getc()
            while c >= 0 and (48 <= c <= 57
                              or c in (43, 45, 46, 101, 69)):
                token.append(c)
                c = source.getc()
            source.ungetc(c)
            if not token:
                return assigned
            try:
                value = float(bytes(token))
            except ValueError:
                return assigned
            out = reader.next_pointer()
            machine.mem_write_float(out, 8 if longs else 4, value, loc)
            assigned += 1
            continue
        return assigned
    return assigned


def _scanf_common(machine, source: _ScanSource, fmt_ptr: int,
                  extra: list) -> int:
    fmt = read_cstring(machine, fmt_ptr, machine.current_loc)
    base, saved_sp = _setup_va(machine, extra)
    try:
        reader = _VaReader(machine, base, machine.current_loc)
        return _scan_core(machine, source, fmt, reader)
    finally:
        machine.sp = saved_sp


@builtin("scanf")
def _scanf(machine, frame, args):
    source = _ScanSource(machine, machine._stdin_file, None)
    return _scanf_common(machine, source, args[0], args[1:]) & 0xFFFFFFFF


@builtin("fscanf")
def _fscanf(machine, frame, args):
    source = _ScanSource(machine, args[0], None)
    return _scanf_common(machine, source, args[1], args[2:]) & 0xFFFFFFFF


@builtin("sscanf")
def _sscanf(machine, frame, args):
    source = _ScanSource(machine, None, args[0])
    return _scanf_common(machine, source, args[1], args[2:]) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# stream positioning
# ---------------------------------------------------------------------------

@builtin("fseek")
def _fseek(machine, frame, args):
    stream, offset, whence = args
    fd = _stream_fd(machine, stream)
    if machine.sys_lseek(fd, to_signed(offset, 64),
                         to_signed(whence, 32)) < 0:
        return 0xFFFFFFFF  # -1
    machine.mem_write_int(stream + 4, 4, 0, machine.current_loc)  # ungot
    machine.mem_write_int(stream + 8, 4, 0, machine.current_loc)  # eof
    return 0


@builtin("ftell")
def _ftell(machine, frame, args):
    stream = args[0]
    fd = _stream_fd(machine, stream)
    position = machine.sys_lseek(fd, 0, SEEK_CUR)
    if position >= 0 and machine.mem_read_int(stream + 4, 4,
                                              machine.current_loc):
        position -= 1  # account for a pushed-back character
    return position & 0xFFFFFFFFFFFFFFFF


@builtin("rewind")
def _rewind(machine, frame, args):
    stream = args[0]
    machine.sys_lseek(_stream_fd(machine, stream), 0, SEEK_SET)
    machine.mem_write_int(stream + 4, 4, 0, machine.current_loc)
    machine.mem_write_int(stream + 8, 4, 0, machine.current_loc)
    machine.mem_write_int(stream + 12, 4, 0, machine.current_loc)
    return None


@builtin("remove")
def _remove(machine, frame, args):
    path = read_cstring(machine, args[0],
                        machine.current_loc).decode("utf-8", "replace")
    return machine.sys_remove(path) & 0xFFFFFFFF
