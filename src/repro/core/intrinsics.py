"""Intrinsic functions exposed to the managed libc.

The paper (§3.1): "Safe Sulong exposes functions that are implemented in
Java and serve the same purpose as system calls" — e.g. printf's C
implementation calls a Java function to format a pointer.  This module is
that layer: allocation, varargs introspection (``count_varargs`` /
``get_vararg`` from Figure 9), byte-level I/O on managed buffers, number
formatting/parsing, and the math library.

Every intrinsic receives ``(runtime, frame, args)`` and returns a runtime
value.  All memory it touches goes through the managed object model, so
even libc-level accesses are fully checked (no "interceptor" gaps — P4).
"""

from __future__ import annotations

import math

from ..ir import types as irt
from . import objects as mo
from .bits import to_signed
from .errors import (OutputQuotaExceeded, ProgramCrash, ProgramExit,
                     VarargsError)

INTRINSICS: dict[str, object] = {}


def intrinsic(name: str):
    def register(fn):
        INTRINSICS[name] = fn
        return fn
    return register


def default_intrinsics() -> dict[str, object]:
    return dict(INTRINSICS)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def read_c_string(address, limit: int = 1 << 20) -> bytes:
    """Read a NUL-terminated string through checked accesses."""
    mo.check_not_null(address, "read")
    out = bytearray()
    offset = address.offset
    pointee = address.pointee
    for _ in range(limit):
        byte = pointee.read(offset, irt.I8)
        if byte == 0:
            return bytes(out)
        out.append(byte)
        offset += 1
    raise ProgramCrash("unterminated string exceeds intrinsic limit")


def write_bytes(address, data: bytes) -> None:
    mo.check_not_null(address, "write")
    pointee = address.pointee
    offset = address.offset
    for i, byte in enumerate(data):
        pointee.write(offset + i, irt.I8, byte)


def read_bytes(address, count: int) -> bytes:
    mo.check_not_null(address, "read")
    pointee = address.pointee
    offset = address.offset
    return bytes(pointee.read(offset + i, irt.I8) for i in range(count))


# ---------------------------------------------------------------------------
# Allocation (§3.3)
# ---------------------------------------------------------------------------

def _new_heap_memory(runtime, size: int) -> mo.Address:
    # Charge the heap quota for the *requested* size before building the
    # object, so a single huge malloc() trips the budget instead of the
    # host allocator.  Materialized typed objects may round the size; the
    # drift is reconciled below so free() releases what was charged.
    mo.charge_heap(size)
    mo.note_heap_alloc()
    site = getattr(runtime, "current_site", None)
    # Allocation-site provenance: the call node set current_loc right
    # before dispatching here, so stamping costs one attribute write.
    loc = getattr(runtime, "current_loc", None)
    label = f"malloc({size})"
    factory = runtime.alloc_site_memo.get(site) if site is not None else None
    if factory is not None:
        # Allocation memento hit: allocate the observed type directly.
        obj = factory(size, label)
        obj.__class__ = mo.with_storage(type(obj), "heap")
        if loc is not None:
            mo.stamp_alloc_site(obj, loc)
        if obj.byte_size != size:
            mo.charge_heap(obj.byte_size - size)
        if runtime.track_heap:
            runtime.heap_objects.append(obj)
        return mo.Address(obj, 0)

    # The callback captures the memo, not the runtime: every untyped
    # heap object holds it, and the runtime holds the heap.
    memo = runtime.alloc_site_memo

    def remember(used_factory, _site=site):
        if _site is not None:
            memo[_site] = used_factory

    obj = mo.HeapUntypedMemory(size, label, on_materialize=remember)
    if loc is not None:
        obj.alloc_site = loc
    if runtime.track_heap:
        runtime.heap_objects.append(obj)
    return mo.Address(obj, 0)


@intrinsic("malloc")
def _malloc(runtime, frame, args):
    size = args[0]
    return _new_heap_memory(runtime, size)


@intrinsic("calloc")
def _calloc(runtime, frame, args):
    count, size = args
    return _new_heap_memory(runtime, count * size)


@intrinsic("realloc")
def _realloc(runtime, frame, args):
    pointer, new_size = args
    if pointer is None:
        return _new_heap_memory(runtime, new_size)
    mo.check_not_null(pointer, "realloc")
    old = pointer.pointee
    new_address = _new_heap_memory(runtime, new_size)
    copy = min(old.byte_size, new_size)
    if copy:
        bits = old.read_bits(0, copy)
        new_address.pointee.write_bits(0, copy, bits)
    mo.free_pointer(pointer,
                    free_site=getattr(runtime, "current_loc", None))
    return new_address


@intrinsic("free")
def _free(runtime, frame, args):
    mo.free_pointer(args[0],
                    free_site=getattr(runtime, "current_loc", None))
    return None


# ---------------------------------------------------------------------------
# Varargs introspection (Figure 9)
# ---------------------------------------------------------------------------

@intrinsic("count_varargs")
def _count_varargs(runtime, frame, args):
    return len(frame.varargs)


def _box_vararg(entry):
    if isinstance(entry, tuple):
        value, vtype = entry
    else:
        value, vtype = entry, None
    if vtype is None:
        if isinstance(value, float):
            vtype = irt.F64
        elif isinstance(value, int):
            vtype = irt.I64
        else:
            vtype = irt.ptr(irt.I8)
    box = mo.allocate_value_object(vtype, "variadic argument")
    box.__class__ = mo.with_storage(type(box), "stack")
    box.write(0, vtype, value)
    return mo.Address(box, 0)


@intrinsic("get_vararg")
def _get_vararg(runtime, frame, args):
    index = to_signed(args[0], 32) if isinstance(args[0], int) else args[0]
    varargs = frame.varargs
    if index < 0 or index >= len(varargs):
        raise VarargsError(
            f"access to variadic argument {index} of {len(varargs)}",
            access="read")
    if frame.vararg_boxes is None:
        frame.vararg_boxes = [None] * len(varargs)
    box = frame.vararg_boxes[index]
    if box is None:
        box = _box_vararg(varargs[index])
        frame.vararg_boxes[index] = box
    return box


# ---------------------------------------------------------------------------
# Front-end support routines
# ---------------------------------------------------------------------------

@intrinsic("__sulong_zero_memory")
def _zero_memory(runtime, frame, args):
    address, size = args
    mo.check_not_null(address, "write")
    address.pointee.zero_range(address.offset, size)
    return None


@intrinsic("__sulong_copy_memory")
def _copy_memory(runtime, frame, args):
    dst, src, size = args
    if size == 0:
        return None
    mo.check_not_null(src, "read")
    mo.check_not_null(dst, "write")
    bits = src.pointee.read_bits(src.offset, size)
    dst.pointee.write_bits(dst.offset, size, bits)
    return None


# ---------------------------------------------------------------------------
# Process control
# ---------------------------------------------------------------------------

@intrinsic("exit")
@intrinsic("_Exit")
def _exit(runtime, frame, args):
    status = args[0] if args else 0
    raise ProgramExit(to_signed(status & 0xFFFFFFFF, 32)
                      if isinstance(status, int) else 0)


@intrinsic("abort")
def _abort(runtime, frame, args):
    raise ProgramCrash("abort() called")


@intrinsic("__sulong_assert_fail")
def _assert_fail(runtime, frame, args):
    expression = read_c_string(args[0]).decode("utf-8", "replace")
    filename = read_c_string(args[1]).decode("utf-8", "replace")
    line = to_signed(args[2], 32)
    raise ProgramCrash(f"assertion failed: {expression} "
                       f"({filename}:{line})")


# ---------------------------------------------------------------------------
# Byte-level I/O ("system calls")
# ---------------------------------------------------------------------------

@intrinsic("__sulong_write")
def _write(runtime, frame, args):
    fd, address, count = args
    fd = to_signed(fd, 32)
    data = read_bytes(address, count)
    if fd == 1:
        runtime.stdout.extend(data)
    elif fd == 2:
        runtime.stderr.extend(data)
    else:
        handle = runtime.files.get(fd)
        if handle is None or "w" not in handle["mode"]:
            return -1 & 0xFFFFFFFFFFFFFFFF
        handle["data"] += data
        handle["pos"] = len(handle["data"])
    cap = runtime.max_output_bytes
    if cap is not None:
        total = len(runtime.stdout) + len(runtime.stderr)
        if total <= cap and fd > 2:
            total += sum(len(h["data"]) for h in runtime.files.values())
        if total > cap:
            raise OutputQuotaExceeded(
                f"output quota exceeded: program wrote more than "
                f"{cap} bytes")
    return count


@intrinsic("__sulong_read")
def _read(runtime, frame, args):
    fd, address, count = args
    fd = to_signed(fd, 32)
    if fd == 0:
        available = runtime.stdin[runtime.stdin_pos:
                                  runtime.stdin_pos + count]
        runtime.stdin_pos += len(available)
        data = bytes(available)
    else:
        handle = runtime.files.get(fd)
        if handle is None:
            return -1 & 0xFFFFFFFFFFFFFFFF
        data = bytes(handle["data"][handle["pos"]:handle["pos"] + count])
        handle["pos"] += len(data)
    if data:
        write_bytes(address, data)
    return len(data)


@intrinsic("__sulong_open")
def _open(runtime, frame, args):
    path = read_c_string(args[0]).decode("utf-8", "replace")
    mode = read_c_string(args[1]).decode("utf-8", "replace")
    vfs = getattr(runtime, "vfs", None)
    if vfs is None:
        vfs = runtime.vfs = {}
    if "r" in mode and path not in vfs:
        return -1 & 0xFFFFFFFF
    if "w" in mode:
        vfs[path] = bytearray()
    fd = runtime.next_fd
    runtime.next_fd += 1
    runtime.files[fd] = {
        "path": path, "mode": mode,
        "data": vfs.setdefault(path, bytearray()), "pos": 0,
    }
    return fd


@intrinsic("__sulong_close")
def _close(runtime, frame, args):
    fd = to_signed(args[0], 32)
    runtime.files.pop(fd, None)
    return 0


_SEEK_SET, _SEEK_CUR, _SEEK_END = 0, 1, 2


@intrinsic("__sulong_lseek")
def _lseek(runtime, frame, args):
    fd = to_signed(args[0], 32)
    offset = to_signed(args[1], 64)
    whence = to_signed(args[2], 32)
    minus_one = (1 << 64) - 1
    if fd == 0:
        base = {_SEEK_SET: 0, _SEEK_CUR: runtime.stdin_pos,
                _SEEK_END: len(runtime.stdin)}.get(whence)
        if base is None:
            return minus_one
        position = base + offset
        if position < 0:
            return minus_one
        runtime.stdin_pos = position
        return position
    handle = runtime.files.get(fd)
    if handle is None:
        return minus_one
    base = {_SEEK_SET: 0, _SEEK_CUR: handle["pos"],
            _SEEK_END: len(handle["data"])}.get(whence)
    if base is None:
        return minus_one
    position = base + offset
    if position < 0:
        return minus_one
    handle["pos"] = position
    return position


@intrinsic("__sulong_remove")
def _remove(runtime, frame, args):
    path = read_c_string(args[0]).decode("utf-8", "replace")
    if path in runtime.vfs:
        del runtime.vfs[path]
        return 0
    return -1 & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Number formatting / parsing (printf & scanf support, §3.1)
# ---------------------------------------------------------------------------

def _emit_formatted(args, text: str) -> int:
    buffer_address, buffer_size = args[0], args[1]
    data = text.encode("ascii")
    usable = data[:max(buffer_size - 1, 0)]
    write_bytes(buffer_address, usable + b"\x00")
    return len(usable)


@intrinsic("__sulong_format_long")
def _format_long(runtime, frame, args):
    value, base, is_unsigned, uppercase = args[2:6]
    base = to_signed(base, 32)
    if not is_unsigned:
        value = to_signed(value, 64)
    if base == 10:
        text = str(value)
    elif base == 16:
        text = format(value & 0xFFFFFFFFFFFFFFFF, "X" if uppercase else "x")
    elif base == 8:
        text = format(value & 0xFFFFFFFFFFFFFFFF, "o")
    else:
        text = str(value)
    return _emit_formatted(args, text)


@intrinsic("__sulong_format_double")
def _format_double(runtime, frame, args):
    value, precision, style = args[2:5]
    precision = to_signed(precision, 32)
    style_char = chr(style & 0xFF)
    if precision < 0:
        precision = 6
    if style_char == "e":
        text = f"{value:.{precision}e}"
    elif style_char == "g":
        text = f"{value:.{precision if precision else 1}g}"
    else:
        text = f"{value:.{precision}f}"
    return _emit_formatted(args, text)


@intrinsic("__sulong_format_pointer")
def _format_pointer(runtime, frame, args):
    value = args[2]
    raw = runtime.space.address_of(value)
    text = "(nil)" if raw == 0 else f"0x{raw:x}"
    return _emit_formatted(args, text)


@intrinsic("__sulong_parse_double")
def _parse_double(runtime, frame, args):
    """strtod backend: parse a float prefix; returns the value and writes
    the number of consumed bytes through args[1] (an int pointer)."""
    text_address, consumed_out = args
    raw = bytearray()
    pointee = mo.check_not_null(text_address, "read").pointee
    offset = text_address.offset
    while True:
        byte = pointee.read(offset + len(raw), irt.I8)
        char = chr(byte)
        if char in " \t\n\r" and not raw:
            raw.append(byte)
            continue
        if char.isdigit() or char in "+-.eE" or char in "xXaAbBcCdDfF":
            raw.append(byte)
            continue
        break
    text = raw.decode("ascii", "replace")
    best_value = 0.0
    best_len = 0
    stripped = 0
    while stripped < len(text) and text[stripped] in " \t\n\r":
        stripped += 1
    for end in range(len(text), stripped, -1):
        try:
            best_value = float(text[stripped:end])
            best_len = end
            break
        except ValueError:
            continue
    if consumed_out is not None:
        consumed_out.pointee.write(consumed_out.offset, irt.I64, best_len)
    return best_value


# ---------------------------------------------------------------------------
# Math library
# ---------------------------------------------------------------------------

def _math1(name: str, fn):
    @intrinsic(name)
    def handler(runtime, frame, args, _fn=fn):
        try:
            return float(_fn(args[0]))
        except (ValueError, OverflowError):
            return math.nan
    return handler


def _math2(name: str, fn):
    @intrinsic(name)
    def handler(runtime, frame, args, _fn=fn):
        try:
            return float(_fn(args[0], args[1]))
        except (ValueError, OverflowError):
            return math.nan
    return handler


_math1("sqrt", math.sqrt)
_math1("sin", math.sin)
_math1("cos", math.cos)
_math1("tan", math.tan)
_math1("asin", math.asin)
_math1("acos", math.acos)
_math1("atan", math.atan)
_math1("sinh", math.sinh)
_math1("cosh", math.cosh)
_math1("tanh", math.tanh)
_math1("exp", math.exp)
_math1("log", math.log)
_math1("log2", math.log2)
_math1("log10", math.log10)
_math1("floor", math.floor)
_math1("ceil", math.ceil)
_math1("fabs", abs)
_math1("round", round)
_math1("trunc", math.trunc)
_math2("pow", math.pow)
_math2("atan2", math.atan2)
_math2("fmod", math.fmod)
_math2("hypot", math.hypot)
_math2("ldexp", lambda x, e: math.ldexp(x, int(e)))
_math2("fmin", min)
_math2("fmax", max)

_math1("sqrtf", math.sqrt)
_math1("sinf", math.sin)
_math1("cosf", math.cos)
_math1("fabsf", abs)
_math2("powf", math.pow)


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------

@intrinsic("time")
def _time(runtime, frame, args):
    # Deterministic time: the step counter scaled to "seconds".
    value = 1_500_000_000 + runtime.steps // 1_000_000
    if args and args[0] is not None:
        out = args[0]
        out.pointee.write(out.offset, irt.I64, value)
    return value


@intrinsic("clock")
def _clock(runtime, frame, args):
    return runtime.steps


@intrinsic("__sulong_steps")
def _steps(runtime, frame, args):
    return runtime.steps
