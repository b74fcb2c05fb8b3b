"""The native libc: "precompiled" builtins operating on flat memory.

This models the baseline tools' world (P4): libc is a binary blob the
compile-time instrumentation never sees.  Its accesses go through the
machine's hooked ``mem_*`` helpers, so *run-time* instrumentation
(memcheck) observes them — exactly as Valgrind instruments libc's machine
code — while ASan only checks what its interceptors explicitly wrap.

Variadic calls follow the native ABI model: the caller writes 8-byte
argument slots onto the simulated stack; ``printf`` et al. walk those slots
with no idea how many were actually passed.  A missing argument or a
``%ld`` reading a 4-byte slot silently consumes stale stack bytes (§4.1
cases 2 and 5).
"""

from __future__ import annotations

import math

from ..core.errors import ProgramCrash, ProgramExit
from ..ir import types as irt
from ..core.bits import to_signed
from .errors import NativeTrap

BUILTINS: dict[str, object] = {}


def builtin(name: str):
    def register(fn):
        BUILTINS[name] = fn
        return fn
    return register


def default_builtins() -> dict[str, object]:
    from . import nativestdio  # noqa: F401 — registers the stdio builtins
    return dict(BUILTINS)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def read_cstring(machine, address: int, loc=None) -> bytes:
    out = bytearray()
    for offset in range(1 << 20):
        byte = machine.mem_read_int(address + offset, 1, loc)
        if byte == 0:
            return bytes(out)
        out.append(byte)
    raise ProgramCrash("unterminated native string")


class _VaReader:
    """Walks 8-byte argument slots on the simulated stack, obliviously."""

    __slots__ = ("machine", "cursor", "loc")

    def __init__(self, machine, base: int, loc=None):
        self.machine = machine
        self.cursor = base
        self.loc = loc

    def next_int(self, size: int) -> int:
        value = self.machine.mem_read_int(self.cursor, size, self.loc)
        self.cursor += 8
        return value

    def next_double(self) -> float:
        value = self.machine.mem_read_float(self.cursor, 8, self.loc)
        self.cursor += 8
        return value

    def next_pointer(self) -> int:
        value = self.machine.mem_read_int(self.cursor, 8, self.loc)
        self.cursor += 8
        return value


def _setup_va(machine, extra: list) -> tuple[int, int]:
    """Write variadic arguments as stack slots (the call ABI); returns
    (va_base, saved_sp).  Only each value's own bytes are written — the
    rest of the slot keeps stale stack content."""
    saved_sp = machine.sp
    if extra:
        machine.sp -= 8 * len(extra)
    base = machine.sp
    for i, entry in enumerate(extra):
        value, vtype = entry if isinstance(entry, tuple) else (entry,
                                                               irt.I64)
        slot = base + 8 * i
        if isinstance(vtype, irt.FloatType):
            machine.memory.store_float(slot, 8, float(value))
        elif isinstance(vtype, irt.PointerType):
            machine.memory.store_int(slot, 8, value or 0)
        else:
            machine.memory.store_int(slot, min(vtype.size, 8), value or 0)
        # The slot is an 8-byte register spill: run-time instrumentation
        # sees the whole slot as written (the value bytes are the value,
        # the rest is whatever the register held).
        machine.tool.on_write(machine, slot, 8, None)
    return base, saved_sp


# ---------------------------------------------------------------------------
# allocation
# ---------------------------------------------------------------------------

@builtin("malloc")
def _malloc(machine, frame, args):
    address = machine.allocator.malloc(args[0])
    if address:
        machine.tool.on_malloc(machine, address, args[0], zeroed=False)
    return address


@builtin("calloc")
def _calloc(machine, frame, args):
    size = args[0] * args[1]
    address = machine.allocator.malloc(size)
    if address:
        machine.memory.store_bytes(address, b"\x00" * size)
        machine.tool.on_malloc(machine, address, size, zeroed=True)
    return address


@builtin("realloc")
def _realloc(machine, frame, args):
    old, new_size = args
    if old == 0:
        return _malloc(machine, frame, [new_size])
    old_size = machine.allocator.usable_size(old)
    new = machine.allocator.malloc(new_size)
    if new:
        copy = min(old_size, new_size)
        machine.memory.store_bytes(new, machine.memory.load_bytes(old,
                                                                  copy))
        machine.tool.on_malloc(machine, new, new_size, zeroed=False)
    machine.tool.on_free(machine, old, machine.current_loc)
    machine.allocator.free(old)
    return new


@builtin("free")
def _free(machine, frame, args):
    machine.tool.on_free(machine, args[0], machine.current_loc)
    machine.allocator.free(args[0])
    return None


# ---------------------------------------------------------------------------
# process control
# ---------------------------------------------------------------------------

@builtin("exit")
@builtin("_Exit")
def _exit(machine, frame, args):
    raise ProgramExit(args[0] if args else 0)


@builtin("abort")
def _abort(machine, frame, args):
    raise NativeTrap("SIGABRT: abort() called")


@builtin("__sulong_assert_fail")
def _assert_fail(machine, frame, args):
    expression = read_cstring(machine, args[0]).decode("ascii", "replace")
    raise NativeTrap(f"SIGABRT: assertion failed: {expression}")


@builtin("atexit")
def _atexit(machine, frame, args):
    return 0  # handlers are not run on the native model (simplification)


@builtin("getenv")
def _getenv(machine, frame, args):
    return 0


# ---------------------------------------------------------------------------
# memory / string functions
# ---------------------------------------------------------------------------

@builtin("__sulong_zero_memory")
def _zero_memory(machine, frame, args):
    address, size = args
    machine.mem_write_bytes(address, b"\x00" * size, machine.current_loc)
    return None


@builtin("__sulong_copy_memory")
def _copy_memory(machine, frame, args):
    dst, src, size = args
    data = machine.mem_read_bytes(src, size, machine.current_loc)
    machine.mem_write_bytes(dst, data, machine.current_loc)
    return None


@builtin("memcpy")
def _memcpy(machine, frame, args):
    dst, src, n = args
    if n:
        data = machine.mem_read_bytes(src, n, machine.current_loc)
        machine.mem_write_bytes(dst, data, machine.current_loc)
    return dst


@builtin("memmove")
def _memmove(machine, frame, args):
    return _memcpy(machine, frame, args)


@builtin("memset")
def _memset(machine, frame, args):
    dst, value, n = args
    if n:
        machine.mem_write_bytes(dst, bytes([value & 0xFF]) * n,
                                machine.current_loc)
    return dst


@builtin("memcmp")
def _memcmp(machine, frame, args):
    a, b, n = args
    loc = machine.current_loc
    for i in range(n):
        x = machine.mem_read_int(a + i, 1, loc)
        y = machine.mem_read_int(b + i, 1, loc)
        if x != y:
            return (x - y) & 0xFFFFFFFF
    return 0


@builtin("memchr")
def _memchr(machine, frame, args):
    address, value, n = args
    loc = machine.current_loc
    for i in range(n):
        if machine.mem_read_int(address + i, 1, loc) == (value & 0xFF):
            return address + i
    return 0


@builtin("strlen")
def _strlen(machine, frame, args):
    return len(read_cstring(machine, args[0], machine.current_loc))


@builtin("strcpy")
def _strcpy(machine, frame, args):
    dst, src = args
    data = read_cstring(machine, src, machine.current_loc) + b"\x00"
    machine.mem_write_bytes(dst, data, machine.current_loc)
    return dst


@builtin("strncpy")
def _strncpy(machine, frame, args):
    dst, src, n = args
    loc = machine.current_loc
    data = bytearray()
    for i in range(n):
        byte = machine.mem_read_int(src + i, 1, loc)
        data.append(byte)
        if byte == 0:
            break
    while len(data) < n:
        data.append(0)
    machine.mem_write_bytes(dst, bytes(data[:n]), loc)
    return dst


@builtin("strcat")
def _strcat(machine, frame, args):
    dst, src = args
    loc = machine.current_loc
    base = len(read_cstring(machine, dst, loc))
    data = read_cstring(machine, src, loc) + b"\x00"
    machine.mem_write_bytes(dst + base, data, loc)
    return dst


@builtin("strncat")
def _strncat(machine, frame, args):
    dst, src, n = args
    loc = machine.current_loc
    base = len(read_cstring(machine, dst, loc))
    data = read_cstring(machine, src, loc)[:n] + b"\x00"
    machine.mem_write_bytes(dst + base, data, loc)
    return dst


@builtin("strcmp")
def _strcmp(machine, frame, args):
    loc = machine.current_loc
    a, b = args
    i = 0
    while True:
        x = machine.mem_read_int(a + i, 1, loc)
        y = machine.mem_read_int(b + i, 1, loc)
        if x != y or x == 0:
            return (x - y) & 0xFFFFFFFF
        i += 1


@builtin("strncmp")
def _strncmp(machine, frame, args):
    loc = machine.current_loc
    a, b, n = args
    for i in range(n):
        x = machine.mem_read_int(a + i, 1, loc)
        y = machine.mem_read_int(b + i, 1, loc)
        if x != y or x == 0:
            return (x - y) & 0xFFFFFFFF
    return 0


@builtin("strcasecmp")
def _strcasecmp(machine, frame, args):
    loc = machine.current_loc
    a, b = args
    i = 0
    while True:
        x = machine.mem_read_int(a + i, 1, loc)
        y = machine.mem_read_int(b + i, 1, loc)
        lx = x + 32 if 65 <= x <= 90 else x
        ly = y + 32 if 65 <= y <= 90 else y
        if lx != ly or lx == 0:
            return (lx - ly) & 0xFFFFFFFF
        i += 1


@builtin("strchr")
def _strchr(machine, frame, args):
    address, value = args
    loc = machine.current_loc
    target = value & 0xFF
    i = 0
    while True:
        byte = machine.mem_read_int(address + i, 1, loc)
        if byte == target:
            return address + i
        if byte == 0:
            return 0
        i += 1


@builtin("strrchr")
def _strrchr(machine, frame, args):
    address, value = args
    data = read_cstring(machine, address, machine.current_loc)
    target = value & 0xFF
    if target == 0:
        return address + len(data)
    index = data.rfind(bytes([target]))
    return address + index if index >= 0 else 0


@builtin("strstr")
def _strstr(machine, frame, args):
    loc = machine.current_loc
    haystack = read_cstring(machine, args[0], loc)
    needle = read_cstring(machine, args[1], loc)
    index = haystack.find(needle)
    return args[0] + index if index >= 0 else 0


@builtin("strtok")
def _strtok(machine, frame, args):
    """Stateful strtok scanning raw memory — no interceptor checks this
    (ASan gained one only after the paper's report, §4.1 case 2)."""
    address, delim_ptr = args
    loc = machine.current_loc
    if address == 0:
        address = getattr(machine, "_strtok_state", 0)
        if address == 0:
            return 0
    # Read the delimiter set byte-by-byte; an unterminated delimiter
    # array silently includes stale neighbouring bytes (Figure 11).
    delims = read_cstring(machine, delim_ptr, loc)
    i = address
    while True:
        byte = machine.mem_read_int(i, 1, loc)
        if byte == 0:
            machine._strtok_state = 0
            return 0
        if byte not in delims:
            break
        i += 1
    start = i
    while True:
        byte = machine.mem_read_int(i, 1, loc)
        if byte == 0:
            machine._strtok_state = 0
            return start
        if byte in delims:
            machine.mem_write_int(i, 1, 0, loc)
            machine._strtok_state = i + 1
            return start
        i += 1


@builtin("strdup")
def _strdup(machine, frame, args):
    data = read_cstring(machine, args[0], machine.current_loc) + b"\x00"
    address = machine.allocator.malloc(len(data))
    if address:
        machine.tool.on_malloc(machine, address, len(data), zeroed=False)
        machine.mem_write_bytes(address, data, machine.current_loc)
    return address


@builtin("strspn")
def _strspn(machine, frame, args):
    loc = machine.current_loc
    text = read_cstring(machine, args[0], loc)
    accept = read_cstring(machine, args[1], loc)
    n = 0
    while n < len(text) and text[n] in accept:
        n += 1
    return n


@builtin("strcspn")
def _strcspn(machine, frame, args):
    loc = machine.current_loc
    text = read_cstring(machine, args[0], loc)
    reject = read_cstring(machine, args[1], loc)
    n = 0
    while n < len(text) and text[n] not in reject:
        n += 1
    return n


@builtin("strpbrk")
def _strpbrk(machine, frame, args):
    loc = machine.current_loc
    text = read_cstring(machine, args[0], loc)
    accept = read_cstring(machine, args[1], loc)
    for i, byte in enumerate(text):
        if byte in accept:
            return args[0] + i
    return 0


@builtin("strerror")
def _strerror(machine, frame, args):
    return machine.global_addresses.get("__native_strerror_buf", 0) or \
        _intern_string(machine, b"Unknown error")


def _intern_string(machine, data: bytes) -> int:
    cache = getattr(machine, "_interned", None)
    if cache is None:
        cache = machine._interned = {}
    address = cache.get(data)
    if address is None:
        address = machine.allocator.malloc(len(data) + 1)
        machine.memory.store_bytes(address, data + b"\x00")
        cache[data] = address
    return address


# ---------------------------------------------------------------------------
# conversions, PRNG, qsort
# ---------------------------------------------------------------------------

def _parse_long(text: bytes, base: int) -> tuple[int, int]:
    i = 0
    while i < len(text) and text[i:i + 1] in b" \t\n\r":
        i += 1
    sign = 1
    if i < len(text) and text[i:i + 1] in b"+-":
        sign = -1 if text[i:i + 1] == b"-" else 1
        i += 1
    if base in (0, 16) and text[i:i + 2].lower() == b"0x":
        i += 2
        base = 16
    elif base == 0 and text[i:i + 1] == b"0":
        base = 8
    elif base == 0:
        base = 10
    digits = b"0123456789abcdefghijklmnopqrstuvwxyz"[:base]
    value = 0
    start = i
    while i < len(text) and text[i:i + 1].lower() in digits:
        value = value * base + digits.index(text[i:i + 1].lower())
        i += 1
    if i == start:
        i = 0
    return sign * value, i


@builtin("atoi")
def _atoi(machine, frame, args):
    value, _ = _parse_long(read_cstring(machine, args[0],
                                        machine.current_loc), 10)
    return value & 0xFFFFFFFF


@builtin("atol")
def _atol(machine, frame, args):
    value, _ = _parse_long(read_cstring(machine, args[0],
                                        machine.current_loc), 10)
    return value & 0xFFFFFFFFFFFFFFFF


@builtin("strtol")
def _strtol(machine, frame, args):
    address, end_ptr, base = args
    text = read_cstring(machine, address, machine.current_loc)
    value, consumed = _parse_long(text, to_signed(base, 32))
    if end_ptr:
        machine.mem_write_int(end_ptr, 8, address + consumed,
                              machine.current_loc)
    return value & 0xFFFFFFFFFFFFFFFF


@builtin("strtoul")
def _strtoul(machine, frame, args):
    return _strtol(machine, frame, args)


def _parse_double(text: bytes) -> tuple[float, int]:
    i = 0
    while i < len(text) and text[i:i + 1] in b" \t\n\r":
        i += 1
    best = 0.0
    best_end = 0
    for end in range(len(text), i, -1):
        try:
            best = float(text[i:end])
            best_end = end
            break
        except ValueError:
            continue
    return best, best_end


@builtin("strtod")
def _strtod(machine, frame, args):
    address, end_ptr = args
    text = read_cstring(machine, address, machine.current_loc)
    value, consumed = _parse_double(text)
    if end_ptr:
        machine.mem_write_int(end_ptr, 8, address + consumed,
                              machine.current_loc)
    return value


@builtin("atof")
def _atof(machine, frame, args):
    value, _ = _parse_double(read_cstring(machine, args[0],
                                          machine.current_loc))
    return value


@builtin("abs")
def _abs(machine, frame, args):
    return abs(to_signed(args[0], 32)) & 0xFFFFFFFF


@builtin("labs")
def _labs(machine, frame, args):
    return abs(to_signed(args[0], 64)) & 0xFFFFFFFFFFFFFFFF


@builtin("rand")
def _rand(machine, frame, args):
    state = getattr(machine, "_rand_state", 1)
    state = (state * 6364136223846793005 + 1442695040888963407) \
        & 0xFFFFFFFFFFFFFFFF
    machine._rand_state = state
    return (state >> 33) & 0x7FFFFFFF


@builtin("srand")
def _srand(machine, frame, args):
    machine._rand_state = args[0]
    return None


@builtin("qsort")
def _qsort(machine, frame, args):
    base, count, size, compare = args
    loc = machine.current_loc

    def key_swap(i: int, j: int) -> None:
        a = machine.mem_read_bytes(base + i * size, size, loc)
        b = machine.mem_read_bytes(base + j * size, size, loc)
        machine.mem_write_bytes(base + i * size, b, loc)
        machine.mem_write_bytes(base + j * size, a, loc)

    def cmp(i: int, j: int) -> int:
        result = machine.call_address(compare,
                                      [base + i * size, base + j * size])
        return to_signed(result & 0xFFFFFFFF, 32)

    # Insertion sort: quadratic but simple and allocation-free.
    for i in range(1, count):
        j = i
        while j > 0 and cmp(j, j - 1) < 0:
            key_swap(j, j - 1)
            j -= 1
    return None


@builtin("bsearch")
def _bsearch(machine, frame, args):
    key, base, count, size, compare = args
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        probe = base + mid * size
        order = to_signed(machine.call_address(compare, [key, probe])
                          & 0xFFFFFFFF, 32)
        if order == 0:
            return probe
        if order < 0:
            hi = mid
        else:
            lo = mid + 1
    return 0


# ---------------------------------------------------------------------------
# math
# ---------------------------------------------------------------------------

def _math1(name: str, fn):
    @builtin(name)
    def handler(machine, frame, args, _fn=fn):
        try:
            return float(_fn(args[0]))
        except (ValueError, OverflowError):
            return math.nan


def _math2(name: str, fn):
    @builtin(name)
    def handler(machine, frame, args, _fn=fn):
        try:
            return float(_fn(args[0], args[1]))
        except (ValueError, OverflowError):
            return math.nan


for _name, _fn in [
    ("sqrt", math.sqrt), ("sin", math.sin), ("cos", math.cos),
    ("tan", math.tan), ("asin", math.asin), ("acos", math.acos),
    ("atan", math.atan), ("sinh", math.sinh), ("cosh", math.cosh),
    ("tanh", math.tanh), ("exp", math.exp), ("log", math.log),
    ("log2", math.log2), ("log10", math.log10), ("floor", math.floor),
    ("ceil", math.ceil), ("fabs", abs), ("round", round),
    ("trunc", math.trunc), ("sqrtf", math.sqrt), ("sinf", math.sin),
    ("cosf", math.cos), ("fabsf", abs),
]:
    _math1(_name, _fn)

for _name, _fn in [
    ("pow", math.pow), ("atan2", math.atan2), ("fmod", math.fmod),
    ("hypot", math.hypot), ("fmin", min), ("fmax", max),
    ("powf", math.pow), ("ldexp", lambda x, e: math.ldexp(x, int(e))),
]:
    _math2(_name, _fn)


@builtin("time")
def _time(machine, frame, args):
    value = 1_500_000_000 + machine.steps // 1_000_000
    if args and args[0]:
        machine.mem_write_int(args[0], 8, value, machine.current_loc)
    return value


@builtin("clock")
def _clock(machine, frame, args):
    return machine.steps


@builtin("__native_va_area")
def _va_area(machine, frame, args):
    return frame.va_base


# ---------------------------------------------------------------------------
# ctype and remaining string/stdlib functions
# ---------------------------------------------------------------------------

def _ctype1(name: str, predicate):
    @builtin(name)
    def handler(machine, frame, args, _p=predicate):
        return 1 if _p(to_signed(args[0], 32)) else 0


for _name, _p in [
    ("isdigit", lambda c: 48 <= c <= 57),
    ("isupper", lambda c: 65 <= c <= 90),
    ("islower", lambda c: 97 <= c <= 122),
    ("isalpha", lambda c: 65 <= c <= 90 or 97 <= c <= 122),
    ("isalnum", lambda c: 48 <= c <= 57 or 65 <= c <= 90
        or 97 <= c <= 122),
    ("isspace", lambda c: c in (32, 9, 10, 13, 12, 11)),
    ("isprint", lambda c: 32 <= c < 127),
    ("isgraph", lambda c: 32 < c < 127),
    ("iscntrl", lambda c: 0 <= c < 32 or c == 127),
    ("ispunct", lambda c: 32 < c < 127 and not (
        48 <= c <= 57 or 65 <= c <= 90 or 97 <= c <= 122)),
    ("isxdigit", lambda c: 48 <= c <= 57 or 65 <= c <= 70
        or 97 <= c <= 102),
    ("isblank", lambda c: c in (32, 9)),
]:
    _ctype1(_name, _p)


@builtin("toupper")
def _toupper(machine, frame, args):
    c = to_signed(args[0], 32)
    return (c - 32) & 0xFFFFFFFF if 97 <= c <= 122 else c & 0xFFFFFFFF


@builtin("tolower")
def _tolower(machine, frame, args):
    c = to_signed(args[0], 32)
    return (c + 32) & 0xFFFFFFFF if 65 <= c <= 90 else c & 0xFFFFFFFF


@builtin("strnlen")
def _strnlen(machine, frame, args):
    address, maximum = args
    loc = machine.current_loc
    for i in range(maximum):
        if machine.mem_read_int(address + i, 1, loc) == 0:
            return i
    return maximum


@builtin("strncasecmp")
def _strncasecmp(machine, frame, args):
    a, b, n = args
    loc = machine.current_loc
    for i in range(n):
        x = machine.mem_read_int(a + i, 1, loc)
        y = machine.mem_read_int(b + i, 1, loc)
        if 65 <= x <= 90:
            x += 32
        if 65 <= y <= 90:
            y += 32
        if x != y or x == 0:
            return (x - y) & 0xFFFFFFFF
    return 0


@builtin("llabs")
def _llabs(machine, frame, args):
    return abs(to_signed(args[0], 64)) & 0xFFFFFFFFFFFFFFFF


@builtin("strerror")
def _strerror_override(machine, frame, args):
    return _intern_string(machine, b"Unknown error")
