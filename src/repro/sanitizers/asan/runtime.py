"""The ASan runtime: shadow state, redzone'd allocation, quarantine, the
check entry points the instrumentation calls, and the interceptors.

Faithful to the state of the tool the paper evaluated (2017):

* the loader-written ``argv``/``envp`` area is never instrumented
  (§4.1 case 1);
* there is **no strtok interceptor** unless ``intercept_strtok=True`` —
  that flag models the fix the paper's authors contributed to LLVM;
* the printf interceptor checks only *pointer* arguments (case 2);
* zero-initialized globals ("common" symbols) are only instrumented when
  ``fno_common=True`` (the paper had to pass ``-fno-common``);
* redzones are finite and freed memory leaves quarantine eventually (P3).
"""

from __future__ import annotations

from collections import deque

from ...core.errors import (DoubleFreeError, InvalidFreeError,
                            OutOfBoundsError, UseAfterFreeError)
from ...core.interpreter import _located
from ...native.machine import Tool
from . import shadow as sh


class AsanError(Exception):
    """Internal marker; never leaves this module."""


_ERROR_CLASSES = {
    sh.HEAP_REDZONE: (OutOfBoundsError, "heap"),
    sh.HEAP_FREED: (UseAfterFreeError, "heap"),
    sh.STACK_REDZONE: (OutOfBoundsError, "stack"),
    sh.GLOBAL_REDZONE: (OutOfBoundsError, "global"),
    sh.HEAP_UNALLOCATED: (OutOfBoundsError, "heap"),
}


class AsanTool(Tool):
    """Attachable runtime for ASan-instrumented modules."""

    name = "asan"

    GLOBAL_REDZONE_SIZE = 16
    STACK_REDZONE_SIZE = 16

    def __init__(self, fno_common: bool = False,
                 intercept_strtok: bool = False,
                 quarantine_bytes: int = 1 << 18,
                 redzone: int = 16):
        self.shadow = sh.ShadowMemory()
        self.fno_common = fno_common
        self.intercept_strtok = intercept_strtok
        self.quarantine_bytes = quarantine_bytes
        self.redzone = redzone
        self.quarantine: deque[tuple[int, int]] = deque()
        self.quarantine_used = 0
        self.allocated: dict[int, int] = {}  # address -> user size

    # -- startup: poison global redzones ------------------------------------

    def on_startup(self, machine) -> None:
        rz = self.GLOBAL_REDZONE_SIZE
        for name, address in machine.global_addresses.items():
            gvar = machine.module.globals.get(name)
            if gvar is None:
                continue
            if gvar.zero_initialized and not self.fno_common:
                # Common symbols are not instrumented by default.
                continue
            size = machine.global_sizes[name]
            self.shadow.poison(address + size, rz, sh.GLOBAL_REDZONE)
            self.shadow.poison(address - rz, rz, sh.GLOBAL_REDZONE)

    def reset(self, machine) -> None:
        self.shadow.reset()
        self.quarantine.clear()
        self.quarantine_used = 0
        self.allocated.clear()
        self.on_startup(machine)

    def on_malloc(self, machine, address: int, size: int,
                  zeroed: bool) -> None:
        """Direct allocator use by the loader/builtins (stdio FILE
        blocks): make the block addressable in the shadow."""
        self.shadow.unpoison(address, size)

    # -- the check the instrumentation calls ----------------------------------

    def check(self, machine, address: int, size: int, is_write: bool,
              loc=None) -> None:
        code = self.shadow.first_poisoned(address, max(size, 1))
        if code is None:
            return
        error_class, memory_kind = _ERROR_CLASSES[code]
        access = "write" if is_write else "read"
        raise _located(error_class(
            f"AddressSanitizer: {sh.poison_kind_name(code)} on {access} of "
            f"{size} bytes at 0x{address:x}",
            access=access, memory_kind=memory_kind, size=size), loc)

    def check_range(self, machine, address: int, size: int, is_write: bool,
                    loc=None) -> None:
        if size > 0:
            self.check(machine, address, size, is_write, loc)

    # -- allocation ---------------------------------------------------------------

    def asan_malloc(self, machine, size: int, zeroed: bool) -> int:
        block = machine.allocator.malloc(size + 2 * self.redzone)
        if block == 0:
            return 0
        user = block + self.redzone
        self.shadow.poison(block, self.redzone, sh.HEAP_REDZONE)
        self.shadow.unpoison(user, size)
        self.shadow.poison(user + size, self.redzone, sh.HEAP_REDZONE)
        if zeroed:
            machine.memory.store_bytes(user, b"\x00" * size)
        self.allocated[user] = size
        return user

    def asan_free(self, machine, address: int, loc=None) -> None:
        if address == 0:
            return
        size = self.allocated.get(address)
        if size is None:
            if any(start <= address < start + size_
                   for start, size_ in self._quarantine_blocks()):
                raise _located(DoubleFreeError(
                    f"AddressSanitizer: attempting double-free on "
                    f"0x{address:x}", access="free", memory_kind="heap"),
                    loc)
            raise _located(InvalidFreeError(
                f"AddressSanitizer: attempting free on address which "
                f"was not malloc()-ed: 0x{address:x}", access="free"), loc)
        del self.allocated[address]
        self.shadow.poison(address, size, sh.HEAP_FREED)
        self.quarantine.append((address, size))
        self.quarantine_used += size
        while self.quarantine_used > self.quarantine_bytes \
                and self.quarantine:
            old_address, old_size = self.quarantine.popleft()
            self.quarantine_used -= old_size
            # Leaving quarantine: the block becomes reusable, and a stale
            # pointer to it goes undetected from now on (P3).
            machine.allocator.free(old_address - self.redzone)

    def _quarantine_blocks(self):
        return list(self.quarantine)

    # -- stack frames ------------------------------------------------------------

    def asan_alloca(self, machine, size: int, align: int) -> int:
        rz = self.STACK_REDZONE_SIZE
        block = machine.stack_alloc(size + 2 * rz, max(align, 16))
        user = block + rz
        self.shadow.poison(block, rz, sh.STACK_REDZONE)
        self.shadow.unpoison(user, size)
        self.shadow.poison(user + size, rz, sh.STACK_REDZONE)
        return user

    def on_stack_restore(self, machine, low: int, high: int) -> None:
        if high > low:
            self.shadow.unpoison(low, high - low)

    # -- interceptors --------------------------------------------------------------

    def wrap_builtins(self, builtins: dict) -> dict:
        wrapped = dict(builtins)
        tool = self

        def malloc(machine, frame, args):
            return tool.asan_malloc(machine, args[0], zeroed=False)

        def calloc(machine, frame, args):
            return tool.asan_malloc(machine, args[0] * args[1], zeroed=True)

        def realloc(machine, frame, args):
            old, new_size = args
            if old == 0:
                return tool.asan_malloc(machine, new_size, zeroed=False)
            old_size = tool.allocated.get(old, 0)
            new = tool.asan_malloc(machine, new_size, zeroed=False)
            if new:
                copy = min(old_size, new_size)
                machine.memory.store_bytes(
                    new, machine.memory.load_bytes(old, copy))
            tool.asan_free(machine, old, machine.current_loc)
            return new

        def free(machine, frame, args):
            tool.asan_free(machine, args[0], machine.current_loc)
            return None

        wrapped["malloc"] = malloc
        wrapped["calloc"] = calloc
        wrapped["realloc"] = realloc
        wrapped["free"] = free

        # Entry points called by the compile-time instrumentation.
        def asan_check(machine, frame, args):
            tool.check(machine, args[0], args[1], bool(args[2]),
                       machine.current_loc)
            return None

        def asan_alloca(machine, frame, args):
            return tool.asan_alloca(machine, args[0], args[1])

        wrapped["__asan_check"] = asan_check
        wrapped["__asan_alloca"] = asan_alloca

        def checked_string(machine, address, loc):
            cursor = address
            for _ in range(1 << 20):
                tool.check(machine, cursor, 1, False, loc)
                if machine.memory.load_int(cursor, 1) == 0:
                    return cursor - address
                cursor += 1
            return 0

        def intercept(name, checker):
            original = builtins[name]

            def wrapper(machine, frame, args, _original=original,
                        _checker=checker):
                _checker(machine, args, machine.current_loc)
                return _original(machine, frame, args)
            wrapped[name] = wrapper

        # The 2017-era interceptor list: common mem/str functions, but NOT
        # strtok (§4.1 case 2) and only pointer args in printf.
        def check_strcat(machine, args, loc):
            dst_len = checked_string(machine, args[0], loc)
            src_len = checked_string(machine, args[1], loc)
            tool.check_range(machine, args[0] + dst_len, src_len + 1,
                             True, loc)

        intercept("strlen",
                  lambda m, a, l: checked_string(m, a[0], l))
        intercept("strcpy",
                  lambda m, a, l: tool.check_range(
                      m, a[0], checked_string(m, a[1], l) + 1, True, l))
        intercept("strcat", check_strcat)
        intercept("memcpy",
                  lambda m, a, l: (tool.check_range(m, a[1], a[2], False,
                                                    l),
                                   tool.check_range(m, a[0], a[2], True,
                                                    l)))
        intercept("memmove",
                  lambda m, a, l: (tool.check_range(m, a[1], a[2], False,
                                                    l),
                                   tool.check_range(m, a[0], a[2], True,
                                                    l)))
        intercept("memset",
                  lambda m, a, l: tool.check_range(m, a[0], a[2], True, l))
        intercept("strdup",
                  lambda m, a, l: checked_string(m, a[0], l))
        intercept("strncpy",
                  lambda m, a, l: tool.check_range(m, a[0], a[2], True, l))
        intercept("gets",
                  lambda m, a, l: tool.check(m, a[0], 1, True, l))
        if self.intercept_strtok:
            intercept("strtok",
                      lambda m, a, l: (checked_string(m, a[0], l)
                                       if a[0] else None,
                                       checked_string(m, a[1], l)))
        return wrapped
