"""Memcheck: run-time (binary-level) instrumentation, Valgrind style.

Hooks *every* memory access the native machine performs — user code and
the builtin libc alike, just as Valgrind instruments all machine code —
but has only heap knowledge:

* addressability (A-bits) exists only for malloc'd blocks, with redzones
  and a reuse quarantine → heap OOB/UAF are caught, stack and global OOB
  are invisible (§4.1, "Valgrind reliably detects only out-of-bounds
  accesses to the heap");
* definedness (V-bits) per byte: reads of never-written memory are
  reported.  Because stale bytes written by *earlier* frames count as
  defined, this catches only some stack OOB reads — the unreliability the
  paper measured (14 of 31);
* free() is intercepted, so double/invalid frees are caught.

Unlike ASan, memcheck reports errors and *continues* (Valgrind behaviour);
reports accumulate on the tool and are attached to the run result.
"""

from __future__ import annotations

from collections import deque

from ...core.errors import (BugKind, BugReport, DoubleFreeError,
                            InvalidFreeError)
from ...native import memory as layout
from ...native.machine import Tool

_A_UNADDRESSABLE = 0
_A_ADDRESSABLE = 1


class MemcheckTool(Tool):
    name = "memcheck"

    REDZONE = 16
    QUARANTINE_BLOCKS = 1024

    def __init__(self, track_uninitialized: bool = True):
        self.reports: list[BugReport] = []
        self._reported: set = set()
        self.track_uninitialized = track_uninitialized
        self.quarantine: deque[int] = deque()
        self.allocated: dict[int, int] = {}
        self.freed: dict[int, int] = {}
        # A-bits for the heap region only.
        heap_size = layout.HEAP_END - layout.HEAP_BASE
        self.heap_a = bytearray(heap_size)
        # V-bits for everything: 1 = has been written / statically
        # initialized.
        self.v_bits = bytearray(layout.MEMORY_SIZE)

    def reset(self, machine) -> None:
        self.quarantine.clear()
        self.allocated.clear()
        self.freed.clear()
        self.heap_a[:] = b"\x00" * len(self.heap_a)
        self.v_bits[:] = b"\x00" * len(self.v_bits)
        self.on_startup(machine)

    def on_startup(self, machine) -> None:
        # Globals and the loader-written argv area start defined.
        self.v_bits[layout.GLOBALS_BASE:layout.GLOBALS_END] = \
            b"\x01" * (layout.GLOBALS_END - layout.GLOBALS_BASE)
        self.v_bits[layout.ARGV_BASE:layout.MEMORY_SIZE] = \
            b"\x01" * (layout.MEMORY_SIZE - layout.ARGV_BASE)

    # -- reporting ------------------------------------------------------------

    def _report(self, kind: str, message: str, access: str,
                memory_kind: str | None, loc) -> None:
        key = (kind, access, str(loc))
        if key in self._reported:
            return
        self._reported.add(key)
        self.reports.append(BugReport(
            kind, f"Memcheck: {message}", access=access,
            memory_kind=memory_kind, location=loc, detector="memcheck"))

    # -- access hooks ------------------------------------------------------------

    def on_malloc(self, machine, address: int, size: int,
                  zeroed: bool) -> None:
        """Direct allocator use by the loader/builtins (e.g. the stdio
        FILE blocks): mark addressable."""
        base = address - layout.HEAP_BASE
        self.heap_a[base:base + size] = b"\x01" * size
        fill = b"\x01" if zeroed else b"\x00"
        self.v_bits[address:address + size] = fill * size
        self.allocated.setdefault(address, size)

    def on_stack_alloc(self, machine, address: int, size: int) -> None:
        # Valgrind tracks SP: a freshly allocated frame slot is undefined
        # even if stale data from an earlier call lives there.
        self.v_bits[address:address + size] = b"\x00" * size

    def on_read(self, machine, address: int, size: int, loc) -> None:
        # Bit-precise tracking: memcheck inspects A- and V-state per byte
        # of every access it dynamically instruments — this per-byte work
        # is exactly where Valgrind's order-of-magnitude slowdown comes
        # from (§4.3).
        if layout.HEAP_BASE <= address < layout.HEAP_END:
            heap_a = self.heap_a
            base = address - layout.HEAP_BASE
            for i in range(size):
                if heap_a[base + i] == _A_UNADDRESSABLE:
                    kind, message = self._heap_error(address, size, "read")
                    self._report(kind, message, "read", "heap", loc)
                    return
        if self.track_uninitialized \
                and layout.STACK_LIMIT <= address < layout.STACK_TOP:
            v_bits = self.v_bits
            for i in range(size):
                if not v_bits[address + i]:
                    self._report(
                        BugKind.UNINITIALIZED_READ,
                        f"use of uninitialised value of size {size} at "
                        f"0x{address:x}", "read", "stack", loc)
                    return

    def on_write(self, machine, address: int, size: int, loc) -> None:
        if layout.HEAP_BASE <= address < layout.HEAP_END:
            heap_a = self.heap_a
            base = address - layout.HEAP_BASE
            for i in range(size):
                if heap_a[base + i] == _A_UNADDRESSABLE:
                    kind, message = self._heap_error(address, size,
                                                     "write")
                    self._report(kind, message, "write", "heap", loc)
                    break
        v_bits = self.v_bits
        for i in range(size):
            v_bits[address + i] = 1

    def _heap_error(self, address: int, size: int,
                    access: str) -> tuple[str, str]:
        for start, block_size in self.freed.items():
            if start - self.REDZONE <= address < start + block_size \
                    + self.REDZONE:
                return (BugKind.USE_AFTER_FREE,
                        f"invalid {access} of size {size}: address "
                        f"0x{address:x} is inside a block free'd")
        for start, block_size in self.allocated.items():
            if start - self.REDZONE <= address < start + block_size \
                    + self.REDZONE:
                return (BugKind.OUT_OF_BOUNDS,
                        f"invalid {access} of size {size}: address "
                        f"0x{address:x} is {address - start - block_size} "
                        f"bytes after a block of size {block_size} alloc'd")
        return (BugKind.OUT_OF_BOUNDS,
                f"invalid {access} of size {size} at 0x{address:x}: "
                f"address is not stack'd, malloc'd or free'd")

    # -- allocation hooks ----------------------------------------------------------

    def wrap_builtins(self, builtins: dict) -> dict:
        wrapped = dict(builtins)
        tool = self

        def malloc(machine, frame, args):
            return tool._malloc(machine, args[0], zeroed=False)

        def calloc(machine, frame, args):
            return tool._malloc(machine, args[0] * args[1], zeroed=True)

        def realloc(machine, frame, args):
            old, new_size = args
            if old == 0:
                return tool._malloc(machine, new_size, zeroed=False)
            old_size = tool.allocated.get(old, 0)
            new = tool._malloc(machine, new_size, zeroed=False)
            if new:
                copy = min(old_size, new_size)
                machine.memory.store_bytes(
                    new, machine.memory.load_bytes(old, copy))
                base = new - layout.HEAP_BASE
                self_v = tool.v_bits
                self_v[new:new + copy] = b"\x01" * copy
            tool._free(machine, old, machine.current_loc)
            return new

        def free(machine, frame, args):
            tool._free(machine, args[0], machine.current_loc)
            return None

        wrapped["malloc"] = malloc
        wrapped["calloc"] = calloc
        wrapped["realloc"] = realloc
        wrapped["free"] = free
        return wrapped

    def _malloc(self, machine, size: int, zeroed: bool) -> int:
        block = machine.allocator.malloc(size + 2 * self.REDZONE)
        if block == 0:
            return 0
        user = block + self.REDZONE
        base = user - layout.HEAP_BASE
        self.heap_a[base:base + size] = b"\x01" * size
        if zeroed:
            machine.memory.store_bytes(user, b"\x00" * size)
            self.v_bits[user:user + size] = b"\x01" * size
        else:
            self.v_bits[user:user + size] = b"\x00" * size
        self.allocated[user] = size
        return user

    def _free(self, machine, address: int, loc) -> None:
        if address == 0:
            return
        size = self.allocated.pop(address, None)
        if size is None:
            if address in self.freed:
                error = DoubleFreeError(
                    f"Memcheck: invalid free: 0x{address:x} was already "
                    f"freed", access="free", memory_kind="heap")
                self._report(BugKind.DOUBLE_FREE, str(error), "free",
                             "heap", loc)
            else:
                self._report(
                    BugKind.INVALID_FREE,
                    f"invalid free of 0x{address:x} (not the start of a "
                    f"malloc'd block)", "free", None, loc)
            return
        base = address - layout.HEAP_BASE
        self.heap_a[base:base + size] = b"\x00" * size
        self.freed[address] = size
        self.quarantine.append(address)
        while len(self.quarantine) > self.QUARANTINE_BLOCKS:
            old = self.quarantine.popleft()
            old_size = self.freed.pop(old, 0)
            machine.allocator.free(old - self.REDZONE)
