"""The managed object model (paper §3.2, Figure 5).

C objects are represented as managed Python objects, exactly as Safe Sulong
represents them as Java objects: typed arrays wrap Python lists/bytearrays,
structs use an offset-indexed field store, and pointers are
:class:`Address` objects holding a *reference to the pointee* plus a byte
offset.  The host language's automatic checks then detect invalid accesses:

* an out-of-bounds index raises ``IndexError`` (Java's
  ``ArrayIndexOutOfBoundsException``) — plus an explicit guard for negative
  offsets, because Python's negative indexing would otherwise wrap around;
* accessing a freed object, whose data field was set to ``None``
  (Figure 7), raises ``TypeError`` (Java's ``NullPointerException``);
* freeing a non-heap object fails an ``isinstance`` check (Java's
  ``ClassCastException``, Figure 8).

These host exceptions are translated into the precise
:class:`~repro.core.errors.ProgramBug` subclasses at the accessor boundary,
so every report can say what kind of storage was violated and by how far.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right

from ..ir import types as irt
from ..ir.module import Function
from .bits import bits_to_float, float_to_bits, to_unsigned
from .errors import (DoubleFreeError, HeapQuotaExceeded, InvalidFreeError,
                     NullDereferenceError, OutOfBoundsError,
                     UseAfterFreeError, UseAfterScopeError)


# ---------------------------------------------------------------------------
# Allocation accounting (harness resource quotas)
# ---------------------------------------------------------------------------

class AllocationMeter:
    """Tracks live heap bytes in the managed allocator against an optional
    budget.

    The managed execution model means a C heap blowup becomes a Python
    heap blowup; the meter turns that into a deterministic, catchable
    :class:`~repro.core.errors.HeapQuotaExceeded` (an ``InterpreterLimit``)
    *before* the host allocator is in trouble.  ``malloc``-family
    intrinsics charge the requested size up front, ``free`` releases it,
    so the budget bounds *live* bytes — allocate/free churn does not trip
    it.  ``peak`` is kept for reporting.
    """

    __slots__ = ("limit", "live", "peak", "alloc_count", "free_count")

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.live = 0
        self.peak = 0
        # Allocation/free churn for the observability layer; counted
        # here (not in the intrinsics) so realloc's release leg and the
        # ordinary free path agree on what a "free" is.
        self.alloc_count = 0
        self.free_count = 0

    def charge(self, nbytes: int) -> None:
        self.live += nbytes
        if self.live > self.peak:
            self.peak = self.live
        if self.limit is not None and self.live > self.limit:
            raise HeapQuotaExceeded(
                f"heap quota exceeded: {self.live} live heap bytes "
                f"over a budget of {self.limit}")

    def note_alloc(self) -> None:
        self.alloc_count += 1

    def release(self, nbytes: int) -> None:
        self.live -= nbytes
        self.free_count += 1


# The run's meter; installed by the runtime around each execution.  Runs
# are single-threaded per process (the batch harness isolates programs in
# worker subprocesses), so a module-level slot is safe and lets the
# ``free`` path — which has no runtime reference — release bytes.
_active_meter: AllocationMeter | None = None


def set_allocation_meter(meter: AllocationMeter | None) -> None:
    global _active_meter
    _active_meter = meter


def charge_heap(nbytes: int) -> None:
    if _active_meter is not None:
        _active_meter.charge(nbytes)


def release_heap(nbytes: int) -> None:
    if _active_meter is not None:
        _active_meter.release(nbytes)


def note_heap_alloc() -> None:
    """Count one heap allocation (malloc/calloc/realloc) on the active
    meter — called once per allocation, independent of quota charges."""
    if _active_meter is not None:
        _active_meter.note_alloc()


class Address:
    """A managed pointer: pointee reference + byte offset (Figure 6)."""

    __slots__ = ("pointee", "offset")

    def __init__(self, pointee: "ManagedObject | None", offset: int = 0):
        self.pointee = pointee
        self.offset = offset

    def moved(self, delta: int) -> "Address":
        return Address(self.pointee, self.offset + delta)

    def __repr__(self) -> str:
        if self.pointee is None:
            return f"Address(NULL+{self.offset})"
        return f"Address({self.pointee!r}+{self.offset})"


# Runtime pointer values are: None (NULL), Address, or ir.Function.
PointerValue = object


class AddressSpace:
    """Assigns stable virtual addresses to managed objects so that
    ``ptrtoint``/``inttoptr`` and ``%p`` work (and round-trip, which even
    supports the tagged-pointer patterns the paper lists as unsupported —
    see DESIGN.md extensions)."""

    def __init__(self):
        self._next = 0x1000_0000
        self._by_base: "weakref.WeakValueDictionary[int, object]" = \
            weakref.WeakValueDictionary()
        self._functions: dict[int, Function] = {}
        self._function_addrs: dict[str, int] = {}

    def address_of(self, value) -> int:
        if value is None:
            return 0
        if isinstance(value, Function):
            addr = self._function_addrs.get(value.name)
            if addr is None:
                addr = self._next
                self._next += 16
                self._function_addrs[value.name] = addr
                self._functions[addr] = value
            return addr
        if isinstance(value, Address):
            if value.pointee is None:
                return value.offset
            return self._base_of(value.pointee) + value.offset
        if isinstance(value, int):
            return value  # already a raw (relaxed) pointer value
        raise TypeError(f"not a pointer value: {value!r}")

    def _base_of(self, obj: "ManagedObject") -> int:
        # The base is stored on the object itself: identity-keyed maps
        # would go stale (and collide) once objects are collected.
        base = getattr(obj, "_va_base", None)
        if base is None:
            size = max(16, obj.byte_size + 16)
            base = self._next
            self._next += (size + 15) // 16 * 16
            obj._va_base = base
            self._by_base[base] = obj
        return base

    def to_pointer(self, raw: int):
        """Best-effort ``inttoptr``: find the object containing ``raw``."""
        if raw == 0:
            return None
        function = self._functions.get(raw)
        if function is not None:
            return function
        # Scan registered bases; keeps exact round-trips working.
        for base, obj in list(self._by_base.items()):
            if base <= raw < base + obj.byte_size:
                return Address(obj, raw - base)
        return Address(None, raw)  # dangling raw pointer

    def sort_key(self, value) -> int:
        return self.address_of(value)


_SPACE = AddressSpace()


def address_space() -> AddressSpace:
    return _SPACE


class ManagedObject:
    """Base class of every managed C object (Figure 5's ManagedObject)."""

    # _va_base caches the object's virtual address (assigned lazily by
    # the AddressSpace on the first ptrtoint).  alloc_site/free_site are
    # provenance slots stamped by the allocation entry points and
    # free(); they are deliberately *not* initialized in constructors —
    # an unstamped object pays nothing, and readers must go through
    # ``getattr(obj, "alloc_site", None)``.
    __slots__ = ("__weakref__", "_va_base", "alloc_site", "free_site")

    storage = "heap"  # overridden per storage class: stack/heap/global/...
    label = "object"

    @property
    def byte_size(self) -> int:
        raise NotImplementedError

    # -- checked accessors ---------------------------------------------------

    def read(self, offset: int, ir_type):
        raise NotImplementedError

    def write(self, offset: int, ir_type, value) -> None:
        raise NotImplementedError

    def read_bits(self, offset: int, size: int) -> int:
        """Assemble ``size`` bytes starting at ``offset`` as an unsigned
        little-endian integer (the relaxed-typing fallback path)."""
        raise NotImplementedError

    def write_bits(self, offset: int, size: int, value: int) -> None:
        raise NotImplementedError

    def zero_range(self, offset: int, size: int) -> None:
        self.write_bits(offset, size, 0)

    # -- error helpers ---------------------------------------------------------

    def _oob(self, access: str, offset: int, size: int):
        direction = "underflow" if offset < 0 else "overflow"
        raise OutOfBoundsError(
            f"{access} of {size} bytes at offset {offset} of {self.label} "
            f"({self.byte_size} bytes, {self.storage} memory)",
            access=access, memory_kind=self.storage, direction=direction,
            offset=offset, size=size, object_label=self.label,
            object_size=self.byte_size,
            alloc_site=getattr(self, "alloc_site", None),
            free_site=getattr(self, "free_site", None))

    def check_range(self, offset: int, size: int, access: str) -> None:
        if offset < 0 or offset + size > self.byte_size:
            self._oob(access, offset, size)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


class HeapObjectMixin:
    """The HeapObject interface of Figure 7: free() nulls the data field so
    both the garbage collector can reclaim it and later accesses trap."""

    __slots__ = ()

    def free(self) -> None:
        if self.is_freed():
            raise DoubleFreeError(
                f"double free of {self.label} ({self.storage} memory)",
                access="free", memory_kind="heap",
                object_label=self.label,
                alloc_site=getattr(self, "alloc_site", None),
                free_site=getattr(self, "free_site", None))
        self._null_data()

    def is_freed(self) -> bool:
        raise NotImplementedError

    def _null_data(self) -> None:
        raise NotImplementedError


def free_pointer(value, free_site=None) -> None:
    """The free() implementation from Figure 8 of the paper.

    ``free_site`` is the source location of the freeing call; on a
    successful free it is stamped onto the object so later temporal
    errors (use-after-free, double free) can name it."""
    if value is None:
        return  # free(NULL) is a no-op per the C standard
    if not isinstance(value, Address):
        raise InvalidFreeError("free() of a non-pointer value",
                               access="free")
    pointee = value.pointee
    if pointee is None:
        raise InvalidFreeError("free() of a dangling raw pointer",
                               access="free")
    if not isinstance(pointee, HeapObjectMixin):
        raise InvalidFreeError(
            f"free() of {pointee.label} ({pointee.storage} memory), "
            f"which was not allocated by malloc()",
            access="free", memory_kind=pointee.storage,
            object_label=pointee.label,
            alloc_site=getattr(pointee, "alloc_site", None))
    if value.offset != 0:
        raise InvalidFreeError(
            f"free() of a pointer into the middle of {pointee.label} "
            f"(offset {value.offset})",
            access="free", memory_kind="heap", offset=value.offset,
            object_label=pointee.label,
            object_size=pointee.byte_size,
            alloc_site=getattr(pointee, "alloc_site", None))
    size = pointee.byte_size
    pointee.free()  # raises DoubleFreeError with the *first* free site
    pointee.free_site = free_site
    release_heap(size)


def _raise_freed(obj, access: str):
    if getattr(obj, "scope_exited", False):
        raise UseAfterScopeError(
            f"{access} of {obj.label} after its scope ended",
            access=access, memory_kind=obj.storage,
            object_label=obj.label,
            alloc_site=getattr(obj, "alloc_site", None))
    raise UseAfterFreeError(
        f"{access} of freed {obj.label} ({obj.storage} memory)",
        access=access, memory_kind=obj.storage, object_label=obj.label,
        alloc_site=getattr(obj, "alloc_site", None),
        free_site=getattr(obj, "free_site", None))


# ---------------------------------------------------------------------------
# Primitive arrays
# ---------------------------------------------------------------------------

class ByteArrayObject(ManagedObject):
    """I8 array backed by a bytearray (strings, char buffers, raw heap)."""

    __slots__ = ("data", "label", "scope_exited")

    def __init__(self, count: int, label: str = "char array"):
        self.data: bytearray | None = bytearray(count)
        self.label = label
        self.scope_exited = False

    @property
    def byte_size(self) -> int:
        return len(self.data) if self.data is not None else 0

    def read(self, offset: int, ir_type):
        data = self.data
        if data is None:
            _raise_freed(self, "read")
        size = ir_type.size
        if offset < 0 or offset + size > len(data):
            self._oob("read", offset, size)
        if isinstance(ir_type, irt.IntType):
            if size == 1:
                return data[offset] & ir_type.mask
            return int.from_bytes(data[offset:offset + size],
                                  "little") & ir_type.mask
        if isinstance(ir_type, irt.FloatType):
            bits = int.from_bytes(data[offset:offset + size], "little")
            return bits_to_float(bits, size)
        #

        # Reading a pointer out of raw bytes: relaxed inttoptr.
        raw = int.from_bytes(data[offset:offset + 8], "little")
        return _SPACE.to_pointer(raw)

    def write(self, offset: int, ir_type, value) -> None:
        data = self.data
        if data is None:
            _raise_freed(self, "write")
        size = ir_type.size
        if offset < 0 or offset + size > len(data):
            self._oob("write", offset, size)
        if isinstance(ir_type, irt.IntType):
            if size == 1:
                data[offset] = value & 0xFF
            else:
                data[offset:offset + size] = (value & ((1 << (8 * size)) - 1)
                                              ).to_bytes(size, "little")
            return
        if isinstance(ir_type, irt.FloatType):
            bits = float_to_bits(value, size)
            data[offset:offset + size] = bits.to_bytes(size, "little")
            return
        raw = _SPACE.address_of(value)
        data[offset:offset + 8] = raw.to_bytes(8, "little")

    def read_bits(self, offset: int, size: int) -> int:
        data = self.data
        if data is None:
            _raise_freed(self, "read")
        if offset < 0 or offset + size > len(data):
            self._oob("read", offset, size)
        return int.from_bytes(data[offset:offset + size], "little")

    def write_bits(self, offset: int, size: int, value: int) -> None:
        data = self.data
        if data is None:
            _raise_freed(self, "write")
        if offset < 0 or offset + size > len(data):
            self._oob("write", offset, size)
        data[offset:offset + size] = (value & ((1 << (8 * size)) - 1)
                                      ).to_bytes(size, "little")


class IntArrayObject(ManagedObject):
    """Fixed-width integer array (I16/I32/I64...; Figure 5's I32Array).

    Elements are stored as canonical unsigned Python ints.
    """

    __slots__ = ("data", "elem_size", "label", "scope_exited")

    def __init__(self, elem_size: int, count: int, label: str = "int array"):
        self.data: list[int] | None = [0] * count
        self.elem_size = elem_size
        self.label = label
        self.scope_exited = False

    @property
    def byte_size(self) -> int:
        return (len(self.data) if self.data is not None else 0) \
            * self.elem_size

    def read(self, offset: int, ir_type):
        data = self.data
        if data is None:
            _raise_freed(self, "read")
        size = ir_type.size
        elem_size = self.elem_size
        if isinstance(ir_type, irt.IntType) and size == elem_size \
                and offset % elem_size == 0:
            index = offset // elem_size
            if index < 0:
                self._oob("read", offset, size)
            try:
                return data[index] & ir_type.mask
            except IndexError:
                self._oob("read", offset, size)
        if isinstance(ir_type, irt.FloatType) and size == elem_size \
                and offset % elem_size == 0:
            # Relaxed typing: reading a double out of a long array.
            index = offset // elem_size
            if index < 0 or index >= len(data):
                self._oob("read", offset, size)
            return bits_to_float(data[index], size)
        if isinstance(ir_type, irt.PointerType):
            raw = self.read_bits(offset, 8)
            return _SPACE.to_pointer(raw)
        bits = self.read_bits(offset, size)
        if isinstance(ir_type, irt.FloatType):
            return bits_to_float(bits, size)
        return bits & ir_type.mask

    def write(self, offset: int, ir_type, value) -> None:
        data = self.data
        if data is None:
            _raise_freed(self, "write")
        size = ir_type.size
        elem_size = self.elem_size
        if size == elem_size and offset % elem_size == 0:
            index = offset // elem_size
            if index < 0:
                self._oob("write", offset, size)
            if isinstance(ir_type, irt.FloatType):
                value = float_to_bits(value, size)
            elif isinstance(ir_type, irt.PointerType):
                value = _SPACE.address_of(value)
            else:
                value &= (1 << (8 * size)) - 1
            try:
                data[index] = value
            except IndexError:
                self._oob("write", offset, size)
            return
        if isinstance(ir_type, irt.FloatType):
            value = float_to_bits(value, size)
        elif isinstance(ir_type, irt.PointerType):
            value = _SPACE.address_of(value)
            size = 8
        self.write_bits(offset, size, value)

    def read_bits(self, offset: int, size: int) -> int:
        data = self.data
        if data is None:
            _raise_freed(self, "read")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("read", offset, size)
        elem_size = self.elem_size
        result = 0
        for i in range(size):
            byte_index = offset + i
            element = data[byte_index // elem_size]
            byte = (element >> (8 * (byte_index % elem_size))) & 0xFF
            result |= byte << (8 * i)
        return result

    def write_bits(self, offset: int, size: int, value: int) -> None:
        data = self.data
        if data is None:
            _raise_freed(self, "write")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("write", offset, size)
        elem_size = self.elem_size
        for i in range(size):
            byte_index = offset + i
            index = byte_index // elem_size
            shift = 8 * (byte_index % elem_size)
            element = data[index]
            element &= ~(0xFF << shift)
            element |= ((value >> (8 * i)) & 0xFF) << shift
            data[index] = element


class FloatArrayObject(ManagedObject):
    """F32/F64 array backed by a list of Python floats."""

    __slots__ = ("data", "elem_size", "label", "scope_exited")

    def __init__(self, elem_size: int, count: int,
                 label: str = "float array"):
        self.data: list[float] | None = [0.0] * count
        self.elem_size = elem_size
        self.label = label
        self.scope_exited = False

    @property
    def byte_size(self) -> int:
        return (len(self.data) if self.data is not None else 0) \
            * self.elem_size

    def read(self, offset: int, ir_type):
        data = self.data
        if data is None:
            _raise_freed(self, "read")
        size = ir_type.size
        elem_size = self.elem_size
        if isinstance(ir_type, irt.FloatType) and size == elem_size \
                and offset % elem_size == 0:
            index = offset // elem_size
            if index < 0:
                self._oob("read", offset, size)
            try:
                return data[index]
            except IndexError:
                self._oob("read", offset, size)
        bits = self.read_bits(offset, size)
        if isinstance(ir_type, irt.FloatType):
            return bits_to_float(bits, size)
        if isinstance(ir_type, irt.PointerType):
            return _SPACE.to_pointer(self.read_bits(offset, 8))
        return bits & ir_type.mask

    def write(self, offset: int, ir_type, value) -> None:
        data = self.data
        if data is None:
            _raise_freed(self, "write")
        size = ir_type.size
        elem_size = self.elem_size
        if isinstance(ir_type, irt.FloatType) and size == elem_size \
                and offset % elem_size == 0:
            index = offset // elem_size
            if index < 0:
                self._oob("write", offset, size)
            try:
                data[index] = value
            except IndexError:
                self._oob("write", offset, size)
            return
        if isinstance(ir_type, irt.IntType):
            self.write_bits(offset, size, value)
            return
        if isinstance(ir_type, irt.PointerType):
            self.write_bits(offset, 8, _SPACE.address_of(value))
            return
        self.write_bits(offset, size, float_to_bits(value, size))

    def read_bits(self, offset: int, size: int) -> int:
        data = self.data
        if data is None:
            _raise_freed(self, "read")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("read", offset, size)
        elem_size = self.elem_size
        result = 0
        for i in range(size):
            byte_index = offset + i
            bits = float_to_bits(data[byte_index // elem_size], elem_size)
            byte = (bits >> (8 * (byte_index % elem_size))) & 0xFF
            result |= byte << (8 * i)
        return result

    def write_bits(self, offset: int, size: int, value: int) -> None:
        data = self.data
        if data is None:
            _raise_freed(self, "write")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("write", offset, size)
        elem_size = self.elem_size
        for i in range(size):
            byte_index = offset + i
            index = byte_index // elem_size
            shift = 8 * (byte_index % elem_size)
            bits = float_to_bits(data[index], elem_size)
            bits &= ~(0xFF << shift)
            bits |= ((value >> (8 * i)) & 0xFF) << shift
            data[index] = bits_to_float(bits, elem_size)


class AddressArrayObject(ManagedObject):
    """Array of pointers (Figure 5's AddressArray).

    Slots hold None (NULL), Address, Function, or — under relaxed typing —
    a raw integer that was stored through an integer view.
    """

    __slots__ = ("data", "label", "scope_exited")

    ELEM_SIZE = 8

    def __init__(self, count: int, label: str = "pointer array"):
        self.data: list | None = [None] * count
        self.label = label
        self.scope_exited = False

    @property
    def byte_size(self) -> int:
        return (len(self.data) if self.data is not None else 0) * 8

    def read(self, offset: int, ir_type):
        data = self.data
        if data is None:
            _raise_freed(self, "read")
        size = ir_type.size
        if isinstance(ir_type, irt.PointerType) and offset % 8 == 0:
            index = offset // 8
            if index < 0:
                self._oob("read", offset, size)
            try:
                value = data[index]
            except IndexError:
                self._oob("read", offset, size)
            if isinstance(value, int):
                return _SPACE.to_pointer(value)
            return value
        bits = self.read_bits(offset, size)
        if isinstance(ir_type, irt.FloatType):
            return bits_to_float(bits, size)
        if isinstance(ir_type, irt.PointerType):
            return _SPACE.to_pointer(bits)
        return bits & ir_type.mask

    def write(self, offset: int, ir_type, value) -> None:
        data = self.data
        if data is None:
            _raise_freed(self, "write")
        size = ir_type.size
        if isinstance(ir_type, irt.PointerType) and offset % 8 == 0:
            index = offset // 8
            if index < 0:
                self._oob("write", offset, size)
            try:
                data[index] = value
            except IndexError:
                self._oob("write", offset, size)
            return
        if isinstance(ir_type, irt.IntType) and size == 8 and offset % 8 == 0:
            index = offset // 8
            if index < 0 or index >= len(data):
                self._oob("write", offset, size)
            data[index] = value  # raw integer stored in a pointer slot
            return
        if isinstance(ir_type, irt.FloatType):
            value = float_to_bits(value, size)
        self.write_bits(offset, size, value)

    def _slot_bits(self, index: int) -> int:
        value = self.data[index]
        if isinstance(value, int):
            return value
        return _SPACE.address_of(value)

    def read_bits(self, offset: int, size: int) -> int:
        data = self.data
        if data is None:
            _raise_freed(self, "read")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("read", offset, size)
        result = 0
        for i in range(size):
            byte_index = offset + i
            bits = self._slot_bits(byte_index // 8)
            result |= ((bits >> (8 * (byte_index % 8))) & 0xFF) << (8 * i)
        return result

    def write_bits(self, offset: int, size: int, value: int) -> None:
        data = self.data
        if data is None:
            _raise_freed(self, "write")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("write", offset, size)
        for i in range(size):
            byte_index = offset + i
            index = byte_index // 8
            shift = 8 * (byte_index % 8)
            bits = self._slot_bits(index)
            bits &= ~(0xFF << shift)
            bits |= ((value >> (8 * i)) & 0xFF) << shift
            data[index] = bits


# ---------------------------------------------------------------------------
# Structs
# ---------------------------------------------------------------------------

class StructObject(ManagedObject):
    """A struct instance using an offset-indexed field store (the paper's
    Truffle object-storage-model stand-in)."""

    __slots__ = ("struct_type", "offsets", "fields", "values", "label",
                 "scope_exited")

    def __init__(self, struct_type: irt.StructType, label: str = "struct",
                 allocator=None):
        self.struct_type = struct_type
        self.label = label
        self.scope_exited = False
        self.offsets = [field.offset for field in struct_type.fields]
        self.fields = struct_type.fields
        if struct_type.is_union:
            # Union members overlay: a single byte-level backing store is
            # the only representation that keeps all views consistent.
            self.values: list | None = [
                ByteArrayObject(struct_type.size, f"{label}.<union>")
            ]
            return
        values = []
        for field in struct_type.fields:
            if isinstance(field.type, (irt.ArrayType, irt.StructType)):
                make = allocator or allocate_value_object
                values.append(make(field.type, f"{label}.{field.name}"))
            elif isinstance(field.type, irt.FloatType):
                values.append(0.0)
            elif isinstance(field.type, irt.PointerType):
                values.append(None)
            else:
                values.append(0)
        self.values: list | None = values

    @property
    def byte_size(self) -> int:
        return self.struct_type.size

    def _field_index(self, offset: int, size: int, access: str) -> int:
        if offset < 0 or offset + size > self.struct_type.size:
            self._oob(access, offset, size)
        index = bisect_right(self.offsets, offset) - 1
        if index < 0:
            self._oob(access, offset, size)
        return index

    def read(self, offset: int, ir_type):
        values = self.values
        if values is None:
            _raise_freed(self, "read")
        size = ir_type.size
        if self.struct_type.is_union:
            self.check_range(offset, size, "read")
            return values[0].read(offset, ir_type)
        index = self._field_index(offset, size, "read")
        field = self.fields[index]
        relative = offset - field.offset
        if isinstance(field.type, (irt.ArrayType, irt.StructType)):
            if relative + size <= field.type.size:
                return values[index].read(relative, ir_type)
            # Sub-object overflow into a neighbouring field: deliberately
            # not an error (§2.1 footnote 4) — fall through to bit access.
        elif relative == 0 and field.type.size == size:
            value = values[index]
            return _reinterpret_read(value, field.type, ir_type)
        # Mismatched or padding-spanning access: bit-level fallback.
        bits = self.read_bits(offset, size)
        if isinstance(ir_type, irt.FloatType):
            return bits_to_float(bits, size)
        if isinstance(ir_type, irt.PointerType):
            return _SPACE.to_pointer(bits)
        return bits & ir_type.mask

    def write(self, offset: int, ir_type, value) -> None:
        values = self.values
        if values is None:
            _raise_freed(self, "write")
        size = ir_type.size
        if self.struct_type.is_union:
            self.check_range(offset, size, "write")
            values[0].write(offset, ir_type, value)
            return
        index = self._field_index(offset, size, "write")
        field = self.fields[index]
        relative = offset - field.offset
        if isinstance(field.type, (irt.ArrayType, irt.StructType)):
            if relative + size <= field.type.size:
                values[index].write(relative, ir_type, value)
                return
            # Sub-object overflow: handled byte-wise below (not a bug).
        elif relative == 0 and field.type.size == size:
            values[index] = _reinterpret_write(value, ir_type, field.type)
            return
        if isinstance(ir_type, irt.FloatType):
            value = float_to_bits(value, size)
        elif isinstance(ir_type, irt.PointerType):
            value = _SPACE.address_of(value)
            size = 8
        self.write_bits(offset, size, value)

    def _field_bits(self, index: int) -> int:
        field = self.fields[index]
        value = self.values[index]
        if isinstance(field.type, (irt.ArrayType, irt.StructType)):
            return value.read_bits(0, field.type.size)
        if isinstance(field.type, irt.FloatType):
            return float_to_bits(value, field.type.size)
        if isinstance(field.type, irt.PointerType):
            if isinstance(value, int):
                return value
            return _SPACE.address_of(value)
        return value

    def read_bits(self, offset: int, size: int) -> int:
        values = self.values
        if values is None:
            _raise_freed(self, "read")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("read", offset, size)
        if self.struct_type.is_union:
            return values[0].read_bits(offset, size)
        result = 0
        for i in range(size):
            byte_index = offset + i
            index = bisect_right(self.offsets, byte_index) - 1
            field = self.fields[index] if index >= 0 else None
            if field is None or byte_index >= field.offset + field.type.size:
                byte = 0  # padding reads as zero
            else:
                relative = byte_index - field.offset
                if isinstance(field.type, (irt.ArrayType, irt.StructType)):
                    byte = values[index].read_bits(relative, 1)
                else:
                    byte = (self._field_bits(index) >> (8 * relative)) & 0xFF
            result |= byte << (8 * i)
        return result

    def write_bits(self, offset: int, size: int, value: int) -> None:
        values = self.values
        if values is None:
            _raise_freed(self, "write")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("write", offset, size)
        if self.struct_type.is_union:
            values[0].write_bits(offset, size, value)
            return
        for i in range(size):
            byte_index = offset + i
            index = bisect_right(self.offsets, byte_index) - 1
            if index < 0:
                continue
            field = self.fields[index]
            relative = byte_index - field.offset
            if relative >= field.type.size:
                continue  # padding bytes are discarded
            byte = (value >> (8 * i)) & 0xFF
            if isinstance(field.type, (irt.ArrayType, irt.StructType)):
                values[index].write_bits(relative, 1, byte)
                continue
            bits = self._field_bits(index)
            bits &= ~(0xFF << (8 * relative))
            bits |= byte << (8 * relative)
            if isinstance(field.type, irt.FloatType):
                values[index] = bits_to_float(bits, field.type.size)
            elif isinstance(field.type, irt.PointerType):
                values[index] = bits  # raw pointer bits (relaxed)
            else:
                values[index] = bits

    def zero_range(self, offset: int, size: int) -> None:
        self.write_bits(offset, size, 0)


class StructArrayObject(ManagedObject):
    """A contiguous array of structs; delegates to per-element
    StructObjects."""

    __slots__ = ("data", "struct_type", "elem_size", "label", "scope_exited")

    def __init__(self, struct_type: irt.StructType, count: int,
                 label: str = "struct array"):
        self.struct_type = struct_type
        self.elem_size = struct_type.size
        self.label = label
        self.scope_exited = False
        self.data: list[StructObject] | None = [
            StructObject(struct_type, f"{label}[{i}]") for i in range(count)
        ]

    @property
    def byte_size(self) -> int:
        return (len(self.data) if self.data is not None else 0) \
            * self.elem_size

    def _locate(self, offset: int, size: int, access: str):
        data = self.data
        if data is None:
            _raise_freed(self, access)
        if offset < 0 or offset + size > self.byte_size:
            self._oob(access, offset, size)
        return data[offset // self.elem_size], offset % self.elem_size

    def read(self, offset: int, ir_type):
        element, relative = self._locate(offset, ir_type.size, "read")
        return element.read(relative, ir_type)

    def write(self, offset: int, ir_type, value) -> None:
        element, relative = self._locate(offset, ir_type.size, "write")
        element.write(relative, ir_type, value)

    def read_bits(self, offset: int, size: int) -> int:
        data = self.data
        if data is None:
            _raise_freed(self, "read")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("read", offset, size)
        result = 0
        done = 0
        while done < size:
            element = data[(offset + done) // self.elem_size]
            relative = (offset + done) % self.elem_size
            chunk = min(size - done, self.elem_size - relative)
            result |= element.read_bits(relative, chunk) << (8 * done)
            done += chunk
        return result

    def write_bits(self, offset: int, size: int, value: int) -> None:
        data = self.data
        if data is None:
            _raise_freed(self, "write")
        if offset < 0 or offset + size > self.byte_size:
            self._oob("write", offset, size)
        done = 0
        while done < size:
            element = data[(offset + done) // self.elem_size]
            relative = (offset + done) % self.elem_size
            chunk = min(size - done, self.elem_size - relative)
            element.write_bits(relative, chunk,
                               (value >> (8 * done))
                               & ((1 << (8 * chunk)) - 1))
            done += chunk


# ---------------------------------------------------------------------------
# Untyped heap memory (allocation-type feedback, §3.3)
# ---------------------------------------------------------------------------

class UntypedHeapMemory(ManagedObject):
    """malloc'd memory whose element type is not yet known.

    The managed type is determined lazily: the first cast, read, or write
    materializes a typed object, and the observed type is propagated back to
    the allocation site ("allocation mementos", §3.3).
    """

    __slots__ = ("size", "target", "label", "on_materialize",
                 "scope_exited")

    def __init__(self, size: int, label: str = "heap memory",
                 on_materialize=None):
        self.size = size
        self.target: ManagedObject | None = None
        self.label = label
        self.on_materialize = on_materialize
        self.scope_exited = False

    @property
    def byte_size(self) -> int:
        if self.target is not None:
            return self.target.byte_size
        return self.size

    def materialize(self, factory) -> ManagedObject:
        if self.target is None:
            self.target = factory(self.size, self.label)
            site = getattr(self, "alloc_site", None)
            if site is not None:
                self.target.alloc_site = site
            if self.on_materialize is not None:
                self.on_materialize(factory)
        return self.target

    def _materialize_for(self, ir_type) -> ManagedObject:
        return self.materialize(factory_for_access(ir_type))

    def read(self, offset: int, ir_type):
        target = self.target or self._materialize_for(ir_type)
        return target.read(offset, ir_type)

    def write(self, offset: int, ir_type, value) -> None:
        target = self.target or self._materialize_for(ir_type)
        target.write(offset, ir_type, value)

    def read_bits(self, offset: int, size: int) -> int:
        target = self.target or self.materialize(byte_array_factory)
        return target.read_bits(offset, size)

    def write_bits(self, offset: int, size: int, value: int) -> None:
        target = self.target or self.materialize(byte_array_factory)
        return target.write_bits(offset, size, value)


# ---------------------------------------------------------------------------
# Storage-class subclasses (I32AutomaticArray / I32HeapArray / ... in the
# paper).  Generated so every (object kind × storage) pair exists and error
# messages can name the memory kind.
# ---------------------------------------------------------------------------

_STORAGE_CLASSES: dict[tuple[type, str], type] = {}


def with_storage(cls: type, storage: str) -> type:
    """Return the subclass of ``cls`` for the given storage kind; heap
    variants additionally implement the HeapObject interface."""
    key = (cls, storage)
    cached = _STORAGE_CLASSES.get(key)
    if cached is not None:
        return cached
    bases = (cls,) if storage != "heap" else (HeapObjectMixin, cls)
    name = f"{storage.capitalize().replace('-', '')}{cls.__name__}"

    namespace = {"__slots__": (), "storage": storage}
    if storage == "heap":
        def is_freed(self) -> bool:
            return _data_of(self) is None

        def _null_data(self) -> None:
            _clear_data(self)

        namespace["is_freed"] = is_freed
        namespace["_null_data"] = _null_data
    subclass = type(name, bases, namespace)
    _STORAGE_CLASSES[key] = subclass
    return subclass


def _data_of(obj):
    if isinstance(obj, StructObject):
        return obj.values
    if isinstance(obj, UntypedHeapMemory):
        return None if obj.scope_exited else (obj.target or obj)
    return obj.data


def _clear_data(obj) -> None:
    if isinstance(obj, StructObject):
        obj.values = None
    elif isinstance(obj, UntypedHeapMemory):
        if obj.target is not None:
            target = obj.target
            if isinstance(target, StructObject):
                target.values = None
            else:
                target.data = None
        obj.scope_exited = False
        obj.size = 0
        obj.target = _FREED_SENTINEL
    else:
        obj.data = None


class _FreedMarker(ManagedObject):
    __slots__ = ("label", "scope_exited")

    def __init__(self):
        self.label = "freed heap memory"
        self.scope_exited = False

    @property
    def byte_size(self) -> int:
        return 0

    def read(self, offset, ir_type):
        _raise_freed(self, "read")

    def write(self, offset, ir_type, value):
        _raise_freed(self, "write")

    def read_bits(self, offset, size):
        _raise_freed(self, "read")

    def write_bits(self, offset, size, value):
        _raise_freed(self, "write")


_FREED_SENTINEL = _FreedMarker()


# Special handling: UntypedHeapMemory free() must mark itself freed even
# before materialization.
class HeapUntypedMemory(HeapObjectMixin, UntypedHeapMemory):
    __slots__ = ()
    storage = "heap"

    def is_freed(self) -> bool:
        return self.target is _FREED_SENTINEL

    def _null_data(self) -> None:
        _clear_data(self)

    def read(self, offset, ir_type):
        if self.target is _FREED_SENTINEL:
            _raise_freed(self, "read")
        return super().read(offset, ir_type)

    def write(self, offset, ir_type, value):
        if self.target is _FREED_SENTINEL:
            _raise_freed(self, "write")
        super().write(offset, ir_type, value)

    # The untyped paths check freed-ness here (not in the shared freed
    # marker) so the raised error carries this object's provenance.
    def read_bits(self, offset, size):
        if self.target is _FREED_SENTINEL:
            _raise_freed(self, "read")
        return super().read_bits(offset, size)

    def write_bits(self, offset, size, value):
        if self.target is _FREED_SENTINEL:
            _raise_freed(self, "write")
        return super().write_bits(offset, size, value)


# ---------------------------------------------------------------------------
# Allocation helpers
# ---------------------------------------------------------------------------

def byte_array_factory(size: int, label: str) -> ManagedObject:
    return ByteArrayObject(size, label)


def factory_for_access(ir_type):
    """Pick the managed array factory implied by a first access of
    ``ir_type`` (the §3.3 type-inference rule)."""
    if isinstance(ir_type, irt.PointerType):
        def make(size: int, label: str) -> ManagedObject:
            return AddressArrayObject(max(size // 8, 0), label)
        return make
    if isinstance(ir_type, irt.FloatType):
        elem = ir_type.size

        def make(size: int, label: str) -> ManagedObject:
            if size % elem:
                return ByteArrayObject(size, label)
            return FloatArrayObject(elem, size // elem, label)
        return make
    elem = ir_type.size
    if elem <= 1:
        return byte_array_factory

    def make(size: int, label: str) -> ManagedObject:
        if size % elem:
            return ByteArrayObject(size, label)
        return IntArrayObject(elem, size // elem, label)
    return make


def factory_for_pointee(pointee):
    """Factory for materializing untyped memory on a pointer cast
    (``(struct foo *)malloc(...)``)."""
    if isinstance(pointee, irt.StructType):
        def make(size: int, label: str) -> ManagedObject:
            count = size // pointee.size if pointee.size else 0
            return StructArrayObject(pointee, count, label)
        return make
    if isinstance(pointee, irt.ArrayType):
        leaf, _count = _leaf_elem(pointee)
        return factory_for_pointee(leaf)
    if isinstance(pointee, (irt.IntType, irt.FloatType, irt.PointerType)):
        if isinstance(pointee, irt.IntType) and pointee.size == 1:
            return None  # i8* is void*: keep the allocation untyped
        return factory_for_access(pointee)
    return None


def _leaf_elem(array_type: irt.ArrayType):
    scale = 1
    current: irt.IRType = array_type
    while isinstance(current, irt.ArrayType):
        scale *= current.count
        current = current.elem
    return current, scale


def allocate_value_object(ir_type, label: str,
                          storage: str | None = None) -> ManagedObject:
    """Allocate a managed object for a value of ``ir_type`` (used for
    allocas, globals, and struct members).  Nested primitive arrays are
    flattened; byte offsets make the layouts equivalent."""
    def build(t: irt.IRType, lbl: str) -> ManagedObject:
        if isinstance(t, irt.ArrayType):
            leaf, count = _leaf_elem(t)
            return _array_for_leaf(leaf, count, lbl)
        return _array_for_leaf(t, 1, lbl)

    obj = build(ir_type, label)
    if storage is not None:
        obj = _rewrap_storage(obj, storage)
    return obj


def _array_for_leaf(leaf: irt.IRType, count: int, label: str) -> ManagedObject:
    if isinstance(leaf, irt.StructType):
        if count == 1:
            return StructObject(leaf, label)
        return StructArrayObject(leaf, count, label)
    if isinstance(leaf, irt.PointerType):
        return AddressArrayObject(count, label)
    if isinstance(leaf, irt.FloatType):
        return FloatArrayObject(leaf.size, count, label)
    if isinstance(leaf, irt.IntType):
        if leaf.size == 1:
            return ByteArrayObject(count, label)
        return IntArrayObject(leaf.size, count, label)
    raise TypeError(f"cannot allocate {leaf}")


def _rewrap_storage(obj: ManagedObject, storage: str) -> ManagedObject:
    obj.__class__ = with_storage(type(obj), storage)
    # Nested aggregates report the same storage kind as their container.
    if isinstance(obj, StructObject) and obj.values is not None:
        for value in obj.values:
            if isinstance(value, ManagedObject):
                _rewrap_storage(value, storage)
    elif isinstance(obj, StructArrayObject) and obj.data is not None:
        for element in obj.data:
            _rewrap_storage(element, storage)
    return obj


def stamp_alloc_site(obj: ManagedObject, site) -> None:
    """Record the allocation's source location on the object (and its
    nested aggregate members, which raise their own bounds errors)."""
    obj.alloc_site = site
    if isinstance(obj, StructObject) and obj.values is not None:
        for value in obj.values:
            if isinstance(value, ManagedObject):
                stamp_alloc_site(value, site)
    elif isinstance(obj, StructArrayObject) and obj.data is not None:
        for element in obj.data:
            stamp_alloc_site(element, site)


def allocate(ir_type, label: str, storage: str,
             alloc_site=None) -> ManagedObject:
    """Public allocation entry point used by the interpreter."""
    obj = allocate_value_object(ir_type, label)
    if alloc_site is not None:
        stamp_alloc_site(obj, alloc_site)
    return _rewrap_storage(obj, storage)


def check_not_null(pointer, context: str = "dereference"):
    """NULL check applied before every memory access."""
    if pointer is None:
        raise NullDereferenceError(f"NULL {context}", access=context)
    if isinstance(pointer, Address) and pointer.pointee is None:
        raise NullDereferenceError(
            f"{context} of invalid pointer (0x{pointer.offset:x})",
            access=context)
    return pointer


def _reinterpret_read(value, stored_type, want_type):
    """Field stored as ``stored_type`` read as ``want_type`` of equal
    size."""
    if type(stored_type) is type(want_type):
        if isinstance(want_type, irt.IntType):
            return value & want_type.mask
        return value
    size = want_type.size
    if isinstance(stored_type, irt.FloatType):
        bits = float_to_bits(value, size)
    elif isinstance(stored_type, irt.PointerType):
        bits = value if isinstance(value, int) else _SPACE.address_of(value)
    else:
        bits = value
    if isinstance(want_type, irt.FloatType):
        return bits_to_float(bits, size)
    if isinstance(want_type, irt.PointerType):
        return _SPACE.to_pointer(bits)
    return bits & want_type.mask


def _reinterpret_write(value, value_type, field_type):
    if type(value_type) is type(field_type):
        if isinstance(field_type, irt.IntType):
            return value & ((1 << (8 * field_type.size)) - 1)
        return value
    size = field_type.size
    if isinstance(value_type, irt.FloatType):
        bits = float_to_bits(value, size)
    elif isinstance(value_type, irt.PointerType):
        return value  # keep the pointer object in the slot (relaxed)
    else:
        bits = to_unsigned(value, 8 * size)
    if isinstance(field_type, irt.FloatType):
        return bits_to_float(bits, size)
    if isinstance(field_type, irt.PointerType):
        return bits
    return bits
