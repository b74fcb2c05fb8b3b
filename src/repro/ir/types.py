"""Type system for the intermediate representation.

The IR mirrors LLVM IR closely enough that a reader of the paper can map
concepts one-to-one: integers are signless (signedness lives in the
operations), pointers are typed, and aggregate layout follows the AMD64
System V ABI conventions (natural alignment, padded structs) that the paper
assumes when it says "an LLVM IR I32 object corresponds to a C int on AMD64".
"""

from __future__ import annotations

from functools import lru_cache


POINTER_SIZE = 8
POINTER_ALIGN = 8


class IRType:
    """Base class for all IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    @property
    def size(self) -> int:
        """Size of the type in bytes."""
        raise NotImplementedError(str(type(self)))

    @property
    def align(self) -> int:
        """Natural alignment of the type in bytes."""
        return self.size

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class VoidType(IRType):
    def __str__(self) -> str:
        return "void"

    @property
    def size(self) -> int:
        raise TypeError("void has no size")

    @property
    def align(self) -> int:
        raise TypeError("void has no alignment")


class IntType(IRType):
    """A signless integer with an arbitrary bit width (i1, i8, ..., i48)."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits <= 0:
            raise ValueError(f"invalid integer width: {bits}")
        self.bits = bits

    def _key(self):
        return (self.bits,)

    def __str__(self) -> str:
        return f"i{self.bits}"

    @property
    def size(self) -> int:
        return max(1, (self.bits + 7) // 8)

    @property
    def align(self) -> int:
        size = self.size
        if size in (1, 2, 4, 8):
            return size
        # Uncommon widths (i48 etc.) get the alignment of the next power of 2
        # capped at 8, like LLVM's data layout for AMD64.
        align = 1
        while align < size and align < 8:
            align *= 2
        return align

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    @property
    def signed_min(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def signed_max(self) -> int:
        return (1 << (self.bits - 1)) - 1


class FloatType(IRType):
    """An IEEE-754 floating point type (float or double)."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError(f"unsupported float width: {bits}")
        self.bits = bits

    def _key(self):
        return (self.bits,)

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"

    @property
    def size(self) -> int:
        return self.bits // 8


class PointerType(IRType):
    """A typed pointer (``i32*``, ``%struct.foo*``, ``i8**``)."""

    __slots__ = ("pointee",)

    def __init__(self, pointee: IRType):
        self.pointee = pointee

    def _key(self):
        return (self.pointee,)

    def __str__(self) -> str:
        return f"{self.pointee}*"

    @property
    def size(self) -> int:
        return POINTER_SIZE

    @property
    def align(self) -> int:
        return POINTER_ALIGN


class ArrayType(IRType):
    """A fixed-size array ``[count x elem]``."""

    __slots__ = ("elem", "count")

    def __init__(self, elem: IRType, count: int):
        if count < 0:
            raise ValueError("array count must be non-negative")
        self.elem = elem
        self.count = count

    def _key(self):
        return (self.elem, self.count)

    def __str__(self) -> str:
        return f"[{self.count} x {self.elem}]"

    @property
    def size(self) -> int:
        return self.elem.size * self.count

    @property
    def align(self) -> int:
        return self.elem.align


class StructField:
    """A named struct member with a computed byte offset."""

    __slots__ = ("name", "type", "offset")

    def __init__(self, name: str, type: IRType, offset: int = 0):
        self.name = name
        self.type = type
        self.offset = offset

    def __repr__(self) -> str:
        return f"StructField({self.name!r}, {self.type}, offset={self.offset})"


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


class StructType(IRType):
    """A struct or union with ABI-compliant layout.

    Structs may be declared opaque first and have their body set later,
    which supports self-referential types (linked lists, trees).
    """

    def __init__(self, name: str, fields: list[StructField] | None = None,
                 is_union: bool = False):
        self.name = name
        self.is_union = is_union
        self._fields: list[StructField] | None = None
        self._size = 0
        self._align = 1
        if fields is not None:
            self.set_fields(fields)

    def _key(self):
        # Structs use nominal typing: two structs are the same type only if
        # they are the same object (or share a name within a module).
        return (id(self),)

    @property
    def is_opaque(self) -> bool:
        return self._fields is None

    @property
    def fields(self) -> list[StructField]:
        if self._fields is None:
            raise TypeError(f"struct {self.name} is opaque")
        return self._fields

    def set_fields(self, fields: list[StructField]) -> None:
        if self._fields is not None:
            raise TypeError(f"struct {self.name} already has a body")
        offset = 0
        align = 1
        for field in fields:
            field_align = field.type.align
            align = max(align, field_align)
            if self.is_union:
                field.offset = 0
                offset = max(offset, field.type.size)
            else:
                offset = _round_up(offset, field_align)
                field.offset = offset
                offset += field.type.size
        self._fields = fields
        self._align = align
        self._size = _round_up(offset, align) if fields else 0

    def field_named(self, name: str) -> StructField:
        for field in self.fields:
            if field.name == name:
                return field
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def field_index(self, name: str) -> int:
        for i, field in enumerate(self.fields):
            if field.name == name:
                return i
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def __str__(self) -> str:
        return f"%{self.name}"

    @property
    def size(self) -> int:
        if self._fields is None:
            raise TypeError(f"struct {self.name} is opaque")
        return self._size

    @property
    def align(self) -> int:
        return self._align


class FunctionType(IRType):
    """A function signature, possibly variadic."""

    __slots__ = ("ret", "params", "is_varargs")

    def __init__(self, ret: IRType, params: list[IRType],
                 is_varargs: bool = False):
        self.ret = ret
        self.params = list(params)
        self.is_varargs = is_varargs

    def _key(self):
        return (self.ret, tuple(self.params), self.is_varargs)

    def __str__(self) -> str:
        parts = [str(p) for p in self.params]
        if self.is_varargs:
            parts.append("...")
        return f"{self.ret} ({', '.join(parts)})"

    @property
    def size(self) -> int:
        raise TypeError("function types have no size")


# Commonly used singletons.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


@lru_cache(maxsize=None)
def int_type(bits: int) -> IntType:
    return IntType(bits)


def ptr(pointee: IRType) -> PointerType:
    return PointerType(pointee)


I8PTR = ptr(I8)


def is_int(t: IRType) -> bool:
    return isinstance(t, IntType)


def is_float(t: IRType) -> bool:
    return isinstance(t, FloatType)
