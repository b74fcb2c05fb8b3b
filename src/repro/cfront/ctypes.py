"""The C-level type system.

Distinct from the IR types: C types carry signedness and C-specific notions
(incomplete arrays, enums, qualifiers).  The IR generator lowers these to
:mod:`repro.ir.types`.  Sizes follow the LP64 / AMD64 model the paper
assumes (int is 32-bit, long and pointers are 64-bit).
"""

from __future__ import annotations


class CType:
    size: int
    align: int

    def __repr__(self) -> str:
        return f"<CType {self}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()

    @property
    def is_complete(self) -> bool:
        return True


class CVoid(CType):
    size = 0
    align = 1

    def __str__(self) -> str:
        return "void"

    @property
    def is_complete(self) -> bool:
        return False


# (size, rank) per integer kind; rank orders the usual arithmetic conversions.
_INT_KINDS = {
    "bool": (1, 0),
    "char": (1, 1),
    "short": (2, 2),
    "int": (4, 3),
    "long": (8, 4),
    "longlong": (8, 5),
}


class CInt(CType):
    __slots__ = ("kind", "signed", "size", "align", "rank")

    def __init__(self, kind: str, signed: bool = True):
        size, rank = _INT_KINDS[kind]
        self.kind = kind
        self.signed = signed
        self.size = size
        self.align = size
        self.rank = rank

    def _key(self):
        return (self.kind, self.signed)

    def __str__(self) -> str:
        if self.kind == "bool":
            return "_Bool"
        prefix = "" if self.signed else "unsigned "
        name = {"longlong": "long long"}.get(self.kind, self.kind)
        return prefix + name

    @property
    def bits(self) -> int:
        return 1 if self.kind == "bool" else self.size * 8

    @property
    def max_value(self) -> int:
        if not self.signed:
            return (1 << self.bits) - 1
        return (1 << (self.bits - 1)) - 1


class CFloat(CType):
    __slots__ = ("bits", "size", "align")

    def __init__(self, bits: int):
        self.bits = bits
        self.size = bits // 8
        self.align = self.size

    def _key(self):
        return (self.bits,)

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"


class CPointer(CType):
    __slots__ = ("target",)
    size = 8
    align = 8

    def __init__(self, target: CType):
        self.target = target

    def _key(self):
        return (self.target,)

    def __str__(self) -> str:
        return f"{self.target}*"


class CArray(CType):
    """An array; ``count is None`` means the type is incomplete
    (``int a[]``) until an initializer completes it."""

    __slots__ = ("elem", "count")

    def __init__(self, elem: CType, count: int | None):
        self.elem = elem
        self.count = count

    def _key(self):
        return (self.elem, self.count)

    @property
    def is_complete(self) -> bool:
        return self.count is not None and self.elem.is_complete

    @property
    def size(self) -> int:
        if self.count is None:
            raise TypeError("incomplete array has no size")
        return self.elem.size * self.count

    @property
    def align(self) -> int:
        return self.elem.align

    def __str__(self) -> str:
        count = "" if self.count is None else str(self.count)
        return f"{self.elem}[{count}]"


class CStructField:
    __slots__ = ("name", "type")

    def __init__(self, name: str, type: CType):
        self.name = name
        self.type = type


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


class CStruct(CType):
    """A struct or union; supports forward declaration + later completion."""

    _counter = 0

    def __init__(self, tag: str | None, is_union: bool = False):
        if tag is None:
            CStruct._counter += 1
            tag = f"anon.{CStruct._counter}"
        self.tag = tag
        self.is_union = is_union
        self.fields: list[CStructField] | None = None

    def _key(self):
        return (id(self),)

    @property
    def is_complete(self) -> bool:
        return self.fields is not None

    def complete(self, fields: list[CStructField]) -> None:
        if self.fields is not None:
            raise TypeError(f"struct {self.tag} redefined")
        self.fields = fields

    def field(self, name: str) -> CStructField:
        for f in self.fields or []:
            if f.name == name:
                return f
        raise KeyError(name)

    def field_index(self, name: str) -> int:
        for i, f in enumerate(self.fields or []):
            if f.name == name:
                return i
        raise KeyError(name)

    def field_offset(self, name: str) -> int:
        offset = 0
        for f in self.fields or []:
            if self.is_union:
                if f.name == name:
                    return 0
                continue
            offset = _round_up(offset, f.type.align)
            if f.name == name:
                return offset
            offset += f.type.size

        raise KeyError(name)

    @property
    def size(self) -> int:
        if self.fields is None:
            raise TypeError(f"struct {self.tag} is incomplete")
        if self.is_union:
            body = max((f.type.size for f in self.fields), default=0)
            return _round_up(body, self.align)
        offset = 0
        for f in self.fields:
            offset = _round_up(offset, f.type.align)
            offset += f.type.size
        return _round_up(offset, self.align)

    @property
    def align(self) -> int:
        if self.fields is None:
            raise TypeError(f"struct {self.tag} is incomplete")
        return max((f.type.align for f in self.fields), default=1)

    def __str__(self) -> str:
        keyword = "union" if self.is_union else "struct"
        return f"{keyword} {self.tag}"


class CEnum(CType):
    """Enums have int size; enumerator values live in the scope."""

    size = 4
    align = 4

    def __init__(self, tag: str | None):
        self.tag = tag or "anon"

    def _key(self):
        return (id(self),)

    def __str__(self) -> str:
        return f"enum {self.tag}"


class CFunc(CType):
    __slots__ = ("ret", "params", "is_varargs")

    def __init__(self, ret: CType, params: list[CType],
                 is_varargs: bool = False):
        self.ret = ret
        self.params = list(params)
        self.is_varargs = is_varargs

    def _key(self):
        return (self.ret, tuple(self.params), self.is_varargs)

    @property
    def size(self) -> int:
        raise TypeError("function type has no size")

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.is_varargs:
            params = f"{params}, ..." if params else "..."
        return f"{self.ret} (*)({params})"


# Singletons for the common types.
VOID = CVoid()
BOOL = CInt("bool", signed=False)
CHAR = CInt("char", signed=True)
UCHAR = CInt("char", signed=False)
SHORT = CInt("short")
USHORT = CInt("short", signed=False)
INT = CInt("int")
UINT = CInt("int", signed=False)
LONG = CInt("long")
ULONG = CInt("long", signed=False)
LONGLONG = CInt("longlong")
ULONGLONG = CInt("longlong", signed=False)
FLOAT = CFloat(32)
DOUBLE = CFloat(64)


def is_integer(t: CType) -> bool:
    return isinstance(t, (CInt, CEnum))


def is_arithmetic(t: CType) -> bool:
    return isinstance(t, (CInt, CEnum, CFloat))


def is_scalar(t: CType) -> bool:
    return is_arithmetic(t) or isinstance(t, CPointer)


def as_int(t: CType) -> CInt:
    """Normalize enums to int for arithmetic purposes."""
    if isinstance(t, CEnum):
        return INT
    assert isinstance(t, CInt)
    return t


def integer_promote(t: CType) -> CType:
    """C integer promotions: small ints become int."""
    it = as_int(t)
    if it.rank < INT.rank or it.kind == "bool":
        return INT
    return it


def usual_arithmetic_conversion(lhs: CType, rhs: CType) -> CType:
    """The usual arithmetic conversions (C11 6.3.1.8), LP64 flavour."""
    if isinstance(lhs, CFloat) or isinstance(rhs, CFloat):
        lbits = lhs.bits if isinstance(lhs, CFloat) else 0
        rbits = rhs.bits if isinstance(rhs, CFloat) else 0
        return DOUBLE if max(lbits, rbits) == 64 else FLOAT
    left = as_int(integer_promote(lhs))
    right = as_int(integer_promote(rhs))
    if left == right:
        return left
    if left.signed == right.signed:
        return left if left.rank >= right.rank else right
    signed, unsigned = (left, right) if left.signed else (right, left)
    if unsigned.rank >= signed.rank:
        return unsigned
    if signed.size > unsigned.size:
        return signed
    return CInt(signed.kind, signed=False)
