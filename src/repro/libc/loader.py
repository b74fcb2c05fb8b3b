"""Compiles and caches the bundled safety-first libc (paper §3.1).

The libc is written in standard C (``src/*.c``), performs no unsafe
word-size tricks, and sits on top of the interpreter's intrinsics.  It is
compiled once per process with ``__SAFE_SULONG__`` defined and linked into
every program the managed engine runs.
"""

from __future__ import annotations

import hashlib
import os

from .. import ir
from ..cfront import compile_file

_CACHED: ir.Module | None = None


def libc_dir() -> str:
    return os.path.dirname(os.path.abspath(__file__))


def include_dir() -> str:
    return os.path.join(libc_dir(), "include")


def source_files() -> list[str]:
    src = os.path.join(libc_dir(), "src")
    return sorted(
        os.path.join(src, name) for name in os.listdir(src)
        if name.endswith(".c"))


def _bundle_inputs() -> list[list[str]]:
    """(relative path, sha256) for every file that feeds the libc build
    — the key of the bundle artifact, so any source or header edit is a
    miss by construction (no separate manifest check needed)."""
    include = include_dir()
    paths = list(source_files())
    paths += sorted(os.path.join(include, name)
                    for name in os.listdir(include)
                    if name.endswith(".h"))
    root = libc_dir()
    entries = []
    for path in paths:
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        entries.append([os.path.relpath(path, root), digest])
    return entries


def _load_bundle(cache) -> ir.Module | None:
    """Fetch the combined+linked libc as one frontend-class artifact."""
    from ..cache.store import FRONTEND, hash_key
    from ..ir.parser import IRParseError, parse_module

    key = hash_key("libc-bundle", _bundle_inputs())
    value, outcome, tier = cache.store.fetch(FRONTEND, key)
    if outcome == "hit":
        if tier == "memory":
            cache.store.note("hit", FRONTEND, key, tier)
            return value
        try:
            module = parse_module(value["ir"])
            module.name = "libc"
        except (IRParseError, KeyError, TypeError):
            cache.store.note("reject", FRONTEND, key, tier)
            return None
        cache.store.note("hit", FRONTEND, key, tier)
        cache.store.memory_put(FRONTEND, key, module)
        return module
    cache.store.note(outcome, FRONTEND, key, tier)
    return None


def _store_bundle(cache, module: ir.Module) -> None:
    from ..cache.store import FRONTEND, hash_key
    from ..ir.printer import print_module

    key = hash_key("libc-bundle", _bundle_inputs())
    cache.store.put(FRONTEND, key, {"ir": print_module(module)},
                    memory_value=module)


def libc_module(force_reload: bool = False, cache=None) -> ir.Module:
    """The process's libc module; only an actual load (from the cache's
    bundle) or compile is traced, as ``libc.bundle``."""
    global _CACHED
    if _CACHED is not None and not force_reload:
        return _CACHED
    from ..obs.spans import span
    with span("libc.bundle"):
        module = _load_bundle(cache) if cache is not None else None
        if module is None:
            module = _compile(cache)
    _CACHED = module
    return module


def _compile(cache) -> ir.Module:
    combined: ir.Module | None = None
    for path in source_files():
        module = compile_file(path, include_dirs=[include_dir()],
                              defines={"__SAFE_SULONG__": "1"})
        combined = module if combined is None else combined.link(module)
    if combined is None:
        raise RuntimeError("libc has no source files")
    combined.name = "libc"
    if cache is not None:
        _store_bundle(cache, combined)
    return combined


def function_count() -> int:
    """Number of libc functions we provide (the paper reports 126)."""
    module = libc_module()
    return sum(1 for f in module.functions.values() if f.is_definition)
