"""Correctness-preserving compilation cache.

Two content-addressed artifact classes over one two-tier store
(:mod:`repro.cache.store`):

``frontend``
    C source → serialized IR (textual printer dialect).  Skips all of
    ``repro.cfront`` on a hit; include-file manifest re-verified per
    lookup (:mod:`repro.cache.frontend`).
``analysis``
    One call-graph SCC's interprocedural summaries, plus its findings
    (lint pipeline) or its members' check-elision marks by instruction
    ordinal (elision pipeline), keyed by the members' IR hashes and the
    digests of the callee summaries it consumed
    (:mod:`repro.analysis.interproc.driver`).  Marks that do not fit
    their function are rejected like any other bad entry.

Node trees and generated JIT code are not cached: nodes are closures
over the live runtime, so no stored plan lets a process skip building
them, and most of a JIT compile is Python's ``compile()`` of the
generated source, which cached source would still pay.  Stores written
by older versions hold ``prepare/`` and ``jit/`` directories
(``store.RETIRED``); ``clear`` and ``prune`` walk them too.

Every artifact embeds its key and schema version and is re-verified on
load; anything suspect is discarded and the cold path runs, so the
cache can change speed but never semantics.

:class:`CompilationCache` is the facade the engine sees;
:func:`resolve_cache` turns user intent (flags, env vars) into a cache
instance, memoizing one instance per resolved directory so every engine
in a process shares one in-memory tier.
"""

from __future__ import annotations

import os

from . import frontend as _frontend
from .store import (ANALYSIS, CacheStore, cache_disabled_by_env,
                    default_cache_dir)

__all__ = [
    "CompilationCache", "get_cache", "resolve_cache",
    "default_cache_dir", "cache_disabled_by_env",
]


class CompilationCache:
    """Facade over one :class:`CacheStore` for the two artifact
    tiers.  ``observer`` is forwarded to the store so cache events are
    attributed to whichever engine is currently running."""

    def __init__(self, root: str | None, memory_entries: int = 256):
        self.store = CacheStore(root, memory_entries=memory_entries)

    @property
    def root(self):
        return self.store.root

    @property
    def stats(self):
        return self.store.stats

    @property
    def observer(self):
        return self.store.observer

    @observer.setter
    def observer(self, obs):
        self.store.observer = obs

    # -- frontend tier ------------------------------------------------------

    def compile_source(self, text: str, filename: str = "<memory>",
                       include_dirs: list[str] | None = None,
                       defines: dict[str, str] | None = None,
                       module_name: str | None = None):
        from ..obs.spans import span
        with span("cache:frontend", file=filename):
            return _frontend.compile_source_cached(
                self.store, text, filename=filename,
                include_dirs=include_dirs, defines=defines,
                module_name=module_name)

    # -- analysis tier ------------------------------------------------------

    def get_analysis(self, key: str):
        from ..obs.spans import span
        with span("cache:analysis", key=key[:12]):
            return self.store.get(ANALYSIS, key)

    def put_analysis(self, key: str, payload: dict) -> None:
        self.store.put(ANALYSIS, key, payload)

    # -- maintenance --------------------------------------------------------

    def disk_usage(self) -> dict:
        return self.store.disk_usage()

    def clear(self) -> int:
        return self.store.clear()

    def prune(self, max_bytes: int) -> int:
        return self.store.prune(max_bytes)


_INSTANCES: dict[str, CompilationCache] = {}


def get_cache(root: str) -> CompilationCache:
    """One shared instance per directory, so every engine in this
    process shares the in-memory tier (and the stats)."""
    resolved = os.path.abspath(root)
    cache = _INSTANCES.get(resolved)
    if cache is None:
        cache = CompilationCache(resolved)
        _INSTANCES[resolved] = cache
    return cache


def resolve_cache(cache_dir: str | None = None,
                  enabled: bool = True) -> CompilationCache | None:
    """Turn user intent into a cache instance (or None when disabled).

    Precedence: explicit ``enabled=False`` or ``REPRO_NO_CACHE`` wins;
    then an explicit ``cache_dir`` (or ``REPRO_CACHE_DIR`` via
    :func:`default_cache_dir`)."""
    if not enabled or cache_disabled_by_env():
        return None
    return get_cache(cache_dir or default_cache_dir())
