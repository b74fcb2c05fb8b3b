"""One engine configuration: the only list of the options that cross a
process boundary (worker jobs, queue tasks) or appear in a replay
manifest, a campaign fingerprint or a degradation-ladder rung.  It
stores what was requested; the engine applies the implications between
options where it reads one (``SafeSulong.new_runtime``).
"""

from __future__ import annotations

from typing import NamedTuple

# A replay manifest records what can change what a run detects.  A
# campaign fingerprint records what can change a report record: it adds
# ``prescreen`` (static_findings on every record) and drops
# ``track_heap`` (only the local --heap-dump renderer reads it).  The
# cache changes how fast an answer arrives, never which answer.
_NOT_IN_MANIFEST = frozenset({"prescreen", "cache_dir", "use_cache"})
_NOT_IN_FINGERPRINT = frozenset({"track_heap", "cache_dir", "use_cache"})


class EngineConfig(NamedTuple):
    """The safe-sulong engine options (immutable; ``_replace`` edits)."""

    jit_threshold: int | None = None  # JIT at a function's Nth call
    elide_checks: bool = False        # static check elision (opt/elide)
    speculate: bool = False           # speculative elision with deopt
    max_heap_bytes: int | None = None  # quotas; None is unlimited
    max_call_depth: int | None = None
    max_output_bytes: int | None = None
    track_heap: bool = False          # keep heap objects for --heap-dump
    prescreen: bool = False           # hunt: lint findings on records
    cache_dir: str | None = None      # compilation cache (None: default)
    use_cache: bool = False

    @classmethod
    def from_json(cls, data: dict | None) -> EngineConfig:
        """Read a wire dict of any shape written so far: missing fields
        take their defaults, keys that are not fields are ignored."""
        data = data or {}
        return cls(**{name: data[name] for name in cls._fields
                      if name in data})

    @classmethod
    def from_args(cls, args) -> EngineConfig:
        """The config an argparse namespace requests: engine flags store
        under their field's name, and ``--no-cache`` is inverted."""
        values = vars(args)
        if "no_cache" in values:
            values = {**values, "use_cache": not values["no_cache"]}
        return cls.from_json(values)

    def to_json(self) -> dict:
        """The wire dict for worker jobs and queue tasks."""
        return self._asdict()

    def semantic(self) -> dict:
        """The replay-manifest projection: the options that are set."""
        return {name: value for name, value in zip(self._fields, self)
                if value and name not in _NOT_IN_MANIFEST}

    def fingerprint(self) -> dict:
        """The campaign-resume projection, defaults included."""
        return {name: value for name, value in zip(self._fields, self)
                if name not in _NOT_IN_FINGERPRINT}

    def descend(self) -> list[tuple[str, EngineConfig]]:
        """The degradation ladder as ``(rung name, config)`` pairs, from
        the request down to the reference interpreter.  Each descent
        turns an optimization off, never a check: speculation first
        (its guards only add re-checks, so elision stays on), then
        static elision, then the JIT."""
        rungs = [("as-requested", self)]
        current = self
        if current.speculate:
            current = current._replace(speculate=False, elide_checks=True)
            rungs.append(("elide", current))
        if current.elide_checks:
            current = current._replace(elide_checks=False)
            rungs.append(("full-checks", current))
        if current.jit_threshold is not None:
            current = current._replace(jit_threshold=None)
            rungs.append(("interpreter", current))
        return rungs
