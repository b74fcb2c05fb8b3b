"""EngineConfig: the one list of engine options and its projections."""

from repro.core.config import EngineConfig


def test_projection_rule():
    # A manifest records what can change what a run detects; a
    # fingerprint also keeps prescreen (it adds static_findings to
    # every record).  Neither depends on the compilation cache.
    config = EngineConfig(jit_threshold=3, prescreen=True,
                          cache_dir="/tmp/cache", use_cache=True)
    manifest = config.semantic()
    fingerprint = config.fingerprint()
    for key in ("prescreen", "cache_dir", "use_cache"):
        assert key not in manifest
    assert fingerprint["prescreen"] is True
    assert "cache_dir" not in fingerprint
    assert "use_cache" not in fingerprint


def test_wire_round_trip_keeps_what_was_requested():
    # The config stores speculate without the elide_checks it implies:
    # the engine applies that where it reads the config.
    config = EngineConfig(speculate=True, max_heap_bytes=1024)
    assert EngineConfig.from_json(config.to_json()) == config
    assert config.to_json()["elide_checks"] is False
