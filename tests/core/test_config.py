"""EngineConfig: the one list of engine options and its projections."""

from repro.__main__ import build_parser
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
    config = EngineConfig(speculate=True, max_heap_bytes=1024)
    assert EngineConfig.from_json(config.to_json()) == config
    assert "elide_checks" not in config.to_json()


def test_retired_elide_checks_requests_the_optimized_tier():
    # Wire dicts and manifests written while static elision ran still
    # parse: the retired option is a spelling of speculate.
    assert EngineConfig.from_json({"elide_checks": True}) == \
        EngineConfig(speculate=True)
    assert EngineConfig.from_json({"elide_checks": False}) == \
        EngineConfig()


def test_elide_flag_spells_speculate():
    def config(*argv):
        return EngineConfig.from_args(
            build_parser().parse_args(["run", *argv, "a.c"]))
    assert config("--elide") == config("--speculate")
    assert config("--elide").speculate is True


def test_speculate_descends_to_full_checks_then_the_interpreter():
    config = EngineConfig(speculate=True, jit_threshold=3)
    assert [(name, rung.speculate, rung.jit_threshold)
            for name, rung in config.descend()] == [
        ("as-requested", True, 3), ("full-checks", False, 3),
        ("interpreter", False, None)]
