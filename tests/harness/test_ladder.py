"""Degradation-ladder construction: descending disables optimizations,
never checks (pure unit tests — the subprocess descent is in
test_pool.py)."""

from repro.harness.pool import build_ladder


class TestSafeSulongLadder:
    def test_plain_config_has_no_lower_rung(self):
        rungs = build_ladder("safe-sulong", {})
        assert [rung.name for rung in rungs] == ["as-requested"]

    def test_jit_descends_to_interpreter(self):
        rungs = build_ladder("safe-sulong", {"jit_threshold": 5})
        assert [rung.name for rung in rungs] == ["as-requested",
                                                 "interpreter"]
        assert rungs[1].options["jit_threshold"] is None

    def test_elide_then_jit_full_order(self):
        # A wire dict written while static elision ran: its option now
        # requests the optimized tier.
        rungs = build_ladder("safe-sulong",
                             {"elide_checks": True, "jit_threshold": 5})
        assert [rung.name for rung in rungs] == [
            "as-requested", "full-checks", "interpreter"]
        # The middle rung turns speculation off but keeps the JIT; the
        # last rung keeps full checks AND drops the JIT.  No rung ever
        # has fewer checks than the one above it.
        assert rungs[0].options["speculate"] is True
        assert rungs[1].options["speculate"] is False
        assert rungs[1].options["jit_threshold"] == 5
        assert rungs[2].options["speculate"] is False
        assert rungs[2].options["jit_threshold"] is None

    def test_quota_options_survive_descent(self):
        rungs = build_ladder("safe-sulong",
                             {"jit_threshold": 2,
                              "max_heap_bytes": 1024})
        assert all(rung.options["max_heap_bytes"] == 1024
                   for rung in rungs)


class TestBaselineLadder:
    def test_o3_descends_to_o0(self):
        rungs = build_ladder("asan-O3", {})
        assert [(rung.name, rung.tool) for rung in rungs] == [
            ("as-requested", "asan-O3"), ("O0", "asan-O0")]

    def test_o0_has_nowhere_to_go(self):
        rungs = build_ladder("memcheck-O0", {})
        assert len(rungs) == 1

    def test_disabled_ladder_is_single_rung(self):
        rungs = build_ladder("safe-sulong", {"jit_threshold": 5},
                             enabled=False)
        assert [rung.name for rung in rungs] == ["as-requested"]
