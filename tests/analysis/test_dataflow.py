"""The generic worklist solver: convergence (with widening on domains
of infinite ascending chains) and constant-edge pruning."""

from repro.analysis import IntervalAnalysis
from repro.cfront import compile_source
from repro.ir import instructions as inst
from repro.opt import mem2reg


def function_for(source, name="f"):
    module = compile_source(source, include_dirs=[])
    function = module.functions[name]
    mem2reg.run(function)
    return function


class TestConvergence:
    def test_widening_terminates_on_unbounded_counter(self):
        # Without widening the counter's interval ascends forever
        # ([0,0], [0,1], [0,2], ...); the solver must still reach a
        # fixpoint in finitely many steps.
        function = function_for("""
            int f(int n) {
                int i = 0;
                while (i < n) i++;
                return i;
            }
        """)
        analysis = IntervalAnalysis(function).run()
        assert analysis.result is not None
        for block in analysis.cfg.reverse_postorder:
            assert analysis.result.reached(block)
        # The counter only ever grows from 0, so soundness still allows
        # (and precision demands) a finite lower bound.
        ret = next(i for i in function.instructions()
                   if isinstance(i, inst.Ret))
        interval = analysis.value_interval(ret.value)
        assert interval.lo is not None and interval.lo >= 0

    def test_irreducible_goto_loop_terminates(self):
        function = function_for("""
            int f(int c) {
                int i = 0;
                if (c) goto b;
            a:
                i++;
            b:
                i++;
                if (i < 10) goto a;
                return i;
            }
        """)
        analysis = IntervalAnalysis(function).run()
        assert analysis.result is not None


class TestEdgePruning:
    def test_constant_false_branch_is_unreachable(self):
        function = function_for("""
            int f(void) {
                int x = 1;
                int c = 0;
                if (c) { x = 2; }
                return x;
            }
        """)
        analysis = IntervalAnalysis(function).run()
        dead = [block for block in function.blocks
                if not analysis.result.reached(block)]
        assert dead, "the if(0) arm should be pruned"
        ret = next(i for i in function.instructions()
                   if isinstance(i, inst.Ret))
        interval = analysis.value_interval(ret.value)
        # With the dead assignment pruned, the result is exactly 1.
        assert interval.lo == 1 and interval.hi == 1
