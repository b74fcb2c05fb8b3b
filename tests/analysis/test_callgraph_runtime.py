"""Call-graph ground truth against the corpus and the runtime.

Two obligations: every direct call in every corpus program resolves to
a definition or a known intrinsic (``unresolved_direct`` stays empty),
and the Andersen points-to resolution of indirect calls *covers* what
the interpreter's inline caches actually dispatch to — the observed
target set at each site is a subset of the static one."""

import glob
import os

import pytest

from repro.analysis.interproc import CallGraph
from repro.core import SafeSulong
from repro.obs.observer import Observer

pytestmark = pytest.mark.lint

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def _corpus():
    patterns = [os.path.join(REPO_ROOT, "src", "repro", "bench",
                             "programs", "*.c"),
                os.path.join(REPO_ROOT, "examples", "*.c")]
    paths = sorted(path for pattern in patterns
                   for path in glob.glob(pattern))
    assert paths, "corpus not found"
    return paths


@pytest.mark.parametrize("path", _corpus(),
                         ids=[os.path.basename(p) for p in _corpus()])
def test_corpus_direct_calls_all_resolve(path):
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    module = SafeSulong().compile(source,
                                  filename=os.path.basename(path))
    graph = CallGraph(module)
    assert graph.unresolved_direct == []


DISPATCH_TABLE = """
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int mul(int a, int b) { return a * b; }
typedef int (*binop)(int, int);
static binop TABLE[3] = { add, sub, mul };
int main(void) {
    int r = 0;
    for (int i = 0; i < 3; i++)
        r += TABLE[i](r + 3, 2);
    return r;
}
"""

CALLBACK_ARGUMENT = """
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
int apply(int (*f)(int), int x) { return f(x); }
int main(void) {
    return apply(twice, 5) + apply(thrice, 7);
}
"""


@pytest.mark.differential
@pytest.mark.parametrize("source", [DISPATCH_TABLE, CALLBACK_ARGUMENT],
                         ids=["dispatch-table", "callback-argument"])
def test_runtime_icall_targets_within_static_resolution(source):
    observer = Observer(enabled=True)
    engine = SafeSulong(observer=observer, jit_threshold=10**9)
    module = engine.compile(source, filename="icall.c")
    # The graph must be built on the very module the interpreter runs:
    # sites are identified by object identity.
    graph = CallGraph(module)
    result = engine.run_module(module)
    assert result.status in (0, None) or result.status >= 0
    assert not result.detected_bug
    assert observer.icall_targets, "no indirect dispatch observed"
    for site_id, observed in observer.icall_targets.items():
        site = graph.indirect_sites.get(site_id)
        assert site is not None, "runtime saw a site the graph missed"
        assert observed <= site.targets, (
            f"runtime dispatched to {sorted(observed - site.targets)} "
            f"at a site the static resolution does not cover")
