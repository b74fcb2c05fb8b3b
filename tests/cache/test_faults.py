"""Cache fault injection: a damaged store must cost speed, never
correctness.  Uses the harness's deterministic fault machinery
(`repro.harness.faults`) both directly and through a worker campaign.
"""

import os

from repro.cache import CompilationCache
from repro.core import SafeSulong
from repro.harness import faults
from repro.obs.observer import Observer

SOURCE = """
#include <stdio.h>
#include <stdlib.h>
int bump(int v) { return v + 3; }
int main(void) {
    int *p = malloc(2 * sizeof(int));
    p[0] = 1;
    for (int i = 0; i < 30; i++) p[0] = bump(p[0]);
    printf("n=%d\\n", p[0]);
    return p[2];
}
"""


def _run(cache, observer=None):
    engine = SafeSulong(cache=cache, jit_threshold=2, observer=observer)
    return engine.run_source(SOURCE, filename="faulty.c")


def _signatures(result):
    return (result.stdout, result.status,
            [str(bug) for bug in result.bugs])


def test_corrupt_cache_entries_counts(tmp_path):
    root = tmp_path / "cache"
    _run(CompilationCache(str(root)))
    on_disk = sum(1 for _dir, _sub, names in os.walk(root)
                  for name in names if name.endswith(".json"))
    assert on_disk > 0
    assert faults.corrupt_cache_entries(str(root)) == on_disk
    assert faults.corrupt_cache_entries(str(tmp_path / "missing")) == 0
    assert faults.corrupt_cache_entries(None) == 0


def test_corrupted_store_falls_back_silently(tmp_path, libc):
    root = str(tmp_path / "cache")
    reference = _run(CompilationCache(root))
    faults.corrupt_cache_entries(root)

    observer = Observer(enabled=True)
    cache = CompilationCache(root)  # fresh memory tier: disk only
    result = _run(cache, observer=observer)

    # Same program outcome, byte for byte — the cache only lost speed.
    assert _signatures(result) == _signatures(reference)
    assert cache.stats.rejects > 0
    assert cache.stats.hits == 0
    # The reject is observable, and the cold path re-stored entries.
    assert observer.counters["cache.reject"] > 0
    assert any(event["event"] == "cache-reject"
               for event in observer.events)
    assert cache.stats.stores > 0

    # Third run (same configuration, so the same keys — observer
    # counting specializes JIT codegen and is part of the jit key):
    # the re-stored entries serve clean hits again.
    healed = CompilationCache(root)
    assert _signatures(_run(healed, observer=Observer(enabled=True))) \
        == _signatures(reference)
    assert healed.stats.rejects == 0
    assert healed.stats.hits > 0


def test_apply_worker_fault_cache_corrupt(tmp_path, capsys):
    root = str(tmp_path / "cache")
    _run(CompilationCache(root))
    job = {"options": {"cache_dir": root, "use_cache": True}}
    # Must corrupt and *return* (unlike crash/hang): the run proceeds.
    faults.apply_worker_fault("cache-corrupt", job)
    assert "cache corruption" in capsys.readouterr().err
    fresh = CompilationCache(root)
    result = _run(fresh)
    assert fresh.stats.rejects > 0
    assert result.bugs  # the OOB read is still found


def test_cache_corrupt_spec_parses():
    plan = faults.parse_faults("cache-corrupt@0*,crash@9")
    assert plan.fault_for(0, "job-a", 0) == "cache-corrupt"
    assert plan.fault_for(0, "job-a", 3) == "cache-corrupt"
    assert plan.fault_for(9, "job-b", 0) == "crash"


def test_campaign_with_midflight_corruption(tmp_path):
    """Warm a two-program campaign, then re-run it with every worker
    attempt corrupting the shared store first: same triage, same bug
    signatures, rejects visible in the aggregated metrics."""
    from repro.harness.campaign import run_campaign

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "clean.c").write_text(
        "#include <stdio.h>\n"
        "int main(void) { printf(\"ok\\n\"); return 0; }\n")
    (corpus / "oob.c").write_text(
        "#include <stdlib.h>\n"
        "int main(void) {\n"
        "    int *p = malloc(4 * sizeof(int));\n"
        "    return p[4];\n"
        "}\n")
    programs = [("clean", str(corpus / "clean.c")),
                ("oob", str(corpus / "oob.c"))]
    root = str(tmp_path / "cache")
    options = {"use_cache": True, "cache_dir": root}

    warm = run_campaign(programs, options=dict(options), jobs=1,
                        timeout=60.0,
                        report_path=str(tmp_path / "warm.jsonl"),
                        progress=None)
    assert warm["triage"]["bug"] == 1 and warm["triage"]["ok"] == 1

    hurt = run_campaign(programs, options=dict(options), jobs=1,
                        timeout=60.0,
                        faults_spec="cache-corrupt@0*,cache-corrupt@1*",
                        report_path=str(tmp_path / "hurt.jsonl"),
                        progress=None)
    assert hurt["triage"] == warm["triage"]
    assert sorted(bug["signature"] for bug in hurt["bugs"]) \
        == sorted(bug["signature"] for bug in warm["bugs"])
    assert hurt["metrics"]["cache"]["rejects"] > 0
