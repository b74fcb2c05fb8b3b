"""Cross-run metrics aggregation (the `repro hunt` report surface).

Workers serialize ``Observer.snapshot()`` into their result payload;
the campaign summary folds every per-program snapshot into one
campaign-wide view: total checks executed, JIT activity, and
heap pressure.  Pure dict math — no engine imports — so the harness
can use it without loading the interpreter.
"""

from __future__ import annotations

def check_breakdown(counters: dict) -> dict:
    """Fold the raw per-site counter keys into the check-overhead view
    used by ``repro profile`` and the campaign summary: every load and
    store checks null and bounds, and pointer arithmetic checks what it
    steps from."""
    accesses = (counters.get("check.load.full", 0)
                + counters.get("check.store.full", 0))
    return {
        "null_checks": accesses + counters.get("check.gep", 0),
        "bounds_checks": accesses,
    }


def aggregate_metrics(snapshots: list[dict]) -> dict | None:
    """Fold per-program observer snapshots into campaign totals.

    Returns ``None`` when no snapshot carried metrics (a campaign run
    with collection off), so summaries can omit the section entirely.
    """
    snapshots = [snap for snap in snapshots
                 if snap and snap.get("enabled")]
    if not snapshots:
        return None
    counters: dict[str, int] = {}
    heap = {"allocs": 0, "frees": 0, "peak_bytes_max": 0,
            "live_bytes": 0}
    jit = {"compiled": 0, "bailouts": 0, "compile_s": 0.0,
           "code_bytes": 0}
    steps = 0
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        steps += snap.get("steps", 0)
        snap_heap = snap.get("heap") or {}
        heap["allocs"] += snap_heap.get("allocs", 0)
        heap["frees"] += snap_heap.get("frees", 0)
        heap["live_bytes"] += snap_heap.get("live_bytes", 0)
        heap["peak_bytes_max"] = max(heap["peak_bytes_max"],
                                     snap_heap.get("peak_bytes", 0))
        snap_jit = snap.get("jit") or {}
        jit["compiled"] += snap_jit.get("compiled", 0)
        jit["bailouts"] += snap_jit.get("bailouts", 0)
        jit["compile_s"] += snap_jit.get("compile_s", 0.0)
        jit["code_bytes"] += snap_jit.get("code_bytes", 0)
    jit["compile_s"] = round(jit["compile_s"], 6)
    return {
        "programs_with_metrics": len(snapshots),
        "checks": check_breakdown(counters),
        "instructions": counters.get("instructions", 0),
        "calls": counters.get("calls", 0),
        "intrinsic_calls": counters.get("intrinsic.calls", 0),
        "steps": steps,
        "heap": heap,
        "jit": jit,
        "cache": cache_breakdown(counters),
        "counters": dict(sorted(counters.items())),
    }


def service_breakdown(counters: dict) -> dict:
    """Service-health totals from the supervisor's counters (the
    ``GET /healthz`` body carries the raw keys; this is the folded
    view the bench harness and dashboards consume)."""
    get = counters.get
    faults = sum(value for key, value in counters.items()
                 if key.startswith("service.fault."))
    return {
        "completed": get("service.complete", 0),
        "bugs": get("service.bugs", 0),
        "lease_expiries": get("service.lease.expired", 0),
        "worker_restarts": get("service.worker.restart", 0),
        "supervisor_restarts": get("service.restart", 0),
        "breaker_opens": get("service.breaker.open", 0),
        "shed": get("service.shed", 0),
        "degrades": get("service.degrade", 0),
        "promotes": get("service.promote", 0),
        "cache_pruned": get("service.cache.pruned", 0),
        "faults_injected": faults,
    }


def cache_breakdown(counters: dict) -> dict:
    """Compilation-cache totals from the raw counters (all zero when no
    cache was attached)."""
    get = counters.get
    return {
        "hits": get("cache.hit", 0),
        "misses": get("cache.miss", 0),
        "rejects": get("cache.reject", 0),
        "stores": get("cache.store", 0),
    }
