"""Store-level behaviour: tiers, envelope verification, maintenance.

Everything here works on :class:`repro.cache.store.CacheStore` directly
with synthetic payloads — no engine involved — so each property of the
storage layer (atomic visibility, LRU bound, reject-on-any-mismatch,
write-failure degradation) is pinned in isolation.
"""

import json
import os

from repro.cache.store import (ANALYSIS, FRONTEND, RETIRED,
                               SCHEMA_VERSION, CacheStore, hash_key)

KEY = hash_key("test", "payload")
PAYLOAD = {"answer": 42, "nested": {"list": [1, 2, 3]}}


def test_round_trip_memory_tier(tmp_path):
    store = CacheStore(str(tmp_path))
    store.put(ANALYSIS, KEY, PAYLOAD)
    assert store.get(ANALYSIS, KEY) == PAYLOAD
    assert store.stats.stores == 1
    assert store.stats.hits == 1


def test_round_trip_disk_tier(tmp_path):
    CacheStore(str(tmp_path)).put(FRONTEND, KEY, PAYLOAD)
    fresh = CacheStore(str(tmp_path))  # empty memory tier
    assert fresh.get(FRONTEND, KEY) == PAYLOAD
    assert fresh.stats.hits == 1
    # The disk hit warms the LRU: a second get is a memory hit.
    value, outcome, tier = fresh.fetch(FRONTEND, KEY)
    assert (value, outcome, tier) == (PAYLOAD, "hit", "memory")


def test_miss_is_counted(tmp_path):
    store = CacheStore(str(tmp_path))
    assert store.get(FRONTEND, KEY) is None
    assert store.stats.misses == 1
    assert store.stats.hits == 0


def test_classes_are_disjoint(tmp_path):
    store = CacheStore(str(tmp_path))
    store.put(ANALYSIS, KEY, PAYLOAD)
    fresh = CacheStore(str(tmp_path))
    assert fresh.get(FRONTEND, KEY) is None


def test_memory_only_store():
    store = CacheStore(None)
    store.put(ANALYSIS, KEY, PAYLOAD)
    assert store.get(ANALYSIS, KEY) == PAYLOAD
    assert store.disk_usage()[ANALYSIS]["entries"] == 0


def test_memory_lru_bound(tmp_path):
    store = CacheStore(str(tmp_path), memory_entries=4)
    keys = [hash_key("entry", i) for i in range(8)]
    for key in keys:
        store.put(ANALYSIS, key, {"i": key})
    assert len(store._memory) == 4
    # Evicted entries still come back from disk.
    assert store.get(ANALYSIS, keys[0]) == {"i": keys[0]}


def _entry_path(store: CacheStore, artifact_class: str, key: str) -> str:
    path = store._entry_path(artifact_class, key)
    assert os.path.isfile(path)
    return path


def test_reject_garbage_bytes(tmp_path):
    store = CacheStore(str(tmp_path))
    store.put(FRONTEND, KEY, PAYLOAD)
    path = _entry_path(store, FRONTEND, KEY)
    with open(path, "wb") as handle:
        handle.write(b"\x00\xff not json at all")
    fresh = CacheStore(str(tmp_path))
    assert fresh.get(FRONTEND, KEY) is None
    assert fresh.stats.rejects == 1


def test_reject_truncation(tmp_path):
    store = CacheStore(str(tmp_path))
    store.put(FRONTEND, KEY, PAYLOAD)
    path = _entry_path(store, FRONTEND, KEY)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)
    fresh = CacheStore(str(tmp_path))
    assert fresh.get(FRONTEND, KEY) is None
    assert fresh.stats.rejects == 1


def _rewrite_envelope(path: str, **overrides) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        envelope = json.load(handle)
    envelope.update(overrides)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)


def test_reject_schema_mismatch(tmp_path):
    store = CacheStore(str(tmp_path))
    store.put(FRONTEND, KEY, PAYLOAD)
    _rewrite_envelope(_entry_path(store, FRONTEND, KEY),
                      schema=SCHEMA_VERSION + 1)
    fresh = CacheStore(str(tmp_path))
    assert fresh.get(FRONTEND, KEY) is None
    assert fresh.stats.rejects == 1


def test_reject_key_mismatch(tmp_path):
    store = CacheStore(str(tmp_path))
    store.put(FRONTEND, KEY, PAYLOAD)
    _rewrite_envelope(_entry_path(store, FRONTEND, KEY),
                      key=hash_key("other"))
    fresh = CacheStore(str(tmp_path))
    assert fresh.get(FRONTEND, KEY) is None


def test_reject_poisoned_payload(tmp_path):
    # A tampered payload whose recorded hash no longer matches: the
    # entry verifies the content, not just the shape.
    store = CacheStore(str(tmp_path))
    store.put(FRONTEND, KEY, PAYLOAD)
    path = _entry_path(store, FRONTEND, KEY)
    with open(path, "r", encoding="utf-8") as handle:
        envelope = json.load(handle)
    envelope["payload"]["answer"] = 666
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
    fresh = CacheStore(str(tmp_path))
    assert fresh.get(FRONTEND, KEY) is None
    assert fresh.stats.rejects == 1


def test_unwritable_root_degrades_to_memory(tmp_path):
    # Root path nested under a regular *file*: makedirs raises OSError,
    # which must degrade the store to memory-only, never fail the put.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    store = CacheStore(str(blocker / "cache"))
    store.put(ANALYSIS, KEY, PAYLOAD)
    assert store.get(ANALYSIS, KEY) == PAYLOAD  # memory tier still works
    assert store.stats.stores == 0             # no disk store recorded


def test_disk_usage_and_clear(tmp_path):
    store = CacheStore(str(tmp_path))
    for i in range(3):
        store.put(ANALYSIS, hash_key("usage", i), {"i": i})
    store.put(FRONTEND, KEY, PAYLOAD)
    usage = store.disk_usage()
    assert usage[ANALYSIS]["entries"] == 3
    assert usage[FRONTEND]["entries"] == 1
    assert usage[FRONTEND]["bytes"] > 0
    assert store.clear() == 4
    assert store.get(FRONTEND, KEY) is None
    assert store.disk_usage()[ANALYSIS]["entries"] == 0


def test_observer_counters_and_events(tmp_path):
    from repro.obs.observer import Observer
    observer = Observer(enabled=True)
    store = CacheStore(str(tmp_path))
    store.observer = observer
    store.put(FRONTEND, KEY, PAYLOAD)      # store
    store.get(FRONTEND, KEY)               # hit (memory)
    store.get(FRONTEND, hash_key("none"))  # miss
    assert observer.counters["cache.store"] == 1
    assert observer.counters["cache.hit"] == 1
    assert observer.counters["cache.miss"] == 1
    assert observer.counters["cache.frontend.hit"] == 1
    kinds = [event["event"] for event in observer.events]
    assert "cache-hit" in kinds and "cache-miss" in kinds


def test_prune_evicts_oldest_until_under_cap(tmp_path):
    store = CacheStore(str(tmp_path))
    keys = [hash_key("prune", i) for i in range(6)]
    for n, key in enumerate(keys):
        store.put(ANALYSIS, key, {"i": n, "pad": "x" * 512})
        # Deterministic mtime order: keys[0] is the coldest entry.
        os.utime(store._entry_path(ANALYSIS, key), (n, n))
    total = store.disk_usage()[ANALYSIS]["bytes"]
    removed = store.prune(total // 2)
    assert removed >= 3
    assert store.disk_usage()[ANALYSIS]["bytes"] <= total // 2
    # The warm end of the working set survives...
    assert store.get(ANALYSIS, keys[-1]) == {"i": 5, "pad": "x" * 512}
    # ...the cold end is gone from disk AND from the memory tier (a
    # pruned artifact must not linger in one process's LRU).
    assert store.get(ANALYSIS, keys[0]) is None
    fresh = CacheStore(str(tmp_path))
    assert fresh.get(ANALYSIS, keys[0]) is None


def test_prune_is_a_noop_under_the_cap(tmp_path):
    store = CacheStore(str(tmp_path))
    store.put(ANALYSIS, KEY, PAYLOAD)
    assert store.prune(10 * 1024 * 1024) == 0
    assert store.get(ANALYSIS, KEY) == PAYLOAD


def test_prune_memory_only_store_is_safe():
    assert CacheStore(None).prune(1) == 0


def _store_with_retired_entries(root: str) -> CacheStore:
    # Stores written before the prepare and JIT tiers were removed hold
    # entries under those class names; nothing writes them any more.
    store = CacheStore(root)
    for artifact_class in RETIRED:
        store.put(artifact_class, KEY, PAYLOAD)
    return store


def test_clear_removes_retired_classes(tmp_path):
    store = _store_with_retired_entries(str(tmp_path))
    usage = store.disk_usage()
    assert [usage[cls]["entries"] for cls in RETIRED] == [1] * len(RETIRED)
    assert store.clear() == len(RETIRED)
    for artifact_class in RETIRED:
        assert not os.path.exists(os.path.join(store.root, artifact_class))
    assert set(store.disk_usage()) == {FRONTEND, ANALYSIS}


def test_prune_evicts_retired_classes(tmp_path):
    store = _store_with_retired_entries(str(tmp_path))
    assert store.prune(0) == len(RETIRED)
    for artifact_class in RETIRED:
        assert not os.path.exists(store._entry_path(artifact_class, KEY))
    assert sum(row["bytes"] for row in store.disk_usage().values()) == 0
