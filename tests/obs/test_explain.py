"""`repro explain` tests: the packet schema is pinned byte-stable
across tiers by a golden file, and replaying any hunt record
reproduces the identical triage signature and provenance report.

The golden file (``golden_explain.json``) holds the canonical
``replay`` section for one fixed use-after-free: replay always pins to
the reference interpreter tier, so manifests recorded under *any* tier
configuration must reproduce it byte for byte.  Regenerate after an
intentional schema change with ``REPRO_UPDATE_GOLDEN=1 pytest
tests/obs/test_explain.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.__main__ import build_parser
from repro.core.config import EngineConfig
from repro.harness.triage import signatures
from repro.harness.worker import run_job
from repro.obs.replay import (ReplayError, ReplayMismatch,
                              build_manifest, explain, explain_record,
                              manifest_for_task, replay, resolve_source)
from repro.obs.slices import (DEFAULT_BUDGET, bisect_output_divergence,
                              canonical_packet_bytes, validate_packet)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_explain.json")

# No stdio: keeps the recorded window inside golden.c, so the golden
# file carries no machine-dependent libc source paths.
GOLDEN_C = """\
#include <stdlib.h>

static int mix(int *values, int n) {
    int total = 0;
    int i;
    for (i = 0; i < n; i++)
        total += values[i];
    return total;
}

int main(void) {
    int *p = (int *)malloc(6 * sizeof(int));
    int i;
    for (i = 0; i < 6; i++)
        p[i] = i * 5;
    int keep = mix(p, 6);
    free(p);
    return keep + p[3]; /* use after free */
}
"""

TIER_OPTIONS = [
    {},
    {"jit_threshold": 2},
    {"elide_checks": True},
    {"speculate": True, "elide_checks": True},
]


def _cli_options(*argv: str) -> dict:
    """The engine options dict the CLI builds for ``argv``."""
    return EngineConfig.from_args(build_parser().parse_args(argv)).to_json()


@pytest.mark.parametrize("argv, expected", [
    (("run", "--speculate", "--heap-dump", "a.c"),
     {"speculate": True, "track_heap": True}),
    (("hunt", "--speculate", "--jit", "3", "a.c"),
     {"jit_threshold": 3, "speculate": True,
      "max_heap_bytes": 67108864, "max_output_bytes": 1048576}),
])
def test_manifest_options_match_older_records(argv, expected):
    # Literals recorded before the engine options became one config.
    manifest = build_manifest(options=_cli_options(*argv), source="")
    assert manifest["options"] == expected


def _replay_section(options: dict) -> dict:
    manifest = build_manifest(source=GOLDEN_C, filename="golden.c",
                              options=options, max_steps=100_000)
    packet = explain(manifest, GOLDEN_C, divergence=False)
    assert validate_packet(packet) == []
    return packet["replay"]


def test_explain_golden_file():
    section = _replay_section({})
    text = json.dumps(section, sort_keys=True, indent=1) + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            handle.write(text)
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        want = handle.read()
    assert text == want, (
        "the explain packet's replay section drifted from the golden "
        "file; if the schema change is intentional, regenerate with "
        "REPRO_UPDATE_GOLDEN=1")


@pytest.mark.parametrize("options", TIER_OPTIONS[1:],
                         ids=["jit", "elide", "speculate"])
def test_replay_section_identical_across_tier_manifests(options):
    # Replay pins to the reference interpreter tier regardless of the
    # tier the bug was *found* under, so the slices are byte-stable.
    base = canonical_packet_bytes(_replay_section({}))
    assert canonical_packet_bytes(_replay_section(options)) == base


def test_packet_carries_fault_local_state():
    section = _replay_section({})
    assert section["signatures"] == \
        ["use-after-free@golden.c:18:21#alloc@golden.c:12:32"]
    assert section["window"], "empty block-trace window"
    # The faulting load sits in a main block entered before the mix()
    # call, so both functions appear in the fault-local window.
    functions = {entry["function"] for entry in section["window"]}
    assert "main" in functions and "mix.static" in functions
    assert any(entry["regs"] for entry in section["window"])
    events = [event["event"] for event in section["heap"]["history"]]
    assert events == ["alloc", "free", "fault"]
    assert section["heap"]["history"][0]["size"] == 24
    path = section["cfg_path"]
    assert path["blocks_entered"] > 0
    assert any(fn == "mix.static"
               for fn, _label, _count in path["visits"])


def test_budget_trims_farthest_from_fault_first():
    manifest = build_manifest(source=GOLDEN_C, filename="golden.c",
                              max_steps=100_000)
    packet = explain(manifest, GOLDEN_C, divergence=False, budget=2048)
    assert validate_packet(packet) == []
    assert packet["budget"]["size"] <= 2048
    assert packet["budget"]["trims"], "a 2 KiB budget must trim"
    # The bug identity always survives trimming.
    assert packet["replay"]["signatures"]
    full = explain(manifest, GOLDEN_C, divergence=False)
    assert full["budget"]["trims"] == []


def test_digest_mismatch_refuses_to_explain():
    manifest = build_manifest(source=GOLDEN_C, filename="golden.c",
                              max_steps=100_000)
    with pytest.raises(ReplayMismatch):
        resolve_source(manifest, GOLDEN_C.replace("6", "7"))
    with pytest.raises(ReplayError):
        # No gen tuple, corpus entry, or path: unlocatable.
        resolve_source({"filename": "golden.c"})


def test_bisect_output_divergence():
    # Each mark is (block, stdout length after that block's write):
    # the divergent block is the first whose write extends past the
    # common prefix.
    marks = [(("b", 0), 3), (("b", 1), 7), (("b", 2), 9)]
    assert bisect_output_divergence(marks, 0) == 0
    assert bisect_output_divergence(marks, 2) == 0
    assert bisect_output_divergence(marks, 3) == 1
    assert bisect_output_divergence(marks, 4) == 1
    assert bisect_output_divergence(marks, 8) == 2
    # Prefix covering every mark: not attributable to a recorded block.
    assert bisect_output_divergence(marks, 9) is None
    assert bisect_output_divergence([], 5) is None


def test_gen_manifest_replays_without_source():
    from repro.gen import GenConfig, generate
    program = generate(11, GenConfig(plant="temporal"))
    manifest = build_manifest(source=program.source,
                              filename=program.filename,
                              gen=program.manifest, max_steps=2_000_000)
    # No source given: replay regenerates from the (version, seed,
    # config) tuple and digest-verifies.
    result, recorder, source, _filename = replay(manifest)
    assert source == program.source
    assert recorder is not None and recorder.steps > 0
    wrong = dict(manifest, gen=dict(manifest["gen"], version=999))
    with pytest.raises(ReplayMismatch):
        resolve_source(wrong)


# -- property: hunt records replay to the identical bug ---------------------


def _hunt_record(name: str, source: str) -> dict:
    """One in-process hunt result shaped like a report JSONL line."""
    tool, options = "safe-sulong", {}
    payload = {"id": name, "source": source, "filename": name + ".c",
               "max_steps": 200_000, "tool": tool, "options": options}
    data = run_job(payload)
    return {"id": name, "type": "result", "triage": "bug",
            "signatures": signatures(data), "result": data,
            "manifest": manifest_for_task(payload, tool, options)}


@pytest.mark.parametrize("name,source", [
    ("oob_bug", "#include <stdlib.h>\n"
                "int main(void) {\n"
                "    int *p = malloc(4 * sizeof(int));\n"
                "    return p[4];\n"
                "}\n"),
    ("uaf_bug", "#include <stdlib.h>\n"
                "int main(void) {\n"
                "    int *p = malloc(sizeof(int));\n"
                "    *p = 1;\n"
                "    free(p);\n"
                "    return *p;\n"
                "}\n"),
])
def test_replaying_hunt_record_reproduces_signature(name, source):
    record = _hunt_record(name, source)
    assert record["signatures"], f"{name} did not report a bug"
    # Inline-source tasks have a digest-only manifest (this is how the
    # service stores them); the caller supplies the source.
    packet = explain_record(record, source, divergence=False)
    assert validate_packet(packet) == []
    assert len(canonical_packet_bytes(packet)) <= DEFAULT_BUDGET
    # Identical triage signature...
    assert packet["record"]["matches"]
    assert packet["replay"]["signatures"] == record["signatures"]
    # ...and identical bug provenance, field by field: the replayed
    # worker-shaped bug dicts match what the hunt recorded.
    recorded_bugs = record["result"]["bugs"]
    replayed_bugs = packet["replay"]["bugs"]
    assert len(replayed_bugs) == len(recorded_bugs)
    for recorded, replayed in zip(recorded_bugs, replayed_bugs):
        for key in recorded:
            assert replayed[key] == recorded[key], key
        # The rendered report carries the recorded provenance sites.
        for site in (replayed["alloc_site"], replayed["free_site"]):
            if site:
                assert site in replayed["provenance"]
    # Explaining twice is deterministic.
    again = explain_record(record, source, divergence=False)
    again["budget"] = dict(packet["budget"])
    assert canonical_packet_bytes(again) == canonical_packet_bytes(packet)


@pytest.mark.selftest
def test_explain_selftest():
    from repro.obs.replay import selftest
    ok, problems = selftest(verbose=False)
    assert ok, problems
