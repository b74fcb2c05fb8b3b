"""The compiled tier's code, pinned.

``golden_jit.json`` holds one SHA-256 per defined function of libc, the
shootout programs and the bug corpus: a digest of the Python source the
JIT generates for it on the optimized tier (``speculate=True``,
``jit_threshold=3``), or of the reason it does not compile.  Loop plans, their guards and the raw accesses under them are
all part of that source, so a change to what the speculation analysis
plans, or to how the JIT emits it, shows here.  Regenerate after an
intentional change with
``REPRO_UPDATE_GOLDEN=1 pytest tests/core/test_golden_jit.py``.
"""

import hashlib
import json
import os
import re

from repro.bench.harness import PROGRAMS, program_source
from repro.core import SafeSulong
from repro.core.jit import CompileUnsupported, _Emitter
from repro.corpus import ENTRIES
from repro.libc import libc_module
from repro.obs.slices import _stable_label

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_jit.json")

# Static functions get a process-global rename counter (name.static.N)
# that keeps running between compiles in one process.
_STATIC = re.compile(r"\.static\.\d+")


def golden_programs():
    programs = [(f"shootout/{name}", program_source(name))
                for name in PROGRAMS]
    programs += [(f"corpus/{entry.name}", entry.source())
                 for entry in ENTRIES]
    return programs


def compiled_source(runtime, function) -> str:
    prepared = runtime.prepared_function(function)
    try:
        return _Emitter(runtime, prepared).build()
    except CompileUnsupported as unsupported:
        return f"unsupported: {unsupported}"


def jit_digests() -> dict:
    """Each program compiled and linked as the engine does, then every
    function it defines (libc's once, from the first program) emitted
    on one runtime of the optimized tier."""
    engine = SafeSulong(speculate=True, jit_threshold=3)
    libc = libc_module()
    digests = {}
    for index, (prefix, source) in enumerate(golden_programs()):
        module = engine.compile(
            source, filename=prefix.replace("/", "-") + ".c")
        runtime = engine.new_runtime(module)
        for function in module.functions.values():
            if not function.is_definition:
                continue
            if libc.functions.get(function.name) is function:
                if index:
                    continue
                key = "libc/" + _stable_label(function.name)
            else:
                key = f"{prefix}/{_stable_label(function.name)}"
            assert key not in digests, key
            text = _STATIC.sub(".static", compiled_source(runtime, function))
            digests[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def test_compiled_code_matches_golden_file():
    digests = jit_digests()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, sort_keys=True, indent=1)
            handle.write("\n")
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        want = json.load(handle)
    drifted = sorted(key for key in want.keys() | digests.keys()
                     if want.get(key) != digests.get(key))
    assert not drifted, (
        f"compiled code drifted for {len(drifted)} functions "
        f"(first: {drifted[:5]}); if the change is intentional, "
        "regenerate with REPRO_UPDATE_GOLDEN=1")
