"""The front end's output, pinned: preprocess → parse → irgen → link.

``golden_frontend.json`` holds, for libc and for every program of the
shootout, the bug corpus and a fixed gen sample, a digest of the
printed IR linked against libc and a digest of the files its
``#include`` lines pulled in.  All programs are compiled in sequence in
one process, as a matrix or a benchmark compiles them, so the
preprocessor's per-process header memo and the linker's narrowed walk
are both warm.  Regenerate after an intentional change with
``REPRO_UPDATE_GOLDEN=1 pytest tests/cfront/test_golden_frontend.py``.
"""

import hashlib
import json
import os
import re

import pytest

import repro
from repro.bench.harness import PROGRAMS, program_source
from repro.cfront import compile_source
from repro.corpus import ENTRIES
from repro.gen import GenConfig, choose_plant, generate
from repro.ir.printer import print_module
from repro.libc import include_dir, libc_module, loader, source_files

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_frontend.json")
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
DEFINES = {"__SAFE_SULONG__": "1"}

# A global (``@``) or type (``%``) name, and one numeric component of
# it: the front end's process-wide counters (``.str.N``, ``.static.N``,
# ``%anon.N``) keep running between compiles.
_NAME = re.compile(r"[@%][\w.$]+")
_NUMBER = re.compile(r"\.(\d+)(?=\.|$)")


def stable(text: str) -> str:
    """``text`` without what depends on compile order or checkout
    location: counter values are renumbered by first appearance (one
    numbering per sigil, as there is one counter per sigil), and the
    package directory becomes ``<repro>``."""
    numbers: dict = {}

    def rename(match):
        name = match.group(0)
        if name[0] == "%" and not name.startswith("%anon."):
            return name
        return _NUMBER.sub(
            lambda number: ".#%d" % numbers.setdefault(
                (name[0], number.group(1)), len(numbers)), name)

    return _NAME.sub(rename, text).replace(PACKAGE_DIR, "<repro>")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def entry(module, included) -> dict:
    files = "\n".join(f"{path} {sha}" for path, sha in included)
    return {"ir": digest(stable(print_module(module))),
            "included": digest(stable(files))}


def golden_programs():
    """(key, source) of every program pinned after libc."""
    programs = [(f"shootout/{name}", program_source(name))
                for name in PROGRAMS]
    programs += [(f"corpus/{entry.name}", entry.source())
                 for entry in ENTRIES]
    programs += [(f"gen/{seed}", generate(
        seed, GenConfig(plant=choose_plant(seed, "mixed"))).source)
        for seed in range(20)]
    return programs


def frontend_digests() -> dict:
    """libc compiled as the loader compiles it, then every program
    compiled and linked against it as ``SafeSulong.compile`` does."""
    libc = libc_module(force_reload=True)
    included: list = []
    for path in source_files():
        with open(path, "r", encoding="utf-8") as handle:
            compile_source(handle.read(), filename=path,
                           include_dirs=[include_dir()], defines=DEFINES,
                           module_name=os.path.basename(path),
                           include_log=included)
    digests = {"libc": entry(libc, included)}
    for key, source in golden_programs():
        filename = key.replace("/", "-") + ".c"
        included = []
        program = compile_source(source, filename=filename,
                                 include_dirs=[include_dir()],
                                 defines=DEFINES, include_log=included)
        assert key not in digests, key
        digests[key] = entry(libc.link(program, name=filename), included)
    return digests


@pytest.fixture
def restore_libc(monkeypatch):
    monkeypatch.setattr(loader, "_CACHED", loader._CACHED)


def test_frontend_output_matches_golden_file(restore_libc):
    digests = frontend_digests()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, sort_keys=True, indent=1)
            handle.write("\n")
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        want = json.load(handle)
    drifted = sorted(key for key in want.keys() | digests.keys()
                     if want.get(key) != digests.get(key))
    assert not drifted, (
        f"front-end output drifted for {len(drifted)} programs "
        f"(first: {drifted[:5]}); if the change is intentional, "
        "regenerate with REPRO_UPDATE_GOLDEN=1")
