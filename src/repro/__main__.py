"""Command-line interface.

Examples:

    # Find bugs with Safe Sulong (the default tool)
    python -m repro run program.c -- arg1 arg2

    # Profile a run: check counts by kind, hot functions, JIT timeline
    python -m repro profile program.c
    python -m repro profile --metrics out.json program.c

    # Compare against the baselines
    python -m repro run --tool asan-O0 program.c
    python -m repro run --tool memcheck-O0 program.c
    python -m repro run --tool clang-O3 program.c

    # Inspect the IR the front end produces (optionally optimized)
    python -m repro emit-ir program.c
    python -m repro emit-ir -O3 program.c

    # Statically lint a program (no execution; CI-friendly exit codes)
    python -m repro lint program.c
    python -m repro lint --json program.c

    # Run the paper's 68-bug study (optionally with worker isolation)
    python -m repro matrix
    python -m repro matrix --jobs 4

    # Inspect / clear the compilation cache (warm-start artifacts)
    python -m repro cache stats
    python -m repro cache clear
    python -m repro run --no-cache program.c

    # Hunt for bugs over an arbitrary corpus, hardened against hostile
    # programs (per-program worker processes, watchdog, quotas)
    python -m repro hunt --jobs 4 --timeout 5 path/to/corpus/
    python -m repro hunt --selftest

    # Deterministically replay a hunt-found bug and emit the
    # LLM-consumable failure slice (CFG path, fault-local registers,
    # alloc/free history, tier divergence)
    python -m repro explain hunt-report.jsonl
    python -m repro explain --format text bug.c
    python -m repro explain --selftest
"""

from __future__ import annotations

import argparse
import base64
import sys

from .core.config import EngineConfig
from .harness import quotas
from .tools import all_runners


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _report_result(result, tool_name: str,
                   heap_dump: bool = False) -> int:
    """Shared exit-code policy for ``repro run`` (documented in the
    subcommand epilog): bug 3, crash 4, step/quota limit 5, wall-clock
    timeout 6, tool-internal error 7."""
    sys.stdout.write(result.stdout.decode("utf-8", "replace"))
    sys.stderr.write(result.stderr.decode("utf-8", "replace"))
    if result.bugs:
        from .obs.provenance import render_bug_report, render_heap_dump
        for bug in result.bugs:
            print(f"=== {tool_name}: {bug}", file=sys.stderr)
            if bug.stack or bug.alloc_site or bug.free_site:
                print(render_bug_report(bug, detector=tool_name),
                      file=sys.stderr)
        if heap_dump and result.runtime is not None:
            print(render_heap_dump(result.runtime), file=sys.stderr)
        return 3
    if result.timed_out:
        print(f"=== {tool_name}: wall-clock timeout", file=sys.stderr)
        return 6
    if result.internal_error:
        print(f"=== {tool_name}: internal tool error: "
              f"{result.internal_error}", file=sys.stderr)
        return 7
    if result.crashed:
        print(f"=== {tool_name}: program crashed: "
              f"{result.crash_message}", file=sys.stderr)
        return 4
    if result.limit_exceeded:
        print(f"=== {tool_name}: {result.crash_message}",
              file=sys.stderr)
        return 5
    return result.status or 0


def _write_metrics(path: str, metrics: dict | None,
                   tool: str) -> None:
    """Write an observer snapshot (or a stub for unobserved tools) as
    JSON to ``path`` (or stdout for ``-``)."""
    import json
    payload = metrics if metrics is not None else {"enabled": False}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"metrics written to {path}", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    from .tools import make_runner
    if args.tool not in all_runners():
        print(f"unknown tool {args.tool!r}; choose from "
              f"{', '.join(all_runners())}", file=sys.stderr)
        return 2
    options = EngineConfig.from_args(args).to_json()
    if args.tool != "safe-sulong" and (
            args.speculate or args.max_heap_bytes):
        print(f"warning: --elide/--speculate/--heap-quota have no "
              f"effect with --tool {args.tool}", file=sys.stderr)
    if args.metrics and args.tool != "safe-sulong":
        print(f"warning: --metrics observes the safe-sulong engine "
              f"only, not --tool {args.tool}", file=sys.stderr)
    if args.track_heap and args.tool != "safe-sulong":
        print(f"warning: --heap-dump needs the managed heap; it has no "
              f"effect with --tool {args.tool}", file=sys.stderr)
    source = _read_source(args.program)
    stdin = sys.stdin.buffer.read() if args.stdin else b""
    # This run's job spec: what --manifest records and what the worker
    # runs under --timeout.
    spec = {"source": source, "filename": args.program,
            "argv": [args.program, *args.args],
            "max_steps": args.max_steps}
    if args.program != "-":
        import os
        spec["path"] = os.path.abspath(args.program)
    if stdin:
        spec["stdin_b64"] = base64.b64encode(stdin).decode("ascii")

    if args.manifest:
        import json
        from .obs.replay import build_manifest
        manifest = build_manifest(spec, tool=args.tool, options=options)
        with open(args.manifest, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"replay manifest written to {args.manifest} "
              f"(replay with: repro explain {args.manifest})",
              file=sys.stderr)

    if args.timeout is not None:
        # Wall-clock enforcement needs a killable process: run the
        # program in one watchdogged harness worker.
        from .harness.pool import run_one
        from .harness.worker import deserialize_result
        if args.track_heap:
            print("warning: --heap-dump is unavailable with --timeout "
                  "(the heap dies with the worker process)",
                  file=sys.stderr)
        payload = dict(spec, id=args.program)
        if args.metrics:
            payload["collect_metrics"] = True
        if args.trace_spans:
            payload["trace_spans"] = True
        record = run_one(payload, tool=args.tool, options=options,
                         timeout=args.timeout)
        if args.trace_spans and record.get("result"):
            from .obs.spans import write_chrome_trace
            write_chrome_trace(args.trace_spans,
                               record["result"].get("spans") or [])
            print(f"trace written to {args.trace_spans}",
                  file=sys.stderr)
        if record["timed_out"]:
            print(f"=== {args.tool}: wall-clock timeout after "
                  f"{args.timeout}s", file=sys.stderr)
            return 6
        if record["result"] is None:
            print(f"=== {args.tool}: internal tool error: "
                  f"{record.get('worker_error')}", file=sys.stderr)
            return 7
        if record["result"].get("compile_error"):
            print(f"=== {args.tool}: "
                  f"{record['result']['compile_error']}", file=sys.stderr)
            return 2
        if args.metrics:
            _write_metrics(args.metrics,
                           record["result"].get("metrics"), args.tool)
        return _report_result(deserialize_result(record["result"]),
                              args.tool)

    observer = None
    if args.metrics and args.tool == "safe-sulong":
        from .obs.observer import Observer
        observer = Observer(enabled=True)
    recorder = previous = None
    if args.trace_spans:
        from .obs.spans import SpanRecorder, set_recorder
        recorder = SpanRecorder(path=args.trace_spans)
        previous = set_recorder(recorder)
    runner = make_runner(args.tool, options, observer=observer)
    try:
        result = runner.run(source, argv=[args.program, *args.args],
                            stdin=stdin, filename=args.program,
                            max_steps=args.max_steps)
    finally:
        if recorder is not None:
            from .obs.spans import set_recorder
            set_recorder(previous)
            recorder.close()
            print(f"trace written to {args.trace_spans}",
                  file=sys.stderr)
    if args.metrics:
        _write_metrics(args.metrics,
                       observer.snapshot() if observer else None,
                       args.tool)
    return _report_result(result, runner.name,
                          heap_dump=args.track_heap)


def cmd_profile(args: argparse.Namespace) -> int:
    from .obs.profile import profile_source, render_profile
    from .obs.profile import DEFAULT_JIT_THRESHOLD
    try:
        source = _read_source(args.program)
    except OSError as error:
        print(f"cannot read {args.program}: {error}", file=sys.stderr)
        return 2
    stdin = sys.stdin.buffer.read() if args.stdin else b""
    # --jit 0 disables the dynamic tier; omitted means the default.
    jit = DEFAULT_JIT_THRESHOLD if args.jit_threshold is None \
        else (args.jit_threshold or None)
    config = EngineConfig.from_args(args)._replace(jit_threshold=jit)
    # --flamegraph needs the call-edge data only lines mode records;
    # --hot-checks needs the per-line check counters from the same mode.
    lines = bool(args.lines or args.flamegraph or args.hot_checks)
    from .cache import resolve_cache
    cache = resolve_cache(config.cache_dir, enabled=config.use_cache)
    recorder = previous = None
    if args.trace_spans:
        from .obs.spans import SpanRecorder, set_recorder
        recorder = SpanRecorder(path=args.trace_spans)
        previous = set_recorder(recorder)
    try:
        result, snapshot = profile_source(
            source, config, filename=args.program,
            argv=[args.program, *args.args], stdin=stdin,
            max_steps=args.max_steps, trace_path=args.trace,
            cache=cache, lines=lines)
    except Exception as error:  # compile/link failure
        print(f"profile failed: {error}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            from .obs.spans import set_recorder
            set_recorder(previous)
            recorder.close()
    if not args.quiet and result.stdout:
        sys.stdout.write(result.stdout.decode("utf-8", "replace"))
        if not result.stdout.endswith(b"\n"):
            sys.stdout.write("\n")
    if args.hot_checks:
        from .obs.profile import render_hot_checks
        print(render_hot_checks(snapshot, [result], top=args.hot_checks,
                                source=source, program=args.program))
    elif lines:
        from .obs.lines import render_lines
        print(render_lines(snapshot, source, args.program,
                           program=args.program))
    else:
        print(render_profile(result, snapshot, program=args.program))
    if result.bugs:
        from .obs.provenance import render_bug_report
        for bug in result.bugs:
            if bug.stack or bug.alloc_site or bug.free_site:
                print(render_bug_report(bug, detector="safe-sulong"),
                      file=sys.stderr)
    if args.track_heap and result.runtime is not None:
        from .obs.provenance import render_heap_dump
        print(render_heap_dump(result.runtime))
    if args.flamegraph:
        from .obs.lines import write_flamegraph
        count = write_flamegraph(args.flamegraph, snapshot)
        print(f"flamegraph ({count} stacks) written to "
              f"{args.flamegraph}", file=sys.stderr)
    if args.metrics:
        _write_metrics(args.metrics, snapshot, "safe-sulong")
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.trace_spans:
        print(f"span trace written to {args.trace_spans}",
              file=sys.stderr)
    return 0


def cmd_hunt(args: argparse.Namespace) -> int:
    from .harness.campaign import (_default_progress, collect_programs,
                                   run_campaign, selftest)
    from .harness.quotas import Quotas

    if args.selftest:
        ok, problems = selftest(timeout=args.timeout or 2.0,
                                jobs=max(2, args.jobs),
                                verbose=not args.quiet)
        for problem in problems:
            print(f"selftest: {problem}", file=sys.stderr)
        print("selftest: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1

    gen_manifests = None
    if args.gen:
        import os
        import tempfile
        from .gen import GenConfig, choose_plant, generate
        gen_dir = tempfile.mkdtemp(prefix="repro-gen-corpus-")
        gen_manifests = {}
        for seed in range(args.gen_seed, args.gen_seed + args.gen):
            program = generate(
                seed, GenConfig(plant=choose_plant(seed,
                                                   args.gen_plant)))
            with open(os.path.join(gen_dir, program.filename), "w",
                      encoding="utf-8") as handle:
                handle.write(program.source)
            # The report record must identify the program by its full
            # (GEN_VERSION, seed, GenConfig) tuple, not just the
            # gen-<seed>.c filename — default knobs drift.
            gen_manifests[program.filename] = program.manifest
        args.paths = list(args.paths) + [gen_dir]
        if not args.quiet:
            print(f"hunt: generated {args.gen} programs "
                  f"(seeds {args.gen_seed}.."
                  f"{args.gen_seed + args.gen - 1}) into {gen_dir}")

    if not args.paths:
        print("hunt: no corpus given (pass directories and/or .c files, "
              "--gen N, or --selftest)", file=sys.stderr)
        return 2
    programs = collect_programs(args.paths)
    if not programs:
        print("hunt: no .c programs found", file=sys.stderr)
        return 2
    try:
        summary = run_campaign(
            programs, tool=args.tool,
            options=EngineConfig.from_args(args).to_json(),
            quotas=Quotas(max_steps=args.max_steps),
            jobs=args.jobs, timeout=args.timeout, retries=args.retries,
            backoff=args.backoff, ladder=not args.no_ladder,
            faults_spec=args.faults, report_path=args.report,
            fresh=args.fresh,
            progress=None if args.quiet else _default_progress,
            collect_metrics=not args.no_metrics,
            trace_spans=args.trace_spans,
            gen_manifests=gen_manifests)
    except ValueError as error:  # bad fault spec and friends
        print(f"hunt: {error}", file=sys.stderr)
        return 2

    triage = summary["triage"]
    print(f"hunted {summary['programs']} programs: "
          f"{triage['bug']} bug, {triage['crash']} crash, "
          f"{triage['ok']} ok, {triage['timeout']} timeout, "
          f"{triage['limit']} limit, "
          f"{triage['compile-error']} compile-error, "
          f"{triage['tool-error']} tool-error"
          + (f" (resumed; {summary['skipped_completed']} already done)"
             if summary.get("resumed") else ""))
    print(f"distinct bugs ({summary['distinct_bugs']}):")
    for bug in summary["bugs"]:
        programs_list = ", ".join(bug["programs"][:5])
        if len(bug["programs"]) > 5:
            programs_list += f", +{len(bug['programs']) - 5} more"
        print(f"  {bug['signature']}  x{bug['count']}  "
              f"[{programs_list}]")
    from .harness.report import format_summary_metrics
    for line in format_summary_metrics(summary):
        print(line)
    print(f"report: {summary['report']}")
    return 1 if triage["tool-error"] else 0


def cmd_explain(args: argparse.Namespace) -> int:
    import json

    from .harness.report import read_report
    from .harness.worker import ProgramError
    from .obs.replay import build_manifest, explain, explain_record
    from .obs.slices import render_text, validate_packet

    if args.selftest:
        from .obs.replay import selftest
        ok, problems = selftest(verbose=not args.quiet)
        for problem in problems:
            print(f"explain selftest: {problem}", file=sys.stderr)
        print("explain selftest: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    if not args.target:
        print("explain: no target given (pass a hunt report .jsonl, a "
              "manifest .json, a C file, or --selftest)",
              file=sys.stderr)
        return 2

    source = None
    if args.source:
        try:
            source = _read_source(args.source)
        except OSError as error:
            print(f"cannot read {args.source}: {error}", file=sys.stderr)
            return 2

    kwargs = dict(budget=args.budget, window=args.window,
                  divergence=args.divergence, max_steps=args.max_steps,
                  cache_dir=args.cache_dir)
    try:
        if args.target.endswith(".jsonl"):
            records, _summary = read_report(args.target)
            if args.id is not None:
                matching = [r for r in records if r["id"] == args.id]
            else:
                matching = [r for r in records if r.get("triage") == "bug"]
            if not matching:
                print("explain: no matching record "
                      + (f"with id {args.id!r}" if args.id
                         else "triaged as a bug")
                      + f" in {args.target} (pick one with --id)",
                      file=sys.stderr)
                return 2
            packet = explain_record(matching[0], source, **kwargs)
        elif args.target.endswith(".json"):
            with open(args.target, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if "manifest_version" not in data:
                # A repro.gen program manifest (`gen generate` writes
                # gen-<seed>.c.json next to each program): wrap it.
                if data.get("seed") is None:
                    print(f"explain: {args.target} is neither a replay "
                          "manifest nor a gen program manifest",
                          file=sys.stderr)
                    return 2
                data = build_manifest({"filename": data.get("filename"),
                                       "gen": data})
            packet = explain(data, source, **kwargs)
        else:
            text = _read_source(args.target)
            manifest = build_manifest({"source": text,
                                       "filename": args.target,
                                       "max_steps": args.max_steps})
            packet = explain(manifest, text, **kwargs)
    except ProgramError as error:
        print(f"explain: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot read {args.target}: {error}", file=sys.stderr)
        return 2

    problems = validate_packet(packet)
    for problem in problems:
        print(f"explain: schema problem: {problem}", file=sys.stderr)
    if args.format == "text":
        rendered = render_text(packet) + "\n"
    else:
        rendered = json.dumps(packet, indent=2, sort_keys=True) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"packet written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    return 1 if problems else 0


def cmd_gen(args: argparse.Namespace) -> int:
    import json
    import os

    from .gen import (GenConfig, choose_plant, generate, reduce_source,
                      sweep)
    from .gen import selftest as gen_selftest
    from .gen.reduce import oracle_predicate

    if args.selftest:
        ok, problems = gen_selftest(count=args.count or 200,
                                    base_seed=args.seed,
                                    verbose=not args.quiet)
        for problem in problems:
            print(f"gen selftest: {problem}", file=sys.stderr)
        print("gen selftest: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1

    command = args.gen_command
    if command is None:
        print("gen: pick a subcommand (generate | oracle | reduce | "
              "submit) or --selftest", file=sys.stderr)
        return 2

    if command == "generate":
        os.makedirs(args.out, exist_ok=True)
        for seed in range(args.seed, args.seed + (args.count or 1)):
            program = generate(
                seed, GenConfig(plant=choose_plant(seed, args.plant)))
            path = os.path.join(args.out, program.filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(program.source)
            with open(path + ".json", "w", encoding="utf-8") as handle:
                json.dump(program.manifest, handle, indent=2)
                handle.write("\n")
            if not args.quiet:
                print(path)
        return 0

    if command == "oracle":
        def progress(report):
            if args.quiet:
                return
            if report.is_bug or args.verbose:
                print(report.summary_line())

        summary = sweep(args.count or 1, base_seed=args.seed,
                        plant_mode=args.plant,
                        cache_dir=args.cache_dir,
                        on_report=progress)
        print(summary.table())
        if summary.bugs and args.repro_dir:
            os.makedirs(args.repro_dir, exist_ok=True)
            for report in summary.bugs:
                program = generate(
                    report.seed,
                    GenConfig(plant=choose_plant(report.seed,
                                                 args.plant)))
                source = program.source
                if args.reduce:
                    predicate = oracle_predicate(
                        program.manifest,
                        expected_verdict=report.verdict,
                        cache_dir=args.cache_dir)
                    source = reduce_source(
                        source, predicate,
                        max_steps=args.reduce_steps).source
                path = os.path.join(args.repro_dir,
                                    f"repro-{report.seed}.c")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(source)
                print(f"repro: {path} ({report.verdict})")
        return 0 if summary.ok else 1

    if command == "reduce":
        source = _read_source(args.program)
        manifest = None
        if args.manifest:
            with open(args.manifest, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        predicate = oracle_predicate(manifest,
                                     expected_verdict=args.verdict,
                                     cache_dir=args.cache_dir)
        result = reduce_source(source, predicate,
                               max_steps=args.reduce_steps)
        if args.out and args.out != "-":
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(result.source)
        else:
            sys.stdout.write(result.source)
        print(f"reduce: {result.original_lines} -> "
              f"{result.reduced_lines} lines in {result.steps} steps"
              f" (passes: {', '.join(result.passes) or 'none'})"
              + (" [budget exhausted]" if result.exhausted else ""),
              file=sys.stderr)
        return 0

    if command == "submit":
        from .service.api import _http_json
        base = args.url.rstrip("/")
        accepted = 0
        for seed in range(args.seed, args.seed + (args.count or 1)):
            program = generate(
                seed, GenConfig(plant=choose_plant(seed, args.plant)))
            body = {"source": program.source,
                    "filename": program.filename}
            if args.campaign:
                body["campaign"] = args.campaign
            response = _http_json("POST", base + "/submit", body)
            accepted += 1
            if not args.quiet:
                print(f"submitted {program.filename} as job "
                      f"{response.get('id')}")
        print(f"gen: submitted {accepted} programs to {base}")
        return 0

    print(f"gen: unknown subcommand {command!r}", file=sys.stderr)
    return 2


def cmd_emit_ir(args: argparse.Namespace) -> int:
    from .ir.printer import print_module
    source = _read_source(args.program)
    if args.native:
        from .native import compile_native
        module = compile_native(source, filename=args.program,
                                opt_level=3 if args.optimize else 0)
    else:
        from .cfront import compile_source
        from .libc import include_dir
        module = compile_source(source, filename=args.program,
                                include_dirs=[include_dir()],
                                defines={"__SAFE_SULONG__": "1"})
        if args.optimize:
            from .opt.pipeline import run_o3
            run_o3(module)
    sys.stdout.write(print_module(module))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (apply_baseline, lint_source, load_baseline,
                           render_json, render_sarif, render_text,
                           write_baseline)
    from .analysis.lint import lint_selftest
    from .cache import resolve_cache

    if args.selftest:
        ok, problems = lint_selftest(verbose=not args.quiet)
        for problem in problems:
            print(f"lint selftest: {problem}", file=sys.stderr)
        print("lint selftest: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    if not args.program:
        print("lint: no program given (pass a .c file, -, or "
              "--selftest)", file=sys.stderr)
        return 2

    try:
        source = _read_source(args.program)
    except OSError as error:
        print(f"cannot read {args.program}: {error}", file=sys.stderr)
        return 2
    cache = resolve_cache(args.cache_dir, enabled=not args.no_cache)
    try:
        diagnostics = lint_source(source, filename=args.program,
                                  interproc=not args.no_interproc,
                                  cache=cache)
    except Exception as error:  # compile/front-end failure
        print(f"lint failed: {error}", file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(args.write_baseline, diagnostics)
        print(f"baseline with {len(diagnostics)} finding(s) written to "
              f"{args.write_baseline}", file=sys.stderr)
        return 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as error:
            print(f"cannot read baseline {args.baseline}: {error}",
                  file=sys.stderr)
            return 2
        diagnostics, suppressed = apply_baseline(diagnostics, baseline)
        if suppressed:
            print(f"{suppressed} baselined finding(s) suppressed",
                  file=sys.stderr)
    output_format = "json" if args.json else args.format
    if output_format == "json":
        print(render_json(diagnostics))
    elif output_format == "sarif":
        print(render_sarif(diagnostics))
    else:
        print(render_text(diagnostics))
    return 1 if diagnostics else 0


def cmd_matrix(args: argparse.Namespace) -> int:
    from .cache import default_cache_dir
    from .corpus import run_matrix
    cache_dir = None if args.no_cache \
        else (args.cache_dir or default_cache_dir())
    matrix = run_matrix(all_runners(), jobs=args.jobs,
                        timeout=args.timeout,
                        collect_metrics=bool(args.metrics),
                        cache_dir=cache_dir)
    if args.metrics:
        _write_metrics(args.metrics, matrix.metrics, "safe-sulong")
    print(matrix.format_table())
    print()
    print("found by Safe Sulong only:",
          ", ".join(sorted(matrix.found_by_neither_baseline())))
    missed = sorted(name for name, row in matrix.outcomes.items()
                    if not row.get("safe-sulong"))
    if missed:
        print(f"DETECTION REGRESSION: safe-sulong missed "
              f"{', '.join(missed)}", file=sys.stderr)
        return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .cache import default_cache_dir, get_cache
    root = args.cache_dir or default_cache_dir()
    if args.action == "path":
        print(root)
        return 0
    cache = get_cache(root)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.root}")
        return 0
    usage = cache.disk_usage()
    print(f"cache: {cache.root}")
    total_entries = total_bytes = 0
    for artifact, row in usage.items():
        total_entries += row["entries"]
        total_bytes += row["bytes"]
        print(f"  {artifact:<9} {row['entries']:>7} entries  "
              f"{row['bytes']:>12,} B")
    print(f"  {'total':<9} {total_entries:>7} entries  "
          f"{total_bytes:>12,} B")
    return 0


def cmd_bench_merge(args: argparse.Namespace) -> int:
    import os

    from .bench import history
    root = args.root or os.getcwd()
    report = history.merge(root)
    state = "appended run" if report["appended"] else "unchanged"
    print(f"{report['path']}: {state} ({report['runs']} runs, "
          f"benchmarks: {', '.join(report['benchmarks']) or 'none'})")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .harness.faults import parse_faults
    from .harness.quotas import Quotas
    from .service.api import selftest, serve

    if args.selftest:
        return selftest(verbose=not args.quiet)
    if not args.state_dir:
        print("serve: --state-dir is required (the durable queue and "
              "bug database live there)", file=sys.stderr)
        return 2
    try:
        fault_plan = parse_faults(args.faults) if args.faults else None
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    return serve(
        args.state_dir, host=args.host, port=args.port,
        verbose=not args.quiet, tool=args.tool,
        options=EngineConfig.from_args(args).to_json(),
        quotas=Quotas(max_steps=args.max_steps), jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries, max_depth=args.max_depth,
        degrade_depth=args.degrade_depth, lease_ttl=args.lease_ttl,
        cache_cap_bytes=args.cache_cap, fault_plan=fault_plan)


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="compilation-cache directory (default "
                             "$REPRO_CACHE_DIR, else ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the compilation cache for this "
                             "invocation (REPRO_NO_CACHE=1 also "
                             "disables it)")


# The engine flags subcommands share: flag -> (dest, metavar, help).
# Each stores under the EngineConfig field it feeds (--max-steps: the
# per-run step budget) for from_args; a None metavar marks a switch.
_ENGINE_FLAGS = {
    "--max-steps": ("max_steps", "N", "interpreter step budget per run"),
    "--heap-quota": ("max_heap_bytes", "BYTES",
                     "live managed-heap budget per run (safe-sulong)"),
    "--call-depth": ("max_call_depth", "FRAMES",
                     "call-depth quota per run (default: the host stack)"),
    "--output-cap": ("max_output_bytes", "BYTES", "program output budget"),
    "--jit": ("jit_threshold", "THRESHOLD",
              "enable the dynamic tier at N calls (safe-sulong)"),
    "--elide": ("speculate", None,
                "the older spelling of --speculate (safe-sulong)"),
    "--speculate": ("speculate", None,
                    "run the optimized tier: the safe-O2 clone with "
                    "every check, whose JIT-compiled loops may drop "
                    "checks under a guard that deoptimizes; hunt and "
                    "serve degrade it to full checks (safe-sulong)"),
    "--heap-dump": ("track_heap", None,
                    "print a bounded dump of heap objects with their "
                    "allocation/free sites (run: on a bug; safe-sulong)"),
    "--prescreen": ("prescreen", None,
                    "lint each program and record the findings on its "
                    "report record"),
}
# hunt and serve default to the harness budget.
_CAMPAIGN_DEFAULTS = {"--max-steps": quotas.DEFAULT_MAX_STEPS,
                      "--heap-quota": quotas.DEFAULT_HEAP_BYTES,
                      "--output-cap": quotas.DEFAULT_OUTPUT_BYTES}


def _add_engine_flags(parser: argparse.ArgumentParser, *flags: str,
                      campaign: bool = False,
                      helps: dict | None = None) -> None:
    """Declare the shared engine ``flags`` on one subcommand.
    ``campaign`` takes the harness budget's defaults; ``helps`` rewords
    a flag the subcommand gives its own meaning."""
    for flag in flags:
        dest, metavar, text = _ENGINE_FLAGS[flag]
        kwargs = {"dest": dest, "help": (helps or {}).get(flag, text)}
        if campaign and flag in _CAMPAIGN_DEFAULTS:
            kwargs["default"] = _CAMPAIGN_DEFAULTS[flag]
            kwargs["help"] += " (default %(default)s)"
        if metavar:
            kwargs.update(type=int, metavar=metavar)
        else:
            kwargs["action"] = "store_true"
        parser.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Safe Sulong (ASPLOS'18) reproduction — find memory "
                    "errors in C programs by abstracting from the native "
                    "execution model.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="compile and run a C program",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: the program's own exit status, or 2 unknown "
               "tool / compile error, 3 bug detected, 4 crash, 5 step "
               "limit or resource quota exceeded, 6 wall-clock timeout, "
               "7 internal tool error")
    run_parser.add_argument("--tool", default="safe-sulong",
                            help="safe-sulong (default), asan-O0, "
                                 "asan-O3, memcheck-O0, memcheck-O3, "
                                 "clang-O0, clang-O3")
    run_parser.add_argument("--stdin", action="store_true",
                            help="forward this process's stdin")
    run_parser.add_argument("--timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="wall-clock watchdog: run in an "
                                 "isolated worker process, kill it "
                                 "after SECONDS (exit 6)")
    _add_engine_flags(run_parser, "--max-steps", "--heap-quota",
                      "--elide", "--speculate", "--heap-dump")
    run_parser.add_argument("--metrics", default=None, metavar="PATH",
                            help="run under an enabled observer and "
                                 "write its snapshot (check/JIT/heap "
                                 "counters) as JSON to PATH (or - for "
                                 "stdout; safe-sulong only)")
    run_parser.add_argument("--trace-spans", default=None, metavar="PATH",
                            help="record compile/execute phase spans "
                                 "and write a Chrome trace_event JSON "
                                 "to PATH (load in chrome://tracing or "
                                 "Perfetto)")
    run_parser.add_argument("--manifest", default=None, metavar="PATH",
                            help="also write a replay manifest that "
                                 "fully determines this run (feed it "
                                 "to `repro explain`)")
    _add_cache_flags(run_parser)
    run_parser.add_argument("program", help="C source file (or - )")
    run_parser.add_argument("args", nargs="*",
                            help="argv for the program (after --)")
    run_parser.set_defaults(handler=cmd_run)

    profile_parser = sub.add_parser(
        "profile", help="run a C program under the observability layer "
                        "and print a profile",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Runs the program once with safe-sulong under an enabled "
               "observer (JIT on by default so the compile timeline has "
               "content) and prints safety-check counts by kind, the "
               "hot-function table, the JIT compile timeline, and heap "
               "pressure.\n"
               "exit codes: 0 profile rendered (whatever the program's "
               "outcome), 2 compile/usage error")
    _add_engine_flags(
        profile_parser, "--jit", "--elide", "--max-steps", "--heap-dump",
        helps={"--jit": "dynamic-tier threshold in calls (default 3; "
                        "pass 0 to disable the JIT)"})
    profile_parser.add_argument("--stdin", action="store_true",
                                help="forward this process's stdin")
    profile_parser.add_argument("--quiet", action="store_true",
                                help="suppress the program's own stdout")
    profile_parser.add_argument("--metrics", default=None,
                                metavar="PATH",
                                help="also write the raw snapshot as "
                                     "JSON to PATH (or - for stdout)")
    profile_parser.add_argument("--trace", default=None, metavar="PATH",
                                help="stream every observer event as "
                                     "JSONL to PATH while running")
    profile_parser.add_argument("--lines", action="store_true",
                                help="per-source-line attribution: "
                                     "annotated source with exact "
                                     "instruction/check/allocation "
                                     "counts (pins the run to the "
                                     "interpreter)")
    profile_parser.add_argument("--flamegraph", default=None,
                                metavar="PATH",
                                help="write collapsed stacks "
                                     "(flamegraph.pl / speedscope "
                                     "format) to PATH; implies --lines")
    profile_parser.add_argument("--hot-checks", type=int, default=0,
                                metavar="N",
                                help="print the top-N check sites by "
                                     "executed-check count, marking "
                                     "those that detected a bug "
                                     "(implies --lines)")
    profile_parser.add_argument("--trace-spans", default=None,
                                metavar="PATH",
                                help="write compile/execute phase spans "
                                     "as Chrome trace_event JSON to "
                                     "PATH")
    _add_cache_flags(profile_parser)
    profile_parser.add_argument("program", help="C source file (or - )")
    profile_parser.add_argument("args", nargs="*",
                                help="argv for the program (after --)")
    profile_parser.set_defaults(handler=cmd_profile)

    hunt_parser = sub.add_parser(
        "hunt", help="batch bug hunt over a corpus, hardened "
                     "(isolation, watchdog, quotas, resume)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Runs every program in its own watchdogged worker "
               "process; outcomes stream into a resumable JSONL report "
               "(see README for the schema).  Re-invoking the same "
               "campaign resumes from the checkpoint; --fresh starts "
               "over.\n"
               "exit codes: 0 campaign complete, 1 tool-internal "
               "failures occurred, 2 usage error")
    hunt_parser.add_argument("paths", nargs="*",
                             help="directories (searched recursively "
                                  "for *.c) and/or C files")
    hunt_parser.add_argument("--tool", default="safe-sulong",
                             help="tool to hunt with (default "
                                  "safe-sulong)")
    hunt_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="worker processes to run in parallel "
                                  "(default 1)")
    hunt_parser.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="per-program wall-clock watchdog "
                                  "(default 10)")
    _add_engine_flags(hunt_parser, "--max-steps", "--heap-quota",
                      "--call-depth", "--output-cap", "--jit", "--elide",
                      "--speculate", "--prescreen", campaign=True)
    hunt_parser.add_argument("--retries", type=int, default=2,
                             help="retries per rung for transient "
                                  "worker failures (default 2)")
    hunt_parser.add_argument("--backoff", type=float, default=0.1,
                             metavar="SECONDS",
                             help="base retry backoff, doubled per "
                                  "retry (default 0.1)")
    hunt_parser.add_argument("--no-ladder", action="store_true",
                             help="disable the degradation ladder "
                                  "(speculate→full-checks, "
                                  "JIT→interpreter)")
    hunt_parser.add_argument("--report",
                             default="hunt-report.jsonl", metavar="PATH",
                             help="JSONL report path (checkpoint goes "
                                  "to PATH.ckpt)")
    hunt_parser.add_argument("--fresh", action="store_true",
                             help="ignore any existing checkpoint and "
                                  "restart the campaign")
    hunt_parser.add_argument("--faults", default=None, metavar="SPEC",
                             help="fault injection spec (kind@job[*N]; "
                                  "kinds: crash, hang, oom, error; also "
                                  "via REPRO_HARNESS_FAULTS)")
    hunt_parser.add_argument("--gen", type=int, default=0, metavar="N",
                             help="generate N seeded programs "
                                  "(repro.gen) and add them to the "
                                  "corpus")
    hunt_parser.add_argument("--gen-seed", type=int, default=0,
                             metavar="SEED",
                             help="first generator seed for --gen "
                                  "(default 0)")
    hunt_parser.add_argument("--gen-plant", default="mixed",
                             choices=("none", "spatial", "temporal",
                                      "mixed"),
                             help="planted-bug mix for --gen programs "
                                  "(default mixed)")
    hunt_parser.add_argument("--selftest", action="store_true",
                             help="run the built-in harness smoke test "
                                  "(tiny corpus with injected faults) "
                                  "and exit")
    hunt_parser.add_argument("--quiet", action="store_true",
                             help="suppress per-program progress lines")
    hunt_parser.add_argument("--no-metrics", action="store_true",
                             help="skip per-run observability metrics "
                                  "(the summary then has no aggregated "
                                  "check/JIT/heap totals)")
    hunt_parser.add_argument("--trace-spans", default=None,
                             metavar="PATH",
                             help="collect per-worker phase spans and "
                                  "merge them into one Chrome "
                                  "trace_event JSON at PATH (one "
                                  "trace process per program)")
    _add_cache_flags(hunt_parser)
    hunt_parser.set_defaults(handler=cmd_hunt)

    lint_parser = sub.add_parser(
        "lint", help="statically lint a C program (no execution)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: 0 no diagnostics, 1 diagnostics found, "
               "2 usage or compile error\n"
               "diagnostic kinds: out-of-bounds, null-dereference, "
               "use-after-free,\n  double-free, invalid-free, "
               "uninitialized-load, memory-leak, bad-cast")
    lint_parser.add_argument("--json", action="store_true",
                             help="machine-readable JSON output "
                                  "(same as --format json)")
    lint_parser.add_argument("--format", default="text",
                             choices=("text", "json", "sarif"),
                             help="output format (sarif = SARIF 2.1.0 "
                                  "for CI annotators)")
    lint_parser.add_argument("--no-interproc", action="store_true",
                             help="per-function analysis only (skip "
                                  "the call-graph/summary pipeline)")
    lint_parser.add_argument("--baseline", default=None, metavar="PATH",
                             help="suppress findings recorded in this "
                                  "baseline file")
    lint_parser.add_argument("--write-baseline", default=None,
                             metavar="PATH",
                             help="record the current findings as "
                                  "accepted and exit 0")
    lint_parser.add_argument("--selftest", action="store_true",
                             help="lint seeded cross-function bugs "
                                  "(and one clean program) and exit")
    lint_parser.add_argument("--quiet", action="store_true",
                             help="suppress per-program selftest lines")
    lint_parser.add_argument("program", nargs="?", default=None,
                             help="C source file (or - )")
    _add_cache_flags(lint_parser)
    lint_parser.set_defaults(handler=cmd_lint)

    emit_parser = sub.add_parser("emit-ir",
                                 help="print the IR for a C program")
    emit_parser.add_argument("-O3", dest="optimize", action="store_true",
                             help="run the -O3 pipeline first")
    emit_parser.add_argument("--native", action="store_true",
                             help="compile for the native model "
                                  "(includes backend folds)")
    emit_parser.add_argument("program")
    emit_parser.set_defaults(handler=cmd_emit_ir)

    matrix_parser = sub.add_parser(
        "matrix", help="run the 68-bug corpus through every tool (§4.1)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: 0 safe-sulong detects every corpus bug, "
               "1 detection regression (CI gate)")
    matrix_parser.add_argument("--jobs", type=int, default=None,
                               metavar="N",
                               help="run each (program, tool) cell in "
                                    "its own watchdogged worker, N in "
                                    "parallel")
    matrix_parser.add_argument("--timeout", type=float, default=None,
                               metavar="SECONDS",
                               help="per-cell watchdog when --jobs is "
                                    "used (default 10)")
    matrix_parser.add_argument("--metrics", default=None, metavar="PATH",
                               help="observe the safe-sulong cells and "
                                    "write the aggregated snapshot as "
                                    "JSON to PATH (or - for stdout)")
    _add_cache_flags(matrix_parser)
    matrix_parser.set_defaults(handler=cmd_matrix)

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the compilation cache",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="actions:\n"
               "  stats  per-artifact-class entry counts and sizes\n"
               "  clear  delete every cached entry\n"
               "  path   print the resolved cache directory")
    cache_parser.add_argument("action",
                              choices=("stats", "clear", "path"))
    cache_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="operate on DIR instead of the "
                                   "default directory")
    cache_parser.set_defaults(handler=cmd_cache)

    serve_parser = sub.add_parser(
        "serve", help="run the bug-hunting service (durable queue, "
                      "persistent bug DB, supervised workers)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Endpoints: POST /submit (JSON task; 202 accepted, 429 "
               "shedding), GET /job/<id> (JSONL stream; ?wait=SECONDS), "
               "GET /bugs (deduplicated bug database), GET /explain/<id> "
               "(replay a completed task into a failure-slice packet; "
               "<id> is a job id or URL-encoded bug signature), "
               "GET /healthz.\n"
               "All durable state lives under --state-dir and survives "
               "kill -9; the bound port is announced in "
               "<state-dir>/serve.json (useful with --port 0).\n"
               "exit codes: 0 clean shutdown (SIGTERM/SIGINT), "
               "1 selftest failure, 2 usage error")
    serve_parser.add_argument("--state-dir", default=None, metavar="DIR",
                              help="durable state directory (queue WAL, "
                                   "bug database, serve.json)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="bind port (default 0: ephemeral, "
                                   "announced in serve.json)")
    serve_parser.add_argument("--tool", default="safe-sulong",
                              help="tool the service hunts with "
                                   "(default safe-sulong)")
    serve_parser.add_argument("--jobs", type=int, default=2, metavar="N",
                              help="worker processes per batch "
                                   "(default 2)")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-task wall-clock watchdog "
                                   "(default 10)")
    serve_parser.add_argument("--retries", type=int, default=2,
                              help="retries per degradation rung "
                                   "(default 2)")
    serve_parser.add_argument("--max-depth", type=int, default=256,
                              metavar="N",
                              help="admission-control bound on "
                                   "incomplete work; past it /submit "
                                   "answers 429 (default 256)")
    serve_parser.add_argument("--degrade-depth", type=int, default=None,
                              metavar="N",
                              help="backlog depth that walks the whole "
                                   "service down the degradation ladder "
                                   "(default max-depth/4)")
    serve_parser.add_argument("--lease-ttl", type=float, default=None,
                              metavar="SECONDS",
                              help="task lease duration; an expired "
                                   "lease is redelivered (default "
                                   "2x timeout)")
    _add_engine_flags(serve_parser, "--max-steps", "--heap-quota",
                      "--output-cap", "--jit", "--elide", "--speculate",
                      campaign=True)
    serve_parser.add_argument("--cache-cap", type=int, default=None,
                              metavar="BYTES",
                              help="prune the shared compilation cache "
                                   "back under BYTES periodically")
    serve_parser.add_argument("--faults", default=None, metavar="SPEC",
                              help="fault injection spec (adds service "
                                   "kinds: worker-kill, db-torn-write, "
                                   "queue-stall)")
    serve_parser.add_argument("--selftest", action="store_true",
                              help="end-to-end smoke: spawn a server, "
                                   "submit a known bug, kill -9, prove "
                                   "the database survived; then exit")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="suppress progress output")
    _add_cache_flags(serve_parser)
    serve_parser.set_defaults(handler=cmd_serve)

    explain_parser = sub.add_parser(
        "explain", help="deterministically replay a bug record and "
                        "emit an LLM-consumable failure slice",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="TARGET is a hunt report (.jsonl — picks --id, else the "
               "first bug record), a replay or gen manifest (.json), "
               "or a C source file.  The run replays pinned to the "
               "reference interpreter tier under a bounded basic-block "
               "recorder; the packet carries the executed CFG path, a "
               "window of block traces with register values near the "
               "fault, the faulting object's allocation/free history, "
               "and — for generated programs — the bisected tier "
               "divergence point.  It is trimmed "
               "farthest-from-fault-first to stay under --budget "
               "bytes (schema: repro.obs.slices.EXPLAIN_SCHEMA).\n"
               "exit codes: 0 packet emitted, 1 packet emitted with "
               "schema problems, 2 usage or replay error")
    explain_parser.add_argument("target", nargs="?", default=None,
                                help="hunt-report .jsonl, manifest "
                                     ".json, or C source file")
    explain_parser.add_argument("--id", default=None, metavar="JOB",
                                help="pick this job id from a .jsonl "
                                     "report (default: first bug "
                                     "record)")
    explain_parser.add_argument("--source", default=None, metavar="PATH",
                                help="program source override when the "
                                     "manifest cannot locate it (digest"
                                     "-verified against the record)")
    explain_parser.add_argument("--format", default="json",
                                choices=("json", "text"),
                                help="packet rendering (default json)")
    explain_parser.add_argument("--budget", type=int, default=64 * 1024,
                                metavar="BYTES",
                                help="hard packet size budget; trimmed "
                                     "farthest-from-fault first "
                                     "(default 65536)")
    explain_parser.add_argument("--window", type=int, default=32,
                                metavar="BLOCKS",
                                help="block-trace ring size: how many "
                                     "blocks before the fault keep "
                                     "register snapshots (default 32)")
    _add_engine_flags(explain_parser, "--max-steps",
                      helps={"--max-steps": "override the recorded "
                                            "interpreter step budget"})
    explain_parser.add_argument("--divergence",
                                action=argparse.BooleanOptionalAction,
                                default=None,
                                help="force the tier-divergence pass on "
                                     "or off (default: on for "
                                     "generated programs)")
    explain_parser.add_argument("--out", default="-", metavar="PATH",
                                help="write the packet here (default "
                                     "stdout)")
    explain_parser.add_argument("--selftest", action="store_true",
                                help="plant a bug, hunt it, explain it "
                                     "from its report line, validate "
                                     "the packet; then exit")
    explain_parser.add_argument("--quiet", action="store_true",
                                help="suppress selftest progress lines")
    _add_cache_flags(explain_parser)
    explain_parser.set_defaults(handler=cmd_explain)

    gen_parser = sub.add_parser(
        "gen", help="generative differential oracle: seeded program "
                    "generation, five-way tier comparison, minimizing "
                    "reduction",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Programs are well-defined by construction, so any "
               "tier disagreement on a clean program is an engine bug "
               "and any planted bug the full-check tier misses is a "
               "detection regression.  Verdicts per program: agree, "
               "planted-caught, planted-missed, divergence.\n\n"
               "examples:\n"
               "  repro gen generate --seed 0 --count 10 --out corpus/\n"
               "  repro gen oracle --count 100 --plant mixed\n"
               "  repro gen oracle --count 50 --repro-dir repros "
               "--reduce\n"
               "  repro gen reduce bad.c --verdict divergence\n"
               "  repro gen submit --url http://localhost:8321 "
               "--count 20\n"
               "  repro gen --selftest")
    gen_parser.add_argument("--selftest", action="store_true",
                            help="fixed-seed acceptance sweep: ≥200 "
                                 "programs, asserts ≥1 planted bug "
                                 "caught and 0 divergences")
    gen_parser.add_argument("--seed", type=int, default=0,
                            help="first seed (default 0)")
    gen_parser.add_argument("--count", type=int, default=None,
                            metavar="N",
                            help="number of consecutive seeds")
    gen_parser.add_argument("--quiet", action="store_true",
                            help="suppress per-program output")
    gen_common = argparse.ArgumentParser(add_help=False)
    gen_common.add_argument("--seed", type=int, default=0,
                            help="first seed (default 0)")
    gen_common.add_argument("--count", type=int, default=None,
                            metavar="N",
                            help="number of consecutive seeds")
    gen_common.add_argument("--quiet", action="store_true",
                            help="suppress per-program output")
    gen_sub = gen_parser.add_subparsers(dest="gen_command")

    gen_generate = gen_sub.add_parser(
        "generate", parents=[gen_common],
        help="write generated programs + manifests to a directory")
    gen_generate.add_argument("--out", default="gen-corpus",
                              metavar="DIR",
                              help="output directory (default "
                                   "gen-corpus)")
    gen_generate.add_argument("--plant", default="none",
                              choices=("none", "spatial", "temporal",
                                       "mixed"),
                              help="planted-bug mix (default none)")

    gen_oracle = gen_sub.add_parser(
        "oracle", parents=[gen_common],
        help="sweep seeds through the five-way differential oracle")
    gen_oracle.add_argument("--plant", default="mixed",
                            choices=("none", "spatial", "temporal",
                                     "mixed"),
                            help="planted-bug mix (default mixed)")
    gen_oracle.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="shared compilation cache directory "
                                 "(warm front end across the sweep)")
    gen_oracle.add_argument("--repro-dir", default=None, metavar="DIR",
                            help="write a repro .c per divergence / "
                                 "planted-miss")
    gen_oracle.add_argument("--reduce", action="store_true",
                            help="minimize each repro before writing "
                                 "it")
    gen_oracle.add_argument("--reduce-steps", type=int, default=1500,
                            metavar="N",
                            help="reducer predicate-evaluation budget "
                                 "(default 1500)")
    gen_oracle.add_argument("--verbose", action="store_true",
                            help="print every verdict, not just bugs")

    gen_reduce = gen_sub.add_parser(
        "reduce", parents=[gen_common],
        help="minimize a program while its oracle verdict is "
             "preserved")
    gen_reduce.add_argument("program", help="C file to reduce "
                                            "(- for stdin)")
    gen_reduce.add_argument("--manifest", default=None, metavar="PATH",
                            help="ground-truth manifest JSON "
                                 "(from gen generate)")
    gen_reduce.add_argument("--verdict", default=None,
                            choices=("agree", "planted-caught",
                                     "planted-missed", "divergence"),
                            help="verdict to preserve (default: "
                                 "whatever the input's verdict is)")
    gen_reduce.add_argument("--out", default="-", metavar="PATH",
                            help="write reduced source here "
                                 "(default stdout)")
    gen_reduce.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="shared compilation cache directory")
    gen_reduce.add_argument("--reduce-steps", type=int, default=1500,
                            metavar="N",
                            help="predicate-evaluation budget "
                                 "(default 1500)")

    gen_submit = gen_sub.add_parser(
        "submit", parents=[gen_common],
        help="POST generated programs to a running repro serve "
             "instance")
    gen_submit.add_argument("--url", required=True,
                            help="service base URL "
                                 "(e.g. http://localhost:8321)")
    gen_submit.add_argument("--plant", default="mixed",
                            choices=("none", "spatial", "temporal",
                                     "mixed"),
                            help="planted-bug mix (default mixed)")
    gen_submit.add_argument("--campaign", default=None,
                            help="campaign tag recorded on each "
                                 "submission")
    gen_parser.set_defaults(handler=cmd_gen)

    bench_parser = sub.add_parser(
        "bench-merge", help="fold BENCH_*.json snapshots into "
                            "BENCH_trajectory.json",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Appends the current per-benchmark snapshots as one run "
               "entry; identical consecutive snapshots are not "
               "re-appended.")
    bench_parser.add_argument("--root", default=None, metavar="DIR",
                              help="directory holding the BENCH_*.json "
                                   "files (default: current directory)")
    bench_parser.set_defaults(handler=cmd_bench_merge)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
