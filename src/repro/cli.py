"""Command-line interface: the ``armada`` tool.

Mirrors the workflow of Figure 1:

* ``armada verify FILE``     — run every proof recipe in an Armada file
* ``armada check FILE``      — parse/resolve/type-check only
* ``armada explore FILE``    — enumerate a level's reachable states
* ``armada analyze FILE``    — static race & TSO-robustness analysis
* ``armada compile FILE``    — emit ClightTSO-flavoured C for a level
* ``armada run FILE``        — execute a level on the reference runtime
* ``armada casestudy NAME``  — verify one of the paper's case studies
* ``armada strategies``      — list the registered proof strategies
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import ArmadaError

#: Default proof-cache directory for ``armada verify``.
DEFAULT_CACHE_DIR = ".armada-cache"

#: Default state directory for ``armada serve`` (and the client
#: subcommands' default socket lives inside it).
DEFAULT_SERVE_DIR = ".armada-serve"


def _default_cache_dir() -> str:
    """Resolved at parse time so $ARMADA_CACHE_DIR can redirect it."""
    return os.environ.get("ARMADA_CACHE_DIR", DEFAULT_CACHE_DIR)


def _default_serve_dir() -> str:
    return os.environ.get("ARMADA_SERVE_DIR", DEFAULT_SERVE_DIR)


def _version() -> str:
    """The installed package version, falling back to pyproject.toml
    for source checkouts that were never pip-installed."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        pass
    import re

    pyproject = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        "pyproject.toml",
    )
    try:
        with open(pyproject, encoding="utf-8") as handle:
            match = re.search(
                r'^version\s*=\s*"([^"]+)"', handle.read(), re.MULTILINE
            )
            if match:
                return match.group(1)
    except OSError:
        pass
    return "unknown"


class _VersionAction(argparse.Action):
    """``--version`` that looks the version up only when given: the
    lookup imports ``importlib.metadata`` and searches the installed
    distributions, which no other command needs."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(
            option_strings, dest, nargs=0, default=argparse.SUPPRESS,
            help="show program's version number and exit", **kwargs,
        )

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {_version()}")
        parser.exit()


def _seconds(text: str) -> float:
    """argparse type of a deadline: a finite number of seconds, 0 or
    more (0 is a budget already spent)."""
    import math

    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type of a bound or a count: an integer, 1 or more."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _read_source(path: str) -> str:
    """Read a program file, exiting 1 with a one-line error on failure
    instead of tracebacking."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (FileNotFoundError, IsADirectoryError, PermissionError,
            UnicodeDecodeError, OSError) as error:
        print(f"armada: cannot read {path}: {error}", file=sys.stderr)
        raise SystemExit(1)


def _level_context(checked, name: str | None):
    """The context of level *name* (default: the program's first
    level), exiting 1 with the valid level names on an unknown one."""
    level = name or checked.program.levels[0].name
    ctx = checked.contexts.get(level)
    if ctx is None:
        names = ", ".join(l.name for l in checked.program.levels)
        print(f"no level named {level} (levels: {names})",
              file=sys.stderr)
        raise SystemExit(1)
    return ctx


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.lang.frontend import check_program

    source = _read_source(args.file)
    checked = check_program(source, args.file)
    print(f"checked {len(checked.program.levels)} level(s), "
          f"{len(checked.program.proofs)} proof(s)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.farm import FarmConfig, VerificationFarm
    from repro.lang.frontend import check_program
    from repro.obs import OBS
    from repro.proofs.engine import ProofEngine

    source = _read_source(args.file)
    farm = VerificationFarm(
        FarmConfig(
            cache_dir=None if args.no_cache else args.cache,
            cache_max_bytes=args.cache_max_bytes,
            obligation_timeout=args.obligation_timeout,
            chain_deadline=args.chain_deadline,
        )
    )
    if args.trace:
        try:
            OBS.enable(args.trace)
        except OSError as error:
            print(f"armada: cannot write trace {args.trace}: {error}",
                  file=sys.stderr)
            return 1
    try:
        checked = check_program(source, args.file)
        engine = ProofEngine(
            checked, max_states=args.max_states,
            validate_refinement=args.validate, farm=farm,
            memory_model=args.memory_model, compiled=args.compiled,
        )
    except BaseException:
        OBS.disable()
        raise
    # Graceful drain: on SIGTERM/SIGINT the farm finishes the in-flight
    # obligation and short-circuits the rest as inconclusive.  Every
    # settled verdict is already in the proof cache, so the same
    # command re-run with the same --cache resumes instead of
    # restarting.
    import signal as _signal

    def _drain(signum: int, frame: object) -> None:
        if farm.shutdown_requested:
            # Second signal: the user means it — let the default
            # disposition take over.
            _signal.signal(signum, _signal.SIG_DFL)
            _signal.raise_signal(signum)
            return
        farm.request_shutdown()
        print(
            "armada: drain requested — finishing the in-flight "
            "obligation (signal again to abort immediately)",
            file=sys.stderr,
        )

    previous_handlers = {}
    for signum in (_signal.SIGTERM, _signal.SIGINT):
        try:
            previous_handlers[signum] = _signal.signal(signum, _drain)
        except (ValueError, OSError):
            pass  # not the main thread
    try:
        outcome = engine.run_all()
    finally:
        for signum, handler in previous_handlers.items():
            try:
                _signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        if args.trace:
            OBS.disable()
            print(f"trace written to {args.trace} "
                  f"(inspect with: armada stats {args.trace})")
    for result in outcome.outcomes:
        if result.success:
            status = "verified"
        elif result.inconclusive:
            # Bounds, timeouts and drained obligations: nothing was
            # refuted, so this must not read as "the program is wrong".
            status = "INCONCLUSIVE"
        else:
            status = "FAILED"
        print(
            f"{result.proof_name} [{result.strategy}]: {status} "
            f"({result.lemma_count} lemmas, "
            f"{result.generated_sloc} generated SLOC, "
            f"{result.elapsed_seconds:.2f}s)"
        )
        if result.error:
            print(f"  {result.error}")
    if outcome.chain:
        print("refinement chain:", " -> ".join(outcome.chain))
    elif outcome.chain_error:
        print(f"chain error: {outcome.chain_error}")
    if outcome.inconclusive:
        print(
            "chain INCONCLUSIVE: checks hit a bound, timed out or were "
            "cancelled; re-run with larger bounds or a larger deadline"
        )
    print(farm.summary_line())
    if args.farm_report:
        for line in farm.report_lines():
            print(line)
    cache = farm.cache
    if cache is not None and cache.failed_stores:
        print(
            f"armada: warning: could not store {cache.failed_stores} "
            f"verdict(s) in the proof cache {cache.directory}; a re-run "
            "executes them again",
            file=sys.stderr,
        )
    if farm.shutdown_requested:
        print(
            "armada: drained after signal; "
            + ("re-run with the same --cache to resume"
               if cache is not None
               else "nothing was cached (--no-cache)"),
            file=sys.stderr,
        )
        return 130
    return 0 if outcome.success else 1


def _invariant_predicate(ctx, machine, source: str):
    """Compile an ``--invariant`` expression into a state predicate.

    The expression is evaluated for every live thread (so it may
    mention locals of the thread's current method); evaluation that is
    undefined for a particular thread — e.g. the predicate names a
    local the thread does not have — is skipped rather than counted as
    a violation.
    """
    from repro.lang import types as ty
    from repro.lang.parser import parse_expression
    from repro.lang.typechecker import TypeChecker
    from repro.machine.evaluator import EvalContext, eval_expr
    from repro.machine.state import UBSignal

    expr = parse_expression(source)
    TypeChecker(ctx)._check_expr(expr, None, ty.BOOL, two_state=False)

    def predicate(state) -> bool:
        tids = list(state.threads) or [1]
        for tid in tids:
            thread = state.threads.get(tid)
            method = (
                thread.top.method
                if thread is not None and thread.frames
                else machine.main_method
            )
            try:
                value = eval_expr(EvalContext(ctx, state, tid, method), expr)
            except (UBSignal, KeyError):
                continue
            if not bool(value):
                return False
        return True

    return predicate


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import Explorer, exploration_summary
    from repro.lang.frontend import check_program
    from repro.machine.translator import translate_level

    source = _read_source(args.file)
    checked = check_program(source, args.file)
    ctx = _level_context(checked, args.level)
    level = ctx.level.name
    machine = translate_level(ctx, memory_model=args.memory_model)
    invariants = {
        src: _invariant_predicate(ctx, machine, src)
        for src in (args.invariant or [])
    }
    result = Explorer(
        machine, max_states=args.max_states, compiled=args.compiled,
    ).explore(invariants or None)

    outcomes = sorted(
        result.final_outcomes, key=lambda o: (o[0], tuple(map(str, o[1])))
    )
    if args.json:
        import json

        payload = exploration_summary(machine, level, result)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"level {level}: {result.states_visited} states, "
              f"{result.transitions_taken} transitions explored")
        if result.hit_state_budget:
            print(f"WARNING: state budget ({args.max_states}) exhausted "
                  "— the enumeration is incomplete; raise --max-states")
        for kind, log in outcomes:
            print(f"outcome: {kind}, log={list(log)}")
        for reason, trace in zip(result.ub_reasons, result.ub_traces):
            print(f"undefined behavior: {reason}")
            print(
                "  trace: "
                + (" ; ".join(t.describe() for t in trace)
                   or "<initial>")
            )
        for violation in result.violations:
            print(f"invariant violated: {violation.invariant_name}")
            print(f"  trace: {violation.format_trace()}")
    failed = (
        result.violations or result.has_ub or result.hit_state_budget
    )
    return 1 if failed else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_level
    from repro.lang.frontend import check_program

    if (args.file is None) == (args.casestudy is None):
        print("armada analyze: provide a FILE or --casestudy NAME "
              "(not both)", file=sys.stderr)
        return 1
    if args.casestudy is not None:
        from repro.casestudies import ALL, load

        if args.casestudy not in ALL:
            valid = ", ".join(sorted(ALL))
            print(
                f"armada: unknown case study {args.casestudy!r} "
                f"(valid names: {valid})",
                file=sys.stderr,
            )
            return 1
        study = load(args.casestudy)
        source, filename = study.source, f"<{study.name}>"
    else:
        source, filename = _read_source(args.file), args.file
    checked = check_program(source, filename)
    ctx = _level_context(checked, args.level)
    result = analyze_level(
        ctx,
        max_states=args.max_states,
        dynamic=not args.no_dynamic,
        memory_model=args.memory_model,
        compiled=args.compiled,
    )
    report = result.report()
    print(report.to_json() if args.json else report.render_text())
    racy = result.racy()
    if args.expect_racy is not None:
        expected = sorted(
            name for name in args.expect_racy.split(",") if name
        )
        if racy != expected:
            print(
                f"analyze: expected RACY {expected}, got {racy}",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.fail_on_race and racy:
        return 1
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.compiler.cbackend import compile_to_c
    from repro.compiler.pybackend import compile_to_python
    from repro.lang.frontend import check_program

    source = _read_source(args.file)
    checked = check_program(source, args.file)
    ctx = _level_context(checked, args.level)
    if args.backend == "c":
        print(compile_to_c(ctx))
    else:
        print(compile_to_python(ctx, args.backend).source)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.lang.frontend import check_program
    from repro.machine.translator import translate_level
    from repro.runtime.interpreter import run_level

    source = _read_source(args.file)
    checked = check_program(source, args.file)
    ctx = _level_context(checked, args.level)
    machine = translate_level(ctx)
    result = run_level(machine, seed=args.seed, max_steps=args.max_steps)
    print(f"termination: {result.termination_kind} "
          f"after {result.steps_taken} steps")
    print("log:", list(result.log))
    return 0 if result.termination_kind == "normal" else 1


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.casestudies import ALL, load, run_case_study

    if args.name == "all":
        names = list(ALL)
    elif args.name not in ALL:
        valid = ", ".join(sorted(ALL))
        print(
            f"armada: unknown case study {args.name!r} "
            f"(valid names: {valid}, all)",
            file=sys.stderr,
        )
        return 1
    else:
        names = [args.name]
    failed = False
    for name in names:
        study = load(name)
        report = run_case_study(study)
        status = "verified" if report.verified else "FAILED"
        print(
            f"{name}: {status} — impl {study.implementation_sloc} SLOC, "
            f"recipes {report.total_recipe_sloc} SLOC, generated "
            f"{report.total_generated_sloc} SLOC"
        )
        for row in report.rows():
            mark = "ok" if row["verified"] else "FAIL"
            print(
                f"  [{mark}] {row['proof']} ({row['strategy']}): recipe "
                f"{row['recipe_sloc']} SLOC -> {row['generated_sloc']} "
                f"generated, {row['lemmas']} lemmas, {row['seconds']}s"
            )
            if row["error"]:
                print(f"        {row['error']}")
        failed = failed or not report.verified
    return 1 if failed else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import TraceError, aggregate_file

    try:
        stats = aggregate_file(args.trace)
    except TraceError as error:
        print(f"armada stats: {error}", file=sys.stderr)
        return 1
    print(stats.to_json() if args.json else stats.render_text())
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    from repro.strategies.registry import available_strategies

    for name in available_strategies():
        print(name)
    return 0


# ---------------------------------------------------------------------------
# verification as a service: armada serve / submit / status / result /
# cancel / serve-stats


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import ArmadaDaemon, run_daemon

    if args.port is not None and args.socket is not None:
        print("armada serve: --socket and --port are exclusive",
              file=sys.stderr)
        return 1
    daemon = ArmadaDaemon(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        slots=args.slots,
        cache_max_bytes=args.cache_max_bytes,
    )
    return run_daemon(daemon)


def _serve_client(args: argparse.Namespace):
    """Build a :class:`ServeClient` from the shared connection flags."""
    from repro.serve.client import ServeClient

    if args.port is not None:
        return ServeClient(host=args.host, port=args.port)
    socket_path = args.socket or os.path.join(
        _default_serve_dir(), "armada.sock"
    )
    return ServeClient(socket_path=socket_path)


def _render_verify_result(result: dict) -> None:
    """Print a serve verify result in ``armada verify``'s format."""
    for o in result.get("outcomes") or []:
        status = {
            "verified": "verified",
            "inconclusive": "INCONCLUSIVE",
            "failed": "FAILED",
        }.get(o["status"], o["status"])
        cached = " [cached]" if o.get("from_cache") else ""
        print(
            f"{o['proof']} [{o['strategy']}]: {status} "
            f"({o['lemmas']} lemmas, "
            f"{o['generated_sloc']} generated SLOC, "
            f"{o['elapsed_seconds']:.2f}s){cached}"
        )
        if o.get("error"):
            print(f"  {o['error']}")
    if result.get("chain"):
        print("refinement chain:", " -> ".join(result["chain"]))
    elif result.get("chain_error"):
        print(f"chain error: {result['chain_error']}")
    incremental = result.get("incremental")
    if incremental and not incremental.get("first_submission"):
        print(
            f"incremental: {len(incremental['unchanged_levels'])} "
            f"level(s) unchanged, "
            f"{incremental['reused_proofs']} proof(s) reused, "
            f"{incremental['reverified_proofs']} re-verified"
        )


def _print_terminal_result(response: dict, as_json: bool) -> int:
    """Render a terminal job response; exit code mirrors batch mode."""
    import json

    state = response.get("state")
    result = response.get("result") or {}
    if as_json:
        print(json.dumps(response, indent=2, sort_keys=True))
    elif result.get("status") in ("verified", "failed", "inconclusive"):
        _render_verify_result(result)
    else:
        print(json.dumps(result, indent=2, sort_keys=True))
    if state == "error":
        if not as_json:
            print(f"error: {response.get('error')}", file=sys.stderr)
        return 2
    if state == "cancelled":
        if not as_json:
            print("job cancelled", file=sys.stderr)
        return 3
    status = result.get("status")
    if status in ("verified", "analyzed", "explored"):
        return 0
    return 1


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _serve_client(args)
    source = _read_source(args.file)
    options: dict = {
        "max_states": args.max_states,
        "memory_model": args.memory_model,
    }
    if args.kind == "verify":
        options["validate"] = args.validate
    elif args.level is not None:
        options["level"] = args.level
    job_id = client.submit(
        source,
        kind=args.kind,
        filename=args.file,
        name=args.name or args.file,
        options=options,
    )
    if not args.wait:
        print(job_id)
        return 0
    response = client.result(job_id, wait=True, timeout=args.timeout)
    return _print_terminal_result(response, args.json)


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    client = _serve_client(args)
    status = client.status(args.job)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        line = f"{status['id']}: {status['state']}"
        if status.get("status"):
            line += f" ({status['status']})"
        runtime = status.get("runtime_seconds")
        if runtime is not None:
            line += f" after {runtime:.2f}s"
        print(line)
        if status.get("error"):
            print(f"  {status['error']}")
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    client = _serve_client(args)
    response = client.result(
        args.job, wait=args.wait, timeout=args.timeout
    )
    return _print_terminal_result(response, args.json)


def _cmd_cancel(args: argparse.Namespace) -> int:
    client = _serve_client(args)
    status = client.cancel(args.job)
    print(f"{status['id']}: {status['state']} "
          f"(cancel_requested={status['cancel_requested']})")
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    import json

    client = _serve_client(args)
    stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    cache = stats["cache"]
    print(f"uptime: {stats['uptime_seconds']:.1f}s, "
          f"slots: {stats['slots']}, draining: {stats['draining']}")
    jobs = ", ".join(
        f"{count} {state}"
        for state, count in sorted(stats["jobs"].items())
    ) or "none"
    print(f"jobs: {jobs} ({stats['submitted']} submitted, "
          f"{stats['completed']} completed)")
    cap = (f"{cache['max_bytes']} bytes cap"
           if cache["max_bytes"] is not None else "no cap")
    print(f"proof cache: {cache['entries']} entries, "
          f"{cache['bytes']} bytes ({cap}); "
          f"{cache['hits']} hits, {cache['misses']} misses, "
          f"{cache['evictions']} evicted, "
          f"{cache['quarantined']} quarantined")
    oc = stats["outcome_cache"]
    print(f"outcome cache: {oc['entries']} entries; "
          f"{oc['hits']} hits, {oc['misses']} misses, "
          f"{oc['evictions']} evicted")
    return 0


def _cmd_litmus(args: argparse.Namespace) -> int:
    from repro.memmodel import MODELS
    from repro.memmodel.litmus import CORPUS, check_matrix

    models = tuple(args.model) if args.model else tuple(sorted(MODELS))
    for model in models:
        if model not in MODELS:
            valid = ", ".join(sorted(MODELS))
            print(f"armada: unknown memory model {model!r} "
                  f"(valid: {valid})", file=sys.stderr)
            return 1
    tests = tuple(args.test) if args.test else None
    known = {t.name for t in CORPUS}
    for name in tests or ():
        if name not in known:
            valid = ", ".join(t.name for t in CORPUS)
            print(f"armada: unknown litmus test {name!r} "
                  f"(valid: {valid})", file=sys.stderr)
            return 1
    rows = check_matrix(models=models, tests=tests)
    if args.json:
        import json as _json

        print(_json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            weak = "allowed" if row["weak_observed"] else "forbidden"
            expected = (
                "allowed" if row["weak_expected"] else "forbidden"
            )
            mark = "ok" if row["ok"] else "MISMATCH"
            print(f"{row['test']:<10} {row['model']:<4} "
                  f"weak outcome {weak} (expected {expected}) "
                  f"[{mark}]")
    bad = [row for row in rows if not row["ok"]]
    if bad:
        print(f"litmus: {len(bad)} row(s) deviate from the expected "
              "allowed/forbidden table", file=sys.stderr)
        return 1
    return 0


def _add_memory_model_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--memory-model", choices=("sc", "tso", "ra"), default="tso",
        help="memory model the machine semantics run under "
             "(default: %(default)s; part of every proof-cache key)",
    )


def _add_connection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon Unix socket (default: "
             f"{DEFAULT_SERVE_DIR}/armada.sock, or $ARMADA_SERVE_DIR)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="daemon TCP host (with --port)")
    p.add_argument("--port", type=int, default=None,
                   help="daemon TCP port (instead of --socket)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armada",
        description="Armada reproduction: low-effort verification of "
        "high-performance concurrent programs (PLDI 2020)",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type-check a file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="run every proof recipe in a file")
    p.add_argument("file")
    p.add_argument("--max-states", type=_positive_int, default=200_000)
    _add_memory_model_flag(p)
    p.add_argument(
        "--validate", choices=("auto", "always", "never"), default="auto",
        help="whole-program bounded refinement validation policy",
    )
    p.add_argument(
        "--cache", default=_default_cache_dir(), metavar="DIR",
        help="proof cache directory (default: %(default)s, or "
             "$ARMADA_CACHE_DIR)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the proof cache for this run",
    )
    p.add_argument(
        "--cache-max-bytes", type=_positive_int, default=None,
        metavar="N",
        help="byte budget for the proof cache; exceeding it evicts "
             "least-recently-used entries (default: unbounded)",
    )
    p.add_argument(
        "--farm-report", action="store_true",
        help="print the detailed farm report (cache hits, worker "
             "time, slowest obligations)",
    )
    p.add_argument(
        "--compiled", action=argparse.BooleanOptionalAction, default=True,
        help="compiled step specialization for state sweeps (default: "
             "on; bit-identical to the interpreter — states, UB "
             "reasons and verdicts are unchanged; machines the "
             "specializer does not cover fall back automatically)",
    )
    p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a JSONL span/metric trace of the run "
             "(inspect with 'armada stats FILE')",
    )
    p.add_argument(
        "--obligation-timeout", type=_seconds, default=None,
        metavar="SECONDS",
        help="wall-clock deadline per obligation; expiry yields a "
             "TIMEOUT verdict (inconclusive, not refuted)",
    )
    p.add_argument(
        "--chain-deadline", type=_seconds, default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole chain; on expiry the "
             "remaining obligations go TIMEOUT instead of hanging",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "explore",
        help="enumerate a level's reachable states (bounded model "
             "check), optionally checking invariants",
    )
    p.add_argument("file")
    p.add_argument("--level", default=None,
                   help="level to explore (default: first)")
    p.add_argument("--max-states", type=_positive_int, default=200_000)
    _add_memory_model_flag(p)
    p.add_argument(
        "--compiled", action=argparse.BooleanOptionalAction, default=True,
        help="compiled step specialization for state sweeps (default: "
             "on; bit-identical to the interpreter — states, UB "
             "reasons and verdicts are unchanged; machines the "
             "specializer does not cover fall back automatically)",
    )
    p.add_argument(
        "--invariant", action="append", default=None, metavar="EXPR",
        help="boolean expression checked at every reachable state "
             "(repeatable); violations print a replayable trace",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the exploration summary as JSON")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser(
        "analyze",
        help="classify shared locations (races, lock discipline, TSO "
             "robustness) and suggest tso_elim predicates",
    )
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--casestudy", default=None, metavar="NAME",
                   help="analyze a built-in case study instead of a "
                        "file")
    p.add_argument("--level", default=None,
                   help="level to analyze (default: first)")
    p.add_argument("--max-states", type=_positive_int, default=200_000)
    _add_memory_model_flag(p)
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.add_argument(
        "--no-dynamic", action="store_true",
        help="skip the bounded dynamic cross-check (static only)",
    )
    p.add_argument(
        "--compiled", action=argparse.BooleanOptionalAction, default=True,
        help="compiled step specialization for state sweeps (default: "
             "on; bit-identical to the interpreter — states, UB "
             "reasons and verdicts are unchanged; machines the "
             "specializer does not cover fall back automatically)",
    )
    p.add_argument(
        "--fail-on-race", action="store_true",
        help="exit 1 if any location is classified RACY",
    )
    p.add_argument(
        "--expect-racy", default=None, metavar="NAMES",
        help="comma-separated expected RACY set; exit 1 on mismatch "
             "(use '' to assert race-freedom)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "litmus",
        help="run the litmus corpus (SB, MP, LB, IRIW, ...) across "
             "memory models and check the allowed/forbidden table",
    )
    p.add_argument(
        "--model", action="append", default=None,
        choices=("sc", "tso", "ra"), metavar="NAME",
        help="memory model to include (repeatable; default: all)",
    )
    p.add_argument(
        "--test", action="append", default=None, metavar="NAME",
        help="litmus test to include (repeatable; default: the whole "
             "corpus)",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the matrix rows as JSON")
    p.set_defaults(func=_cmd_litmus)

    p = sub.add_parser("compile", help="compile a level")
    p.add_argument("file")
    p.add_argument("--level", default=None)
    p.add_argument(
        "--backend", choices=("c", "sc", "conservative", "tso"),
        default="c",
    )
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("run", help="execute a level on the reference "
                                   "runtime")
    p.add_argument("file")
    p.add_argument("--level", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="random scheduler seed (default: round-robin)")
    p.add_argument("--max-steps", type=_positive_int, default=1_000_000)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("casestudy", help="verify a paper case study")
    p.add_argument("name", help="tsp|barrier|pointers|mcslock|queue|all")
    p.set_defaults(func=_cmd_casestudy)

    p = sub.add_parser(
        "stats",
        help="summarize a trace recorded by 'armada verify --trace'",
    )
    p.add_argument("trace", help="JSONL trace file")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as JSON")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("strategies", help="list proof strategies")
    p.set_defaults(func=_cmd_strategies)

    p = sub.add_parser(
        "serve",
        help="run the verification-as-a-service daemon (line-delimited "
             "JSON job API over a Unix socket or TCP port)",
    )
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a Unix socket (default: "
             "STATE_DIR/armada.sock)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind host (with --port)")
    p.add_argument(
        "--port", type=int, default=None,
        help="listen on a TCP port instead of a Unix socket "
             "(0 picks a free one)",
    )
    p.add_argument(
        "--state-dir", default=_default_serve_dir(), metavar="DIR",
        help="daemon state: shared proof cache, fingerprint index, "
             "pending-job log (default: "
             "%(default)s, or $ARMADA_SERVE_DIR)",
    )
    p.add_argument(
        "--slots", type=_positive_int, default=2, metavar="N",
        help="jobs run concurrently (default: %(default)s)",
    )
    p.add_argument(
        "--cache-max-bytes", type=_positive_int, default=None,
        metavar="N",
        help="byte budget for the shared proof cache (LRU eviction; "
             "default: unbounded)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a job to a running armada serve daemon",
    )
    p.add_argument("file")
    _add_connection_flags(p)
    p.add_argument(
        "--kind", choices=("verify", "analyze", "explore"),
        default="verify",
    )
    p.add_argument(
        "--name", default=None, metavar="NAME",
        help="tenant-visible program identity for incremental "
             "fingerprint diffing (default: the file path)",
    )
    p.add_argument("--max-states", type=_positive_int, default=200_000)
    _add_memory_model_flag(p)
    p.add_argument(
        "--validate", choices=("auto", "always", "never"),
        default="auto",
        help="whole-program refinement validation policy (verify)",
    )
    p.add_argument("--level", default=None,
                   help="level to analyze/explore (default: first)")
    p.add_argument(
        "--wait", action="store_true",
        help="block until the job settles and print its result "
             "(exit code mirrors batch 'armada verify')",
    )
    p.add_argument("--timeout", type=_seconds, default=None,
                   metavar="SECONDS",
                   help="bound --wait")
    p.add_argument("--json", action="store_true",
                   help="print the raw result JSON (with --wait)")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("status", help="show a submitted job's state")
    p.add_argument("job", help="job id returned by submit")
    _add_connection_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser(
        "result", help="fetch a submitted job's result"
    )
    p.add_argument("job", help="job id returned by submit")
    _add_connection_flags(p)
    p.add_argument(
        "--wait", action=argparse.BooleanOptionalAction, default=True,
        help="block until the job settles (default: wait)",
    )
    p.add_argument("--timeout", type=_seconds, default=None,
                   metavar="SECONDS")
    p.add_argument("--json", action="store_true",
                   help="print the raw result JSON")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser(
        "cancel",
        help="cancel a submitted job (queued: never starts; running: "
             "its farm drains)",
    )
    p.add_argument("job", help="job id returned by submit")
    _add_connection_flags(p)
    p.set_defaults(func=_cmd_cancel)

    p = sub.add_parser(
        "serve-stats",
        help="daemon-wide counters: jobs by state, shared-cache "
             "hit/miss/eviction numbers, outcome-cache reuse",
    )
    _add_connection_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_serve_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # argparse exits for --version/--help and usage errors; keep
        # main() returning an int for programmatic callers.
        args = parser.parse_args(argv)
    except SystemExit as error:
        return error.code if isinstance(error.code, int) else 1
    try:
        return args.func(args)
    except SystemExit as error:
        # _read_source and _level_context report an unreadable file or
        # an unknown level and exit 1; keep main() returning an int for
        # programmatic callers.
        return error.code if isinstance(error.code, int) else 1
    except ArmadaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Piping into head/less closes stdout early; that is not an
        # error.  Detach stdout so the interpreter's shutdown flush
        # does not traceback either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
