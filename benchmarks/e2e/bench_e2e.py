"""End-to-end benchmark of the ``armada`` command line.

Every timed run is one real CLI invocation, ``python -m repro.cli ...``,
in a fresh child process: what a user waits for, imports included.  The
load is a closed loop with one client, so the next run starts only when
the previous one has exited.  Each run's stdout is checked against the
hand-written answers in ``expected.json``.

Usage, from the root of the repository::

    # a full set: every workload, interleaved round-robin, ~3 min
    python benchmarks/e2e/bench_e2e.py --seed 1 --out results.json
    # one run of everything, for a quick check
    python benchmarks/e2e/bench_e2e.py --seed 1 --smoke
    # one workload for a fixed time; the last stdout line is JSON
    # holding the metrics BENCHMARK.json names (per-layer with --trace 1)
    python benchmarks/e2e/bench_e2e.py --workload explore_tso --seed 1 \\
        --seconds 15 --trace 0

``--seed`` sets the children's ``PYTHONHASHSEED`` and the order of the
workloads within each round.  All state a run creates (proof cache,
stepc source cache, bytecode cache, outputs) lives in a temporary
directory under ``.bench_e2e/`` in the checkout and is deleted at the
end.  Before anything is timed, one untimed run of each workload fills
those caches.  ``README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# The benchmark's own modules must not leave bytecode in the tree.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_e2e"
WORKLOAD_DIR = HERE / "workloads"
EXPECTED = HERE / "expected.json"
TRACE_DRIVER = HERE / "trace_layers.py"

#: A child that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 120.0
#: Set-up measurements (import replays) per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Fewest timed runs in a ``--seconds`` measurement, however slow.
MIN_RUNS = 3

#: A fixed pure-Python job, run as a child right after every measured
#: child.  The speed of a shared host drifts by 10% and more within
#: minutes, and a slow spell slows this job too (somewhat more than it
#: slows ``armada``), so each measured time is scaled by
#: REFERENCE_CALIBRATION_S over the calibration's own wall time.  Every
#: time the benchmark reports is in these reference-host seconds;
#: ``calibration_s`` in a full set's results keeps the raw calibration
#: times.
CALIBRATION = (
    "d = {}\n"
    "for i in range(300_000):\n"
    "    k = (i % 1000, str(i & 255))\n"
    "    d[k] = d.get(k, 0) + i\n"
)
#: The calibration's median wall time on the reference host, a quiet
#: 2-vCPU Xeon VM running Python 3.11, so that reference-host seconds
#: read as that host's seconds.
REFERENCE_CALIBRATION_S = 0.175


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI argv of each child one run executes, in order.
    commands: tuple[tuple[str, ...], ...]
    #: Timed runs of this workload in a full set (under 30 s in all).
    runs: int


def _arm(name: str) -> str:
    return str(WORKLOAD_DIR / name)


WORKLOADS = {
    w.name: w for w in (
        # Paper Table 1: the front end, strategies, prover and the
        # obligations' reachability sweeps, with no cache.
        Workload("casestudy_all", (("casestudy", "all"),), 25),
        # The whole-program refinement check: interpreted stepping.
        Workload("refine_chain", ((
            "verify", _arm("lock_chain3.arm"), "--validate", "always",
            "--no-cache",
        ),), 6),
        # The biggest explore.md state space: compiled stepper and POR.
        Workload("explore_tso", ((
            "explore", _arm("queue.arm"), "--level", "QueueNondet",
        ),), 16),
        # RA can only be interpreted and turns every reduction off.
        Workload("explore_ra", ((
            "explore", _arm("queue.arm"), "--level", "QueueHideWriteIndex",
            "--memory-model", "ra",
        ),), 25),
        # A warm proof cache: process start, imports, fingerprints.
        Workload("verify_warm", (
            ("verify", _arm("queue.arm")),
            ("verify", _arm("mcslock.arm")),
        ), 20),
    )
}

# ---------------------------------------------------------------------------
# checking outputs against expected.json


def check_outputs(expected: dict, exits: list, stdouts: list[str],
                  warm: bool) -> str | None:
    """Why one run's outputs differ from the known answers, or ``None``
    when they agree.  *warm* runs must also have read every obligation
    from the proof cache."""
    if len(exits) != len(expected["commands"]):
        return f"ran {len(exits)} of {len(expected['commands'])} commands"
    for want, code, out in zip(expected["commands"], exits, stdouts):
        if code != want["exit"]:
            return f"exit {code}, expected {want['exit']}"
        if "studies" in want:
            studies = dict(re.findall(r"^(\w+): (verified|FAILED) ",
                                      out, re.M))
            if studies != want["studies"]:
                return f"case studies {studies}"
            if re.search(r"^\s+\[FAIL\]", out, re.M):
                return "a case-study proof failed"
        if "proofs" in want:
            proofs = dict(re.findall(
                r"^(\S+) \[\w+\]: (verified|FAILED|INCONCLUSIVE) ", out, re.M
            ))
            if proofs != want["proofs"]:
                return f"proofs {proofs}"
            chain = re.search(r"^refinement chain: (.+)$", out, re.M)
            if chain is None or chain.group(1).split(" -> ") != want["chain"]:
                return f"chain {chain and chain.group(1)}"
            if warm and "warm" in want:
                farm = re.search(r"^farm: .*, (\d+) executed", out, re.M)
                executed = int(farm.group(1)) if farm else None
                if executed != want["warm"]["executed"]:
                    return f"{executed} obligations executed warm"
        if "outcomes" in want:
            outcomes = sorted(map(list, re.findall(
                r"^outcome: (\w+), log=(\[.*\])$", out, re.M
            )))
            if outcomes != sorted(want["outcomes"]):
                return f"outcomes {outcomes}"
            ub = re.findall(r"^undefined behavior: (.*)$", out, re.M)
            if ub != want["undefined_behavior"]:
                return f"undefined behaviour {ub}"
            if "WARNING: state budget" in out:
                return "state budget exhausted"
    return None


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    exit: int | None  # None: killed at the timeout
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Session:
    """The isolated state of one benchmark invocation.

    Children get a scrubbed environment: no inherited ``PYTHON*`` or
    ``ARMADA_*`` settings, ``src`` on the path, the seed's hash seed,
    and every cache redirected into a temporary directory inside the
    checkout, which :meth:`close` deletes."""

    def __init__(self, seed: int) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith(("PYTHON", "ARMADA_"))
        }
        env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED=str(seed % 2**32),
            PYTHONPYCACHEPREFIX=str(self.dir / "pycache"),
            ARMADA_STEPC_CACHE=str(self.dir / "stepc"),
            ARMADA_CACHE_DIR=str(self.dir / "proofs"),
            ARMADA_SERVE_DIR=str(self.dir / "serve"),
        )
        self.env = env
        self.calibration_s: list[float] = []

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another invocation's directory is still there

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def python(self, *args: str) -> ChildRun:
        """Run ``python *args`` to completion: its wall time, peak RSS
        (from ``wait4``) and output."""
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.dir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            killed = []

            def kill() -> None:
                killed.append(True)
                proc.kill()

            timer = threading.Timer(CHILD_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(
            None if killed else proc.returncode, wall,
            usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
        )

    def speed(self) -> float:
        """How fast the host runs Python right now, relative to the
        reference host: ``REFERENCE_CALIBRATION_S`` over the wall time of
        one calibration child.  A wall time measured just before,
        multiplied by this, is in reference-host seconds."""
        child = self.python("-c", CALIBRATION)
        self.calibration_s.append(child.wall_s)
        return REFERENCE_CALIBRATION_S / child.wall_s


# ---------------------------------------------------------------------------
# import time


def parse_importtime(stderr: str) -> list[tuple[str, int, int, int]]:
    """``(module, depth, self_us, cumulative_us)`` for each line that
    ``-X importtime`` wrote, in import order."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append(
            (name.strip(), depth, int(fields[0]), int(fields[1]))
        )
    return rows


def import_group(module: str) -> str:
    """The ``import.<group>_s`` a module's self time counts toward: the
    ``repro`` subpackage (or top-level module) it belongs to, or
    ``stdlib`` outside ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return "stdlib"
    return parts[1] if len(parts) > 1 else "repro"


REPLAY = "import sys\nfor name in sys.argv[1].split(','): __import__(name)"

# ---------------------------------------------------------------------------
# one workload


class Runner:
    """Runs one workload's commands as children and checks them.  Every
    checked run counts as attempted; a wrong answer, a crash or a
    timeout counts as failed and never stops the set."""

    def __init__(self, session: Session, workload: Workload,
                 expected: dict) -> None:
        self.session = session
        self.workload = workload
        self.expected = expected[workload.name]
        self.attempted = 0
        self.failures: list[str] = []
        self.import_lists: list[list[str]] = []
        self.wall_s: list[float] = []
        self.rss_mb: list[float] = []
        self.setup_s: list[float] = []
        self.import_groups: list[dict] = []
        self.traced: list[dict] = []
        self.plain_wall_s: list[float] = []

    def _record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)
            print(f"FAILED {self.workload.name}: {reason}", file=sys.stderr)

    def _run(self, warm: bool, importtime: bool = False):
        flags = ("-X", "importtime") if importtime else ()
        children = [
            self.session.python(*flags, "-m", "repro.cli", *argv)
            for argv in self.workload.commands
        ]
        exits = [c.exit for c in children]
        stdouts = [c.stdout for c in children]
        reason = check_outputs(self.expected, exits, stdouts, warm)
        if any(c.exit is None for c in children):
            reason = "timed out"
        self._record(reason)
        return children

    def warm_up(self) -> None:
        """One untimed run: fills the bytecode, stepc and proof caches
        and records which modules each command imports."""
        children = self._run(warm=False, importtime=True)
        self.import_lists = [
            [name for name, depth, _, _ in parse_importtime(c.stderr)
             if depth == 0]
            for c in children
        ]

    def measure_setup(self) -> None:
        """Replay each command's top-level imports in a fresh interpreter
        under ``-X importtime``.  setup_s is the sum over the commands of
        their top-level cumulative import times; ``import.<group>_s``
        splits the same time by module group."""
        total = 0.0
        groups: dict[str, float] = {}
        for names in self.import_lists:
            child = self.session.python("-X", "importtime", "-c", REPLAY,
                                        ",".join(names))
            if child.exit != 0:
                raise RuntimeError(
                    f"import replay failed: {child.stderr[-2000:]}"
                )
            scale = self.session.speed() / 1e6  # microseconds to seconds
            for module, depth, self_us, cumulative_us in \
                    parse_importtime(child.stderr):
                if depth == 0:
                    total += cumulative_us * scale
                group = import_group(module)
                groups[group] = groups.get(group, 0.0) + self_us * scale
        self.setup_s.append(total)
        self.import_groups.append(groups)

    def timed_run(self) -> None:
        children = self._run(warm=True)
        self.wall_s.append(
            sum(c.wall_s for c in children) * self.session.speed()
        )
        self.rss_mb.append(max(c.rss_mb for c in children))

    def in_process_run(self, traced: bool) -> None:
        """One run of every command inside one child that has already
        imported them, traced by :mod:`trace_layers` or not."""
        spec = {
            "commands": self.workload.commands,
            "traced": traced,
            "preimport": sorted({n for names in self.import_lists
                                 for n in names}),
        }
        child = self.session.python(str(TRACE_DRIVER), json.dumps(spec))
        scale = self.session.speed()
        try:
            report = json.loads(child.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            self._record(f"trace driver: {child.stderr[-2000:]}")
            return
        self._record(check_outputs(
            self.expected, report["exits"], report["stdouts"], warm=True
        ))
        if traced:
            self.traced.append({
                name: value * scale if name.endswith("_s") else value
                for name, value in report["metrics"].items()
            })
        else:
            self.plain_wall_s.append(report["wall_s"] * scale)

    # -- results ------------------------------------------------------

    def end_to_end(self) -> dict:
        return {
            "wall_s": summarize(self.wall_s),
            "setup_s": summarize(self.setup_s),
            "peak_rss_mb": summarize(self.rss_mb),
        }

    def per_layer(self) -> dict:
        """Medians over the traced runs of every per-layer metric."""
        out: dict[str, float] = {}
        groups = sorted({g for run in self.import_groups for g in run})
        for group in groups:
            out[f"import.{group}_s"] = statistics.median(
                run.get(group, 0.0) for run in self.import_groups
            )
        if self.traced:
            for name in self.traced[0]:
                # Counts repeat exactly from run to run; median_low
                # keeps them whole.
                middle = (statistics.median_low if unit_of(name) == "count"
                          else statistics.median)
                out[name] = middle(run[name] for run in self.traced)
            if self.plain_wall_s:
                out["trace.overhead_ratio"] = (
                    out["trace.wall_s"]
                    / statistics.median(self.plain_wall_s)
                )
        return out


def summarize(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def require_source_tree() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        sys.exit(f"bench_e2e: no armada source tree at {SRC}; run from a "
                 "checkout of the repository")


# ---------------------------------------------------------------------------
# the two entry points


def measure_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """The driver contract: one workload for *seconds*, reporting the
    metrics ``BENCHMARK.json`` names."""
    spec = load_json(ROOT / "BENCHMARK.json")
    wanted = spec["per_layer" if trace else "end_to_end"]
    with Session(seed) as session:
        runner = Runner(session, WORKLOADS[name], load_json(EXPECTED))
        runner.warm_up()
        for _ in range(SETUP_SAMPLES):
            runner.measure_setup()
        # Per-layer metrics have no bound: one traced and one untraced
        # run are enough when a run is long.
        min_runs = 2 if trace else MIN_RUNS
        started = time.perf_counter()
        durations: list[float] = []
        while True:
            elapsed = time.perf_counter() - started
            if len(durations) >= min_runs and \
                    elapsed + statistics.median(durations) > seconds:
                break
            if trace:
                # Alternate so that the traced and untraced runs, whose
                # ratio is the tracing overhead, see the same machine.
                runner.in_process_run(traced=len(durations) % 2 == 0)
            else:
                runner.timed_run()
            durations.append(time.perf_counter() - started - elapsed)
        if trace:
            values = runner.per_layer()
        else:
            values = {m: s["median"] for m, s in runner.end_to_end().items()}
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise KeyError(f"{name} did not produce {metric['name']}")
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": runner.attempted,
            "failed": failed, "metrics": metrics}


def _evenly(count: int, rounds: int) -> set[int]:
    """*count* of the rounds ``0 .. rounds - 1``, evenly spaced."""
    return {i * rounds // count for i in range(count)}


def full_set(seed: int, smoke: bool) -> dict:
    """Every workload, interleaved round-robin, then one traced and one
    untraced in-process run of each.  Each workload's timed runs and
    set-up measurements are spread evenly over the rounds, so that a
    slow spell of the host falls on all workloads alike."""
    rng = random.Random(seed)
    expected = load_json(EXPECTED)
    started = time.perf_counter()
    with Session(seed) as session:
        runners = {name: Runner(session, w, expected)
                   for name, w in WORKLOADS.items()}
        order = list(runners)
        rng.shuffle(order)
        for name in order:
            runners[name].warm_up()
        rounds = 1 if smoke else max(w.runs for w in WORKLOADS.values())
        timed = {name: _evenly(1 if smoke else w.runs, rounds)
                 for name, w in WORKLOADS.items()}
        setup = _evenly(1 if smoke else SETUP_SAMPLES, rounds)
        for round_ in range(rounds):
            rng.shuffle(order)
            for name in order:
                if round_ in setup:
                    runners[name].measure_setup()
                if round_ in timed[name]:
                    runners[name].timed_run()
        rng.shuffle(order)
        for name in order:
            runners[name].in_process_run(traced=False)
            runners[name].in_process_run(traced=True)
    workloads = {}
    for name, runner in runners.items():
        e2e = runner.end_to_end()
        e2e["fail_frac"] = {
            "median": len(runner.failures) / runner.attempted,
            "n": runner.attempted,
        }
        workloads[name] = {
            "end_to_end": {
                m: {"unit": unit_of(m), **s} for m, s in e2e.items()
            },
            "per_layer": {
                m: {"unit": unit_of(m), "value": v}
                for m, v in sorted(runner.per_layer().items())
            },
            "failures": runner.failures[:10],
        }
    return {
        "seed": seed,
        "smoke": smoke,
        "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0],
                 "platform": sys.platform},
        "set_seconds": time.perf_counter() - started,
        "calibration_s": summarize(session.calibration_s),
        "attempted": sum(r.attempted for r in runners.values()),
        "failed": sum(len(r.failures) for r in runners.values()),
        "workloads": workloads,
    }


def print_table(result: dict) -> None:
    """Every end-to-end metric, and every per-layer metric that is not
    0, by name with its unit."""
    for name, data in result["workloads"].items():
        print(f"{name}")
        for metric, s in data["end_to_end"].items():
            if "q1" in s:
                print(f"  {metric:<40} median {s['median']:.4f} {s['unit']}"
                      f"  (q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n {s['n']})")
            else:
                print(f"  {metric:<40} {s['median']:.4f} {s['unit']}"
                      f"  (n {s['n']})")
        for metric, s in data["per_layer"].items():
            if s["value"]:
                print(f"  {metric:<40} {s['value']:.6g} {s['unit']}")
    print(f"set: {result['set_seconds']:.1f} s, {result['attempted']} runs, "
          f"{result['failed']} failed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload for --seconds and print "
                             "the BENCHMARK.json metrics as JSON")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="full set with one run per workload")
    parser.add_argument("--out", help="write the full set's results here")
    args = parser.parse_args(argv)
    require_source_tree()
    # Turn SIGTERM into SystemExit, so that the running child is killed
    # and reaped and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # On a shared host each vCPU has its own slow spells.  Running every
    # child, calibration included, on one vCPU makes the calibration see
    # the spell the measured child saw.  Children inherit the affinity.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload:
        result = measure_one(args.workload, args.seed, args.seconds,
                             bool(args.trace))
        print(json.dumps(result))
        return 0
    result = full_set(args.seed, args.smoke)
    print_table(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"attempted": result["attempted"],
                      "failed": result["failed"]}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
