"""Tests for ``armada serve``: protocol, daemon lifecycle, concurrent
clients, resubmissions served by the shared proof cache, drain +
restart resume.

The in-process tests run the real asyncio daemon on a background
thread (:class:`DaemonThread`) and talk to it over its real Unix
socket with the real client — only signal delivery is simulated by
calling the same ``initiate_drain`` hook the SIGTERM handler invokes.
The subprocess tests cover actual signal delivery.
"""

import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ArmadaDaemon, DaemonThread

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

QUICK_CHAIN = """
level Impl {
  var x: uint32;
  void main() { x := 3; print_uint32(x); }
}
level Mid {
  var x: uint32;
  ghost var g: int;
  void main() { x := 3; g := 1; print_uint32(x); }
}
level Spec {
  var x: uint32;
  ghost var g: int;
  void main() { x := *; g := 1; print_uint32(x); }
}
proof ImplToMid { refinement Impl Mid var_intro }
proof MidToSpec { refinement Mid Spec nondet_weakening }
"""

DIVIDES_BY_ZERO = """
level L {
  var x: uint32;
  void main() { var y: uint32 := 0; x := 1 / y; print_uint32(x); }
}
"""

#: One level of the lock-counter family: *workers* threads contending
#: on a mutex.  With ``validate: always`` each refinement pair runs one
#: whole-program product check.  With two workers that check takes
#: about 0.1 s, so the in-process tests that need a job to stay in
#: flight hold it with :func:`hold_refinement_checks` instead.  With
#: three workers a pair took 1.7-3.0 s on a 2-vCPU x86 host, and the
#: first pair of a run, which also compiles the steppers, 2.7 s: over
#: 4x the 0.5 s signal offset of the subprocess serve test.
COUNTER_LEVEL = """
level L%(index)d {
  var counter: uint32;
  var mutex: uint64;
  var done: uint32;
  void worker() {
    var i: uint32;
    i := 0;
    while (i < 1) {
      lock(&mutex);
      counter := counter + 1;
      unlock(&mutex);
      i := i + 1;
    }
  }
  void main() {
%(decls)s
%(creates)s
%(joins)s
    done := 1;
    print_uint32(counter);
  }
}
"""


def counter_chain(pairs: int, workers: int = 2) -> str:
    tids = [f"t{k}" for k in range(1, workers + 1)]
    body = {
        "decls": "\n".join(f"    var {t}: uint64;" for t in tids),
        "creates": "\n".join(
            f"    {t} := create_thread worker();" for t in tids
        ),
        "joins": "\n".join(f"    join({t});" for t in tids),
    }
    parts = [
        COUNTER_LEVEL % dict(body, index=i) for i in range(pairs + 1)
    ]
    for i in range(pairs):
        parts.append(
            "proof P%d { refinement L%d L%d weakening }" % (i, i, i + 1)
        )
    return "\n".join(parts)


def hold_refinement_checks(monkeypatch, release) -> None:
    """Hold every whole-program refinement check started in this
    process until ``release()`` is true (60 s at most), so that a job
    is mid-obligation by construction, however fast the check is."""
    from repro.explore import refinement_check

    check = refinement_check.check_refinement

    def held(*args, **kwargs):
        deadline = time.monotonic() + 60
        while not release() and time.monotonic() < deadline:
            time.sleep(0.01)
        return check(*args, **kwargs)

    monkeypatch.setattr(refinement_check, "check_refinement", held)


def start_daemon(state_dir, **kwargs):
    daemon = ArmadaDaemon(state_dir=state_dir, **kwargs)
    thread = DaemonThread(daemon)
    thread.__enter__()
    client = ServeClient(socket_path=daemon.socket_path)
    client.wait_until_ready()
    return daemon, thread, client


class TestProtocol:
    def test_roundtrip(self):
        message = {"op": "submit", "source": "x", "n": 3, "f": True}
        assert protocol.decode(protocol.encode(message)) == message

    def test_encode_is_one_line(self):
        encoded = protocol.encode({"a": "multi\nline"})
        assert encoded.endswith(b"\n")
        assert encoded.count(b"\n") == 1

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"\xff\xfe\n")

    def test_stream_tagging(self):
        assert "stream" not in protocol.ok(x=1)
        assert protocol.error("boom")["ok"] is False


class TestDaemonBasics:
    @pytest.fixture()
    def served(self, tmp_path):
        daemon, thread, client = start_daemon(tmp_path / "state")
        yield daemon, client
        thread.stop()

    def test_ping(self, served):
        _, client = served
        response = client.ping()
        assert response["pong"] is True
        assert response["version"] == protocol.PROTOCOL_VERSION

    def test_verify_matches_batch(self, served):
        from repro.proofs.engine import verify_source

        _, client = served
        batch = verify_source(QUICK_CHAIN)
        job_id = client.submit(QUICK_CHAIN)
        response = client.result(job_id, wait=True, timeout=60)
        assert response["state"] == "done"
        result = response["result"]
        assert result["status"] == batch.status == "verified"
        assert result["chain"] == batch.chain
        assert result["end_to_end"] is batch.end_to_end
        served_verdicts = [
            (o["proof"], o["strategy"], o["status"])
            for o in result["outcomes"]
        ]
        batch_verdicts = [
            (o.proof_name, o.strategy,
             "verified" if o.success else "failed")
            for o in batch.outcomes
        ]
        assert served_verdicts == batch_verdicts
        # The farm summary travels as JSON, counts only.
        assert sorted(result["farm"]) == [
            "cache_evictions", "cache_hits", "cache_quarantined",
            "cache_stores", "cancelled", "executed", "jobs", "slowest",
            "timeouts", "worker_seconds",
        ]
        assert result["farm"]["jobs"] == (
            result["farm"]["cache_hits"] + result["farm"]["executed"]
        )
        assert "analysis_notes" not in result

    def test_errors_are_responses_not_disconnects(self, served):
        _, client = served
        with pytest.raises(ServeError, match="no such job"):
            client.status("j-999999")
        with pytest.raises(ServeError, match="unknown kind"):
            client.submit("level A {}", kind="transmogrify")
        with pytest.raises(ServeError, match="non-empty 'source'"):
            client.submit("   ")
        with pytest.raises(ServeError, match="unknown op"):
            client.request({"op": "frobnicate"})
        # The connection machinery survived all of the above.
        assert client.ping()["pong"] is True

    def test_bad_program_is_job_error_not_crash(self, served):
        _, client = served
        job_id = client.submit("level Broken { syntax error")
        response = client.result(job_id, wait=True, timeout=60)
        assert response["state"] == "error"
        assert response.get("error")
        # Daemon still healthy afterwards.
        assert client.ping()["pong"] is True

    def test_stats_counters(self, served):
        _, client = served
        job_id = client.submit(QUICK_CHAIN)
        client.result(job_id, wait=True, timeout=60)
        stats = client.stats()
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["jobs"] == {"done": 1}
        assert stats["cache"]["max_bytes"] is None

    def test_analyze_and_explore_kinds(self, served):
        _, client = served
        analyze_id = client.submit(
            QUICK_CHAIN, kind="analyze", options={"level": "Impl"}
        )
        explore_id = client.submit(
            QUICK_CHAIN, kind="explore", options={"level": "Impl"}
        )
        analyzed = client.result(analyze_id, wait=True, timeout=60)
        explored = client.result(explore_id, wait=True, timeout=60)
        assert analyzed["result"]["status"] == "analyzed"
        assert analyzed["result"]["racy"] == []
        assert explored["result"]["status"] == "explored"
        assert explored["result"]["states"] > 0
        assert not explored["result"]["violations"]

    def test_unknown_level_is_a_job_error(self, served):
        _, client = served
        for kind in ("analyze", "explore"):
            job_id = client.submit(
                QUICK_CHAIN, kind=kind, options={"level": "Nope"}
            )
            response = client.result(job_id, wait=True, timeout=60)
            assert response["state"] == "error"
            assert response["error"] == (
                "no level named Nope (levels: Impl, Mid, Spec)"
            )

    def test_submit_wait_of_an_errored_job_prints_no_result(
        self, served, tmp_path, capsys
    ):
        from repro.cli import main

        daemon, _ = served
        program = tmp_path / "chain.arm"
        program.write_text(QUICK_CHAIN)
        argv = ["submit", str(program), "--socket",
                str(daemon.socket_path), "--kind", "explore",
                "--level", "Nope", "--wait"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no level named Nope (levels: Impl, Mid, Spec)\n"
        )

    @pytest.mark.parametrize("source, extra", [
        (DIVIDES_BY_ZERO, ()),
        (QUICK_CHAIN, ("--max-states", "1")),
    ], ids=["undefined-behavior", "budget-cut"])
    def test_submit_wait_exits_as_batch_explore(
        self, served, tmp_path, capsys, source, extra
    ):
        from repro.cli import main

        daemon, _ = served
        program = tmp_path / "program.arm"
        program.write_text(source)
        assert main(["explore", str(program), *extra]) == 1
        assert main(["submit", str(program), "--socket",
                     str(daemon.socket_path), "--kind", "explore",
                     "--wait", *extra]) == 1

    def test_submit_wait_of_an_inconclusive_chain_says_so(
        self, served, tmp_path, capsys
    ):
        from repro.cli import main

        daemon, _ = served
        program = tmp_path / "chain.arm"
        program.write_text(QUICK_CHAIN)
        # MidToSpec's whole-program check draws uint32 from (0, 1).
        assert main(["verify", str(program), "--validate", "always",
                     "--no-cache"]) == 1
        batch = capsys.readouterr().out
        assert main(["submit", str(program), "--socket",
                     str(daemon.socket_path), "--validate", "always",
                     "--wait"]) == 1
        served_out = capsys.readouterr().out
        line = next(
            line for line in batch.splitlines()
            if line.startswith("chain INCONCLUSIVE: ")
        )
        assert line in served_out.splitlines()


class TestConcurrentClients:
    def test_three_clients_verdicts_match_batch(self, tmp_path):
        from repro.analysis import analyze_level
        from repro.explore import Explorer
        from repro.lang.frontend import check_program
        from repro.machine.translator import translate_level
        from repro.proofs.engine import verify_source

        # Batch-mode ground truth.
        batch_verify = verify_source(QUICK_CHAIN)
        checked = check_program(QUICK_CHAIN, "<t>")
        batch_racy = analyze_level(
            checked.contexts["Impl"], max_states=200_000
        ).racy()
        batch_explore = Explorer(
            translate_level(checked.contexts["Impl"]),
            max_states=200_000,
        ).explore()

        daemon, thread, _ = start_daemon(tmp_path / "state", slots=2)
        results: dict = {}
        errors: list = []

        def run_client(tag, kind, options):
            try:
                client = ServeClient(socket_path=daemon.socket_path)
                job_id = client.submit(
                    QUICK_CHAIN, kind=kind, options=options
                )
                results[tag] = client.result(
                    job_id, wait=True, timeout=120
                )
            except Exception as error:  # noqa: BLE001
                errors.append((tag, error))

        clients = [
            threading.Thread(
                target=run_client, args=("verify", "verify", {})
            ),
            threading.Thread(
                target=run_client,
                args=("analyze", "analyze", {"level": "Impl"}),
            ),
            threading.Thread(
                target=run_client,
                args=("explore", "explore", {"level": "Impl"}),
            ),
        ]
        try:
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=120)
        finally:
            thread.stop()
        assert not errors
        assert results["verify"]["result"]["status"] == \
            batch_verify.status
        assert [
            (o["proof"], o["status"])
            for o in results["verify"]["result"]["outcomes"]
        ] == [
            (o.proof_name, "verified" if o.success else "failed")
            for o in batch_verify.outcomes
        ]
        assert results["analyze"]["result"]["racy"] == batch_racy
        assert results["explore"]["result"]["states"] == \
            batch_explore.states_visited

    def test_cancel_queued_job_never_runs(self, tmp_path, monkeypatch):
        daemon, thread, client = start_daemon(
            tmp_path / "state", slots=1
        )
        # The occupant's check is held until the victim is cancelled.
        release = threading.Event()
        hold_refinement_checks(monkeypatch, release.is_set)
        try:
            # Occupy the single slot, then cancel a queued job.
            running = client.submit(
                counter_chain(1), options={"validate": "always"},
            )
            queued = client.submit(QUICK_CHAIN)
            status = client.cancel(queued)
            assert status["state"] == "cancelled"
            assert status["cancel_requested"] is True
            response = client.result(queued, wait=True, timeout=30)
            assert response["state"] == "cancelled"
            release.set()
            # The occupant is unaffected.
            occupant = client.result(running, wait=True, timeout=120)
            assert occupant["result"]["status"] == "verified"
            # The victim never started.
            victim = client.status(queued)
            assert victim["state"] == "cancelled"
            assert victim["cancel_requested"] is True
            assert victim["started_at"] is None
            assert victim["finished_at"] is not None
        finally:
            release.set()
            thread.stop()


def farm_counts(response) -> tuple[int, int, int]:
    """(jobs, executed, cache hits) of a settled verify job."""
    farm = response["result"]["farm"]
    return farm["jobs"], farm["executed"], farm["cache_hits"]


class TestIncremental:
    """A resubmission is served by the shared proof cache, obligation
    by obligation: it executes only what changed."""

    def test_warm_resubmit_executes_nothing(self, tmp_path):
        daemon, thread, client = start_daemon(tmp_path / "state")
        try:
            cold_id = client.submit(QUICK_CHAIN)
            cold = client.result(cold_id, wait=True, timeout=60)
            jobs, executed, hits = farm_counts(cold)
            assert jobs > 0 and executed == jobs and hits == 0

            warm_id = client.submit(QUICK_CHAIN)
            warm = client.result(warm_id, wait=True, timeout=60)
            assert farm_counts(warm) == (jobs, 0, jobs)
            # Verdicts are identical to the cold run's.
            assert [
                (o["proof"], o["status"]) for o in warm["result"]["outcomes"]
            ] == [
                (o["proof"], o["status"]) for o in cold["result"]["outcomes"]
            ]
            assert warm["result"]["status"] == "verified"
        finally:
            thread.stop()

    def test_one_level_edit_executes_only_its_proofs(self, tmp_path):
        from repro.proofs.engine import verify_source

        # x := 1 lies in the bounded havoc domain of Spec's x := *, so
        # both whole-program checks verify (and are cached).
        source = QUICK_CHAIN.replace("x := 3", "x := 1")
        # Edit only Spec (semantic change: g becomes nondet, which is
        # still a valid weakening of Mid's g := 1).
        edited = source.replace("x := *; g := 1;", "x := *; g := *;")
        assert edited != source
        always = {"validate": "always"}
        obligations = {
            o.proof_name: sum(
                lemma.obligation is not None for lemma in o.script.lemmas
            )
            for o in verify_source(
                edited, validate_refinement="always"
            ).outcomes
        }
        assert obligations["ImplToMid"] > 0
        assert obligations["MidToSpec"] > 0
        daemon, thread, client = start_daemon(tmp_path / "state")
        try:
            cold_id = client.submit(source, options=always)
            client.result(cold_id, wait=True, timeout=60)
            edit_id = client.submit(edited, options=always)
            response = client.result(edit_id, wait=True, timeout=60)
            assert response["result"]["status"] == "verified"
            jobs, executed, hits = farm_counts(response)
            assert executed == obligations["MidToSpec"]
            assert hits == obligations["ImplToMid"]
            assert jobs == executed + hits
        finally:
            thread.stop()

    def test_second_tenant_executes_nothing(self, tmp_path):
        daemon, thread, _ = start_daemon(tmp_path / "state")
        try:
            tenant_a = ServeClient(socket_path=daemon.socket_path)
            tenant_b = ServeClient(socket_path=daemon.socket_path)
            a = tenant_a.submit(QUICK_CHAIN, filename="a.arm")
            first = tenant_a.result(a, wait=True, timeout=60)
            b = tenant_b.submit(QUICK_CHAIN, filename="b.arm")
            second = tenant_b.result(b, wait=True, timeout=60)
            jobs, _, _ = farm_counts(first)
            assert farm_counts(second) == (jobs, 0, jobs)
        finally:
            thread.stop()

    def test_submit_wait_prints_the_farm_line(self, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "chain.arm"
        program.write_text(QUICK_CHAIN)
        daemon, thread, _ = start_daemon(tmp_path / "state")
        try:
            argv = ["submit", str(program), "--socket",
                    str(daemon.socket_path), "--wait"]
            assert main(argv) == 0
            assert "farm: 3 obligations, 0 from cache, 3 executed" in (
                capsys.readouterr().out
            )
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "farm: 3 obligations, 3 from cache, 0 executed" in out
            assert "ImplToMid [var_intro]: verified" in out
        finally:
            thread.stop()


class TestRetention:
    def test_settled_jobs_keep_no_machine_alive(self, tmp_path,
                                                monkeypatch):
        from repro.proofs import engine

        built: list[weakref.ref] = []
        translate = engine.translate_level

        def recording(*args, **kwargs):
            machine = translate(*args, **kwargs)
            built.append(weakref.ref(machine))
            return machine

        monkeypatch.setattr(engine, "translate_level", recording)
        sources = [
            counter_chain(7),
            counter_chain(7).replace("done := 1;", "done := 2;"),
        ]
        daemon, thread, client = start_daemon(tmp_path / "state")
        try:
            for source in sources:
                job_id = client.submit(
                    source, options={"validate": "always"}
                )
                response = client.result(job_id, wait=True, timeout=120)
                assert response["result"]["status"] == "verified"
            gc.collect()
            assert len(built) == 16
            alive = [ref for ref in built if ref() is not None]
            assert not alive, f"{len(alive)} of {len(built)} alive"
        finally:
            thread.stop()


class TestDrainAndResume:
    def test_drain_keeps_unfinished_jobs_pending(
        self, tmp_path, monkeypatch
    ):
        state = tmp_path / "state"
        daemon, thread, client = start_daemon(state, slots=1)
        # The in-flight check runs only once the drain has begun.
        hold_refinement_checks(monkeypatch, lambda: daemon.draining)
        running = client.submit(
            counter_chain(1), options={"validate": "always"},
        )
        queued = client.submit(QUICK_CHAIN)
        # Wait until the slow job is actually mid-obligation: its farm
        # exists once parse/translate are done and the sweep began.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if daemon.jobs[running].farm is not None:
                break
            time.sleep(0.05)
        assert daemon.jobs[running].farm is not None
        time.sleep(0.3)
        assert client.status(running)["state"] == "running"
        # A client waiting on the queued job must not keep the daemon
        # from exiting: the drain ends its connection.
        waited: list = []
        waiter = threading.Thread(target=lambda: waited.append(
            pytest.raises(ServeError, client.result, queued, wait=True,
                          timeout=60)
        ))
        waiter.start()
        time.sleep(0.3)
        thread.stop()  # the same drain SIGTERM triggers
        assert thread.exit_code == 0
        waiter.join(timeout=30)
        assert not waiter.is_alive() and waited
        # The in-flight obligation finished during the drain: its job
        # settled and was marked done.  The queued job never started.
        assert daemon.jobs[running].state == "done"
        assert daemon.jobs[running].result["status"] == "verified"
        assert daemon.jobs[queued].state == "queued"

        pending = [
            json.loads(line)
            for line in (state / "pending.jsonl").read_text()
            .splitlines() if line.strip()
        ]
        done_ids = {r["id"] for r in pending if r.get("done")}
        open_ids = {
            r["id"] for r in pending
            if not r.get("done") and "source" in r
        } - done_ids
        assert running in done_ids
        assert queued in open_ids

        # A new daemon on the same state dir resumes the queued job.
        daemon2, thread2, client2 = start_daemon(state, slots=1)
        try:
            response = client2.result(queued, wait=True, timeout=60)
            assert response["id"] == queued
            assert response["state"] == "done"
            assert response["result"]["status"] == "verified"
            assert daemon2.jobs[queued].state == "done"
        finally:
            thread2.stop()

    def test_draining_daemon_rejects_submits(self, tmp_path):
        daemon, thread, client = start_daemon(tmp_path / "state")
        try:
            # Set the flag without tearing the server down, so the
            # rejection (not a connection error) is what we observe.
            daemon.draining = True
            assert client.ping()["draining"] is True
            with pytest.raises(ServeError, match="draining"):
                client.submit(QUICK_CHAIN)
        finally:
            thread.stop()


@pytest.mark.flaky
class TestRealSignals:
    """Actual SIGTERM and shutdown against real subprocesses."""

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        return env

    def test_shutdown_with_an_idle_connection_exits_cleanly(
        self, tmp_path
    ):
        sock = tmp_path / "armada.sock"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--state-dir", str(tmp_path / "state"),
             "--socket", str(sock)],
            env=self._env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            client = ServeClient(socket_path=sock)
            client.wait_until_ready(timeout=30)
            idle.connect(str(sock))
            client.ping()  # the idle connection has been accepted
            client.shutdown()
            _, stderr = proc.communicate(timeout=60)
        finally:
            idle.close()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained; exiting" in stderr
        assert "Traceback" not in stderr
        assert "Exception in callback" not in stderr

    def test_serve_sigterm_then_restart_resumes(self, tmp_path):
        state = tmp_path / "state"
        sock = tmp_path / "armada.sock"
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", str(state), "--socket", str(sock),
            "--slots", "1",
        ]
        proc = subprocess.Popen(
            argv, env=self._env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            client = ServeClient(socket_path=sock)
            client.wait_until_ready(timeout=30)
            # Two slow proofs: SIGTERM lands while the first is in
            # flight, so the second is cancelled and the job ends
            # inconclusive — i.e. it must survive into pending.jsonl.
            # The daemon is a separate process, so the check cannot be
            # held: the three-worker family outlasts the signal offset.
            job_id = client.submit(
                counter_chain(2, workers=3),
                options={"validate": "always"},
            )
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.status(job_id)["state"] == "running":
                    break
                time.sleep(0.05)
            time.sleep(0.5)  # well inside the first obligation
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "Traceback" not in stderr
            assert "drained" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        # The interrupted job is still pending on disk.
        pending = (state / "pending.jsonl").read_text()
        assert job_id in pending

        # A restarted daemon picks it up and finishes it.
        proc = subprocess.Popen(
            argv, env=self._env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            client = ServeClient(socket_path=sock)
            client.wait_until_ready(timeout=30)
            response = client.result(job_id, wait=True, timeout=120)
            assert response["state"] == "done"
            assert response["result"]["status"] == "verified"
            client.shutdown()
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "resumed 1 unfinished job" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_batch_verify_sigterm_drains_without_traceback(
        self, tmp_path
    ):
        program = tmp_path / "chain.arm"
        program.write_text(counter_chain(6))
        # Every whole-program check sleeps 1.5 s before it runs: a
        # signal 2 s in is always mid-run, with at least a few
        # obligations still unsettled afterwards.
        launcher = (
            "import sys, time\n"
            "from repro.explore import refinement_check\n"
            "check = refinement_check.check_refinement\n"
            "def slow_check(*args, **kwargs):\n"
            "    time.sleep(1.5)\n"
            "    return check(*args, **kwargs)\n"
            "refinement_check.check_refinement = slow_check\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        cache = tmp_path / "cache"
        argv = [
            "verify", str(program), "--validate", "always",
            "--cache", str(cache), "--farm-report",
        ]
        proc = subprocess.Popen(
            [sys.executable, "-c", launcher, *argv],
            env=self._env(), cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            time.sleep(2.0)
            assert proc.poll() is None, proc.communicate()
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "Traceback" not in stderr
        assert "drain requested" in stderr
        assert "drained after signal; re-run with the same --cache to " \
            "resume" in stderr
        # The run reported inconclusive — nothing was refuted.
        assert "INCONCLUSIVE" in stdout
        assert "FAILED" not in stdout
        # The drained checks were cut short, not run.  Each check that
        # ran settled and was stored; how many ran before the signal
        # depends on the load of the host.
        assert "cancelled by drain request:" in stdout
        executed = int(
            stdout.split("executed by workers:")[1].split()[0]
        )
        assert f"cache stores:         {executed}\n" in stdout
        settled = len(list(cache.glob("??/*.verdict")))
        assert settled == executed

        # The same command run again executes only what was left.
        rerun = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=self._env(), cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
        )
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert (
            f"farm: 6 obligations, {settled} from cache, "
            f"{6 - settled} executed"
        ) in rerun.stdout
