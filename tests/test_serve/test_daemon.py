"""The daemon end to end: concurrent clients, byte-identity vs the
serial Toolchain, typed error envelopes, control plane."""

import threading

import pytest

from repro.api import envelopes
from repro.api.build import dumps_canonical
from repro.serve import Client, ServeConfig, ServeError, start_in_thread
from repro.serve.jobs import JobError, run_job
from repro.serve.quota import TENANT_BUDGET, TENANT_INFLIGHT

POINTERY = "char *f(char *p) { return p + 1; }"
TINY = """
int main(void) {
    char *s = (char *)GC_malloc(16);
    int i, t = 0;
    for (i = 0; i < 10; i++) s[i] = i * 2;
    for (i = 0; i < 10; i++) t += s[i];
    return t;
}
"""


class TestRoundTrips:
    def test_annotate_matches_cli_envelope(self, daemon, tmp_path):
        from repro.exec import cache as exec_cache
        with Client(port=daemon.port) as client:
            served = client.annotate(POINTERY)
        with exec_cache.cache_context(
                *exec_cache.open_caches(str(tmp_path / "ref"))):
            serial = run_job("annotate", {"source": POINTERY},
                             ServeConfig().defaults())
        assert dumps_canonical(served) == dumps_canonical(serial)
        assert served["schema"] == envelopes.ANNOTATE
        assert "KEEP_LIVE" in served["text"]

    def test_run_executes_the_program(self, daemon):
        with Client(port=daemon.port) as client:
            doc = client.run(TINY)
        assert doc["schema"] == envelopes.RUN
        assert doc["exit_code"] == sum(i * 2 for i in range(10))

    def test_check_reports_diagnostics(self, daemon):
        with Client(port=daemon.port) as client:
            doc = client.check("char *f(int v) { return (char *)v; }")
        assert doc["schema"] == envelopes.CHECK
        assert not doc["ok"] and doc["count"] == 1

    def test_job_failure_is_a_typed_envelope(self, daemon):
        with Client(port=daemon.port) as client:
            with pytest.raises(ServeError) as err:
                client.run("int main( {")          # parse error
        assert err.value.code == "job_failed"

    @pytest.mark.parametrize("source, config, message", [
        ("int main(void) { return strlen((char *)16); }", "O",
         "fault: unmapped address: 0x00000010"),
        ("int main(void) { char *p = (char *)GC_malloc(8); char *q; "
         "q = p - 1; return q != 0; }", "g_checked",
         "check: pointer arithmetic moved"),
    ], ids=["fault", "check"])
    def test_failed_run_is_a_job_error(self, source, config, message):
        with pytest.raises(JobError) as err:
            run_job("run", {"source": source, "config": config},
                    ServeConfig().defaults())
        assert str(err.value).startswith(message)

    def test_unknown_method_is_typed(self, daemon):
        with Client(port=daemon.port) as client:
            with pytest.raises(ServeError) as err:
                client.call("frobnicate", {})
        assert err.value.code == "unknown_method"


class TestConcurrentByteIdentity:
    def test_eight_clients_match_serial(self, daemon, tmp_path):
        """8 threads, distinct tenants, same job — every served
        envelope must equal the serial Toolchain bytes."""
        from repro.exec import cache as exec_cache
        with exec_cache.cache_context(
                *exec_cache.open_caches(str(tmp_path / "ref"))):
            want = dumps_canonical(run_job(
                "annotate", {"source": POINTERY}, ServeConfig().defaults()))
        results: list = [None] * 8

        def worker(k: int) -> None:
            with Client(port=daemon.port, tenant=f"t{k}") as client:
                results[k] = dumps_canonical(client.annotate(POINTERY))

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert all(r == want for r in results)


class TestQuotaEnvelopes:
    def test_budget_exhaustion_is_typed(self, tmp_path):
        config = ServeConfig(port=0, tenant_jobs=2,
                             cache_dir=str(tmp_path / "cache"))
        with start_in_thread(config) as handle:
            with Client(port=handle.port, tenant="ci") as client:
                client.check("int f(int a) { return a; }")
                client.check("int f(int a) { return a; }")
                with pytest.raises(ServeError) as err:
                    client.check("int f(int a) { return a; }")
        assert err.value.code == "quota_exceeded"
        assert err.value.reason == TENANT_BUDGET
        assert err.value.envelope["schema"] == envelopes.SERVE_ERROR

    def test_inflight_rejection_reason_label(self, tmp_path):
        # max_queue_depth=0 rejects everything at the door.
        config = ServeConfig(port=0, max_queue_depth=0,
                             cache_dir=str(tmp_path / "cache"))
        with start_in_thread(config) as handle:
            with Client(port=handle.port) as client:
                with pytest.raises(ServeError) as err:
                    client.check("int f(int a) { return a; }")
                assert err.value.code == "admission_rejected"
                assert err.value.reason == "queue_full"
                # the control plane still answers when saturated
                health = client.health()
        assert health["admission"]["rejections"] == {"queue_full": 1}

    def test_inflight_cap_needs_concurrency(self, tmp_path):
        """A tenant above max_inflight gets tenant_inflight; serial
        requests release before the next admit, so drive the queue with
        a stalled scheduler via a tiny batch and many async clients."""
        config = ServeConfig(port=0, tenant_inflight=1, batch_size=1,
                             cache_dir=str(tmp_path / "cache"))
        errors: list = []
        with start_in_thread(config) as handle:
            def worker() -> None:
                try:
                    with Client(port=handle.port, tenant="one") as client:
                        client.fuzz(seed=0, iters=1)
                except ServeError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(180)
        assert all(e.reason == TENANT_INFLIGHT for e in errors)
        # at least one of the four concurrent jobs must have queued
        # behind the inflight=1 cap
        assert errors, "expected at least one tenant_inflight rejection"


class TestControlPlane:
    def test_health_envelope(self, daemon):
        with Client(port=daemon.port) as client:
            doc = client.health()
        assert doc["schema"] == envelopes.SERVE_HEALTH
        assert set(doc["methods"]) >= {"annotate", "check", "run",
                                       "bench", "fuzz"}

    def test_metrics_snapshot_has_serve_series(self, daemon):
        with Client(port=daemon.port) as client:
            client.check("int f(int a) { return a; }")
            snap = client.metrics_snapshot()
        assert snap["schema"] == envelopes.OBS_METRICS
        names = set(snap["metrics"])
        assert any(n.startswith("serve.requests") for n in names)
        assert any(n.startswith("serve.request_ns") for n in names)

    def test_stop_restores_the_tiers_installed_before(self, tmp_path):
        from repro.exec import cache as exec_cache
        host = exec_cache.CompileCache(str(tmp_path / "host"))
        config = ServeConfig(port=0, cache_dir=str(tmp_path / "cache"))
        with exec_cache.cache_context(host):
            handle = start_in_thread(config)
            served = exec_cache.active_cache("compile")
            handle.stop()
            assert served is not host
            assert served.root == str(tmp_path / "cache" / "compile")
            assert exec_cache.active_cache("compile") is host
            assert exec_cache.active_cache("result") is None

    def test_shutdown_via_rpc(self, tmp_path):
        config = ServeConfig(port=0, cache_dir=str(tmp_path / "cache"))
        handle = start_in_thread(config)
        with Client(port=handle.port) as client:
            client.shutdown()
        handle.thread.join(30)
        assert not handle.thread.is_alive()
