"""The envelope registry: the one place schema literals live."""

import pytest

from repro.api import envelopes


class TestRegistry:
    def test_every_constant_is_registered(self):
        for schema, entry in envelopes.REGISTRY.items():
            assert schema == f"repro-{entry.name}/{entry.version}"
            assert entry.producer

    def test_make_round_trips_through_validate(self):
        for schema in envelopes.REGISTRY:
            doc = envelopes.make(schema, {"x": 1})
            entry = envelopes.validate(doc)
            assert entry.schema == schema
            assert doc["x"] == 1

    def test_short_name_and_full_schema_agree(self):
        assert envelopes.schema_of("check") == envelopes.CHECK
        assert envelopes.schema_of(envelopes.CHECK) == envelopes.CHECK

    def test_make_refuses_conflicting_schema_key(self):
        with pytest.raises(envelopes.EnvelopeError, match="relabel"):
            envelopes.make("check", {"schema": "repro-run/1"})

    def test_make_accepts_matching_schema_key(self):
        doc = envelopes.make("check", {"schema": envelopes.CHECK, "ok": True})
        assert doc["schema"] == envelopes.CHECK

    def test_known_catalog_entries(self):
        # The wire constants the daemon and clients pin on.
        assert envelopes.SERVE_REQUEST == "repro-serve-request/1"
        assert envelopes.SERVE_RESPONSE == "repro-serve-response/1"
        assert envelopes.SERVE_ERROR == "repro-serve-error/1"
        assert envelopes.EXEC_CACHE == "repro-exec-cache/4"

    def test_registry_table_renders_every_schema(self):
        table = envelopes.registry_table()
        for schema in envelopes.REGISTRY:
            assert schema in table


class TestValidate:
    def test_rejects_non_dict(self):
        with pytest.raises(envelopes.EnvelopeError, match="JSON object"):
            envelopes.validate([1, 2])

    def test_rejects_missing_schema(self):
        with pytest.raises(envelopes.EnvelopeError, match="schema"):
            envelopes.validate({"ok": True})

    def test_rejects_unknown_name(self):
        with pytest.raises(envelopes.EnvelopeError, match="unknown"):
            envelopes.validate({"schema": "repro-nonesuch/1"})

    def test_rejects_unregistered_version_of_known_name(self):
        with pytest.raises(envelopes.EnvelopeError, match="version"):
            envelopes.validate({"schema": "repro-check/99"})


class TestProducersImportTheRegistry:
    """Schema literals must not drift from their producer modules."""

    def test_obs_constants_come_from_registry(self):
        from repro.obs import metrics, report, sentinel, tracer
        assert tracer.SCHEMA is envelopes.OBS_TRACE
        assert report.SUMMARY_SCHEMA is envelopes.OBS_SUMMARY
        assert metrics.SCHEMA is envelopes.OBS_METRICS
        assert sentinel.SCHEMA is envelopes.OBS_SENTINEL
        assert sentinel.RECORD_SCHEMA is envelopes.TRAJECTORY

    def test_cache_code_version_comes_from_registry(self):
        from repro.exec import cache as exec_cache
        from repro.resil import cli as resil_cli
        assert exec_cache.CODE_VERSION is envelopes.EXEC_CACHE
        assert resil_cli.CHAOS_SCHEMA is envelopes.CHAOS
