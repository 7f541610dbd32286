"""The envelope registry — every versioned JSON schema in one place.

Machine-readable outputs across the repo are *versioned envelopes*: a
JSON document whose top-level ``"schema"`` key is ``repro-<name>/<v>``,
bumped on shape changes.  This module is the registry of record — the
schema string literals live here and nowhere else; every producer
(CLI ``--json``, the obs exporters, the serve daemon) imports its
constant or goes through :func:`make`.

>>> from repro.api import envelopes
>>> doc = envelopes.make("check", {"ok": True, "diagnostics": []})
>>> doc["schema"]
'repro-check/1'
>>> envelopes.validate(doc).name
'check'

The module is intentionally a leaf: it imports nothing from the rest
of ``repro``, so any subsystem (including :mod:`repro.obs`, which the
heavy facade imports transitively) can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


class EnvelopeError(ValueError):
    """A document failed envelope validation (missing / unknown /
    version-mismatched ``schema`` key)."""


@dataclass(frozen=True)
class Envelope:
    """One registered schema: its name, version, and producer."""

    name: str
    version: int
    producer: str

    @property
    def schema(self) -> str:
        return f"repro-{self.name}/{self.version}"


#: schema string -> Envelope, in registration order.
REGISTRY: dict[str, Envelope] = {}
#: name -> Envelope (latest registered version wins).
_BY_NAME: dict[str, Envelope] = {}


def _register(name: str, version: int, producer: str) -> str:
    env = Envelope(name, version, producer)
    if env.schema in REGISTRY:
        raise ValueError(f"duplicate envelope registration {env.schema!r}")
    REGISTRY[env.schema] = env
    _BY_NAME[name] = env
    return env.schema


# -- the catalog (docs/ARCHITECTURE.md renders this table) ---------------

ANNOTATE = _register("annotate", 1, "repro annotate --json / serve")
CHECK = _register("check", 1, "repro check --json / serve")
RUN = _register("run", 1, "repro cc --json / serve")
BENCH = _register("bench", 1, "repro bench --json / serve")
FUZZ = _register("fuzz", 1, "python -m repro.fuzz --json / serve")
CACHE_STATS = _register("cache-stats", 1, "repro cache stats --json")
CACHE_VERIFY = _register("cache-verify", 1, "repro cache verify --json")
CHAOS = _register("chaos", 1, "repro chaos --json")
EXEC_CACHE = _register("exec-cache", 4,
                       "cache key / code-version salt (on disk)")
OBS_TRACE = _register("obs-trace", 1,
                      "JSONL traces (--trace, repro.obs record)")
OBS_SUMMARY = _register("obs-summary", 1,
                        "repro.obs record --summary-json / report")
TRAJECTORY = _register("trajectory", 1,
                       "BENCH.jsonl records (repro.obs trajectory / sentinel, "
                       "benchmarks/check_*.py)")
OBS_METRICS = _register("obs-metrics", 1,
                        "metric snapshots (--metrics-out, repro.obs record)")
OBS_SENTINEL = _register("obs-sentinel", 1,
                         "repro.obs sentinel / benchmarks/check_sentinel.py")
SERVE_REQUEST = _register("serve-request", 1,
                          "repro.api.Client -> daemon wire request")
SERVE_RESPONSE = _register("serve-response", 1,
                           "daemon wire response (result payload inside)")
SERVE_ERROR = _register("serve-error", 1,
                        "daemon typed error (admission/quota/job failures)")
SERVE_HEALTH = _register("serve-health", 1, "serve 'health' control method")
SERVE_LOAD = _register("serve-load", 1,
                       "repro serve load SLO report (--json)")


def schema_of(name: str) -> str:
    """``'check'`` -> ``'repro-check/1'``; full schema strings pass
    through (validated)."""
    if name in _BY_NAME:
        return _BY_NAME[name].schema
    if name in REGISTRY:
        return name
    raise EnvelopeError(f"unknown envelope {name!r}")


def make(name: str, payload: dict) -> dict:
    """A fresh envelope dict: ``{"schema": ..., **payload}``.

    ``name`` may be a short name (``"check"``) or a full schema string;
    the payload must not carry its own conflicting ``"schema"`` key.
    """
    schema = schema_of(name)
    if payload.get("schema", schema) != schema:
        raise EnvelopeError(
            f"payload already tagged {payload['schema']!r}, "
            f"refusing to relabel as {schema!r}")
    doc = {"schema": schema}
    doc.update(payload)
    return doc


def validate(doc) -> Envelope:
    """Check ``doc`` is a registered envelope; return its entry.

    Distinguishes the three failure modes — not a JSON object, no
    ``schema`` key, and unknown name vs. unregistered *version* of a
    known name — because clients branch on them.
    """
    if not isinstance(doc, dict):
        raise EnvelopeError(f"envelope must be a JSON object, "
                            f"got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema is None:
        raise EnvelopeError("document has no 'schema' key")
    entry = REGISTRY.get(schema)
    if entry is None:
        name = str(schema).rsplit("/", 1)[0]
        known = [e.schema for e in REGISTRY.values()
                 if f"repro-{e.name}" == name]
        if known:
            raise EnvelopeError(
                f"unregistered version {schema!r} (known: {known})")
        raise EnvelopeError(f"unknown envelope schema {schema!r}")
    return entry


def registry_table() -> str:
    """The markdown schema table (kept in sync with ARCHITECTURE.md)."""
    width = max(len(e.schema) for e in REGISTRY.values()) + 2
    lines = [f"| {'schema':<{width}} | producer |",
             f"|{'-' * (width + 2)}|----------|"]
    for env in REGISTRY.values():
        lines.append(f"| `{env.schema}`{' ' * (width - len(env.schema) - 2)} "
                     f"| {env.producer} |")
    return "\n".join(lines)


__all__ = ["Envelope", "EnvelopeError", "REGISTRY", "make", "schema_of",
           "validate", "registry_table"]
