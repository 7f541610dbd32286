"""Content-addressed on-disk caches for the compile pipeline.

Two tiers, one mechanism:

* :class:`CompileCache` (kind ``"compile"``) memoizes the full
  cfront → annotate → lower → opt → codegen → postproc pipeline at the
  linked :class:`~repro.machine.driver.CompiledProgram` boundary.
* :class:`ResultCache` (kind ``"result"``) memoizes one *executed*
  benchmark cell (a :class:`~repro.bench.harness.CellResult`) — sound
  because the VM is a deterministic simulator: cycles, GC counts, and
  output are pure functions of (program, model, stdin, gc settings).

Key anatomy — the SHA-256 of a canonical JSON object::

    {"schema":  CODE_VERSION,          # code-version salt; bump on any
                                       #   change to pipeline output
     "extra":   [..salt_context tags], # e.g. test-only broken passes
     "source":  <full source text>,
     "config":  {optimize, safe, checked, model, passes,
                 naive_keep_live, run_cpp, peephole, sink,
                 annotate:{...}}}

and for result-cache keys additionally the run parameters ``{stdin,
gc_interval, poison, max_instructions}``.  The postprocessing stages
are config fields, so both tiers key them the same way.  Any component
changing — one config flag, one optimizer pass, the salt — produces a
different address, so "invalidation" is structural:
stale entries are simply never addressed again.  Sources that pull in
out-of-band bytes (``#include``) are not cacheable, since the key could
not see the included text change.

Entry format: ``<root>/<key[:2]>/<key>.bin`` containing an 8-byte magic,
the SHA-256 of the payload, then the pickled payload.  Reads verify the
checksum; a corrupted entry (truncation, flipped bytes, bad pickle) is
*evicted* and reported as a miss, so the caller transparently
recompiles.  Writes are atomic (``os.replace`` of a same-directory temp
file), so concurrent workers racing on one key at worst both store the
same bytes.

Hit/miss/eviction counters live on :attr:`_DiskCache.stats`, are merged
across engine workers, surface as ``cache.hit`` / ``cache.miss`` /
``cache.evict`` instants on the active tracer, and drive the
``repro cache stats|clear|verify`` CLI.

Resilience: the cache is an accelerator, never a dependency.  A write
failing with ``OSError`` (ENOSPC and friends) is counted and skipped,
not raised.  ``breaker_threshold`` *consecutive* corrupt reads trip a
circuit breaker that bypasses the tier for the rest of the process
(every lookup a miss, every store skipped) with one stderr warning —
a rotten cache directory degrades throughput, not correctness.  Reads
and writes pass through :mod:`repro.resil.inject` so chaos plans can
corrupt entries / fail writes deterministically.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from ..api import envelopes
from ..obs import runtime as obs_runtime
from ..resil import inject as resil_inject

# Bump whenever any pipeline stage may produce different output for the
# same (source, config): it salts every key, orphaning old entries.
# /2: allocation sinking changed what a "cell" can contain, and cells
# gained a sink field.  /4: postprocessing became a compile stage, so a
# CompiledProgram carries its stages' stats.
CODE_VERSION = envelopes.EXEC_CACHE

_MAGIC = b"RPROCC01"
_DIGEST_LEN = 32

# Extra salt tags pushed by salt_context() — test hooks that perturb
# pipeline behavior without changing any key component (e.g. the
# re-broken addrfold pass) MUST wrap themselves in one.
_extra_salt: list[str] = []


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_evicted: int = 0
    cleared: int = 0
    breaker_trips: int = 0
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores,
                "corrupt_evicted": self.corrupt_evicted,
                "cleared": self.cleared,
                "breaker_trips": self.breaker_trips,
                "write_errors": self.write_errors}

    def merge(self, other: "CacheStats | dict") -> "CacheStats":
        d = other.to_dict() if isinstance(other, CacheStats) else other
        for name, value in d.items():
            setattr(self, name, getattr(self, name) + int(value))
        return self


def _canonical_key(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_fingerprint(config) -> dict[str, Any] | None:
    """The key-relevant view of a ``CompileConfig``; None if the
    configuration is not cacheable (out-of-band inputs)."""
    if config.include_dirs:
        return None
    ann = config.annotate_options
    return {
        "optimize": config.optimize,
        "safe": config.safe,
        "checked": config.checked,
        "model": config.model.name,
        "passes": list(config.passes),
        "naive_keep_live": config.naive_keep_live,
        "run_cpp": config.run_cpp,
        "peephole": config.peephole,
        "sink": config.sink,
        "annotate": None if ann is None else {
            name: getattr(ann, name)
            for name in sorted(ann.__dataclass_fields__)},
    }


def front_key(source: str, config,
              fields: tuple[str, ...] | None = None) -> str | None:
    """The in-memory address of a compile stage's product (see
    ``machine.driver.front_memo``): the source, the config key
    ``fields`` the stage reads (default: every one but the back half's
    ``model``, ``peephole`` and ``sink``, which is what the optimized IR
    reads), and the salt_context() tags.  None when the configuration
    is not cacheable."""
    fp = config_fingerprint(config)
    if fp is None:
        return None
    if fields is None:
        fields = tuple(f for f in fp if f not in ("model", "peephole", "sink"))
    return _canonical_key({"extra": list(_extra_salt), "source": source,
                           "config": {f: fp[f] for f in fields}})


class _DiskCache:
    """Shared content-addressed store; subclasses define key schemas."""

    kind = "generic"
    #: Consecutive corrupt reads that open the circuit breaker.
    breaker_threshold = 3

    def __init__(self, root: str, salt: str = CODE_VERSION):
        self.root = os.path.abspath(root)
        self.salt = salt
        self.stats = CacheStats()
        self._corrupt_streak = 0
        self._breaker_open = False

    # -- keys --------------------------------------------------------------

    def _key(self, body: dict[str, Any]) -> str:
        return _canonical_key({"schema": self.salt, "kind": self.kind,
                               "extra": list(_extra_salt), **body})

    # -- storage -----------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".bin")

    def get(self, key: str) -> Any | None:
        """Load + verify one entry; corrupt entries are evicted."""
        if self._breaker_open:
            self.stats.misses += 1
            self._count_metric("cache.misses")
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            self.stats.misses += 1
            self._instant("cache.miss", key)
            self._count_metric("cache.misses")
            return None
        blob = resil_inject.filter_cache_read(self.kind, blob)
        payload = self._verified_payload(blob)
        if payload is None:
            self._evict(path, key)
            self.stats.misses += 1
            self._note_corrupt()
            self._count_metric("cache.misses")
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._evict(path, key)
            self.stats.misses += 1
            self._note_corrupt()
            self._count_metric("cache.misses")
            return None
        self.stats.hits += 1
        self._corrupt_streak = 0
        self._instant("cache.hit", key)
        self._count_metric("cache.hits")
        return value

    def put(self, key: str, value: Any) -> None:
        if self._breaker_open:
            return
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        path = self._path(key)
        tmp = None
        try:
            resil_inject.check_cache_write(self.kind)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=".tmp-" + key[:8])
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            # Disk trouble (ENOSPC and friends) must never fail the run:
            # the cache is an accelerator, not a dependency.
            self._cleanup_tmp(tmp)
            self.stats.write_errors += 1
            self._instant("cache.write_error", key)
            self._count_metric("cache.write_errors")
            return
        except BaseException:
            self._cleanup_tmp(tmp)
            raise
        self.stats.stores += 1
        self._count_metric("cache.stores")

    @staticmethod
    def _cleanup_tmp(tmp: str | None) -> None:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- circuit breaker ---------------------------------------------------

    @property
    def breaker_open(self) -> bool:
        return self._breaker_open

    def _note_corrupt(self) -> None:
        self._corrupt_streak += 1
        self._count_metric("cache.corrupt_reads")
        if (not self._breaker_open
                and self._corrupt_streak >= self.breaker_threshold):
            self._breaker_open = True
            self.stats.breaker_trips += 1
            self._count_metric("cache.breaker_trips")
            tracer = obs_runtime.get_tracer()
            if tracer.enabled:
                tracer.instant("cache.breaker_trip", kind=self.kind,
                               streak=self._corrupt_streak)
            print(f"! cache[{self.kind}]: circuit breaker open after "
                  f"{self._corrupt_streak} consecutive corrupt reads; "
                  f"bypassing this tier for the rest of the run",
                  file=sys.stderr)

    def reset_breaker(self) -> None:
        self._corrupt_streak = 0
        self._breaker_open = False

    @staticmethod
    def _verified_payload(blob: bytes) -> bytes | None:
        if len(blob) < len(_MAGIC) + _DIGEST_LEN:
            return None
        if blob[:len(_MAGIC)] != _MAGIC:
            return None
        digest = blob[len(_MAGIC):len(_MAGIC) + _DIGEST_LEN]
        payload = blob[len(_MAGIC) + _DIGEST_LEN:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        return payload

    def _evict(self, path: str, key: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        self.stats.corrupt_evicted += 1
        self._instant("cache.evict", key)
        self._count_metric("cache.evictions")

    def _instant(self, name: str, key: str) -> None:
        tracer = obs_runtime.get_tracer()
        if tracer.enabled:
            tracer.instant(name, kind=self.kind, key=key[:16])

    def _count_metric(self, name: str) -> None:
        """Bump the per-tier counter on the active metrics registry.

        Cache outcomes are pure functions of disk content, so absent
        injected faults the counters are deterministic (det=True) and
        merge exactly across engine shards."""
        metrics = obs_runtime.get_metrics()
        if metrics is not None:
            metrics.counter(name, tier=self.kind).inc()

    # -- maintenance -------------------------------------------------------

    def entry_paths(self) -> Iterator[str]:
        if not os.path.isdir(self.root):
            return
        for sub in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".bin"):
                    yield os.path.join(subdir, name)

    def entry_count(self) -> int:
        return sum(1 for _ in self.entry_paths())

    def total_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        self.stats.cleared += removed
        return removed

    def verify(self) -> dict[str, int]:
        """Checksum-verify every entry, evicting corrupt ones."""
        checked = ok = evicted = 0
        for path in list(self.entry_paths()):
            checked += 1
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except OSError:
                continue
            payload = self._verified_payload(blob)
            good = payload is not None
            if good:
                try:
                    pickle.loads(payload)
                except Exception:
                    good = False
            if good:
                ok += 1
            else:
                self._evict(path, os.path.basename(path)[:-4])
                evicted += 1
        return {"checked": checked, "ok": ok, "evicted": evicted}


class CompileCache(_DiskCache):
    """kind="compile": source+config -> pickled CompiledProgram."""

    kind = "compile"

    def key_for(self, source: str, config) -> str | None:
        """Content address for one compilation; None = not cacheable."""
        fp = config_fingerprint(config)
        if fp is None or "#include" in source:
            return None
        return self._key({"source": source, "config": fp})


class ResultCache(_DiskCache):
    """kind="result": source + config + run parameters -> executed cell.

    Sound because the VM is a deterministic simulator: given the same
    program, machine model, stdin, and GC settings, cycles/instructions/
    collections/output are bit-identical on every run.
    """

    kind = "result"

    def key_for(self, source: str, config, *, stdin: str = "",
                gc_interval: int = 0, poison: bool = False,
                max_instructions: int = 500_000_000) -> str | None:
        fp = config_fingerprint(config)
        if fp is None or "#include" in source:
            return None
        return self._key({
            "source": source, "config": fp, "stdin": stdin,
            "gc_interval": gc_interval, "poison": poison,
            "max_instructions": max_instructions})


# -- process-wide active caches -------------------------------------------
#
# Mirrors obs.runtime: drivers look the active caches up here so any
# entry point can switch caching on without threading cache objects
# through every call.  Engine workers inherit the registry via fork and
# ship their stats deltas home for merging.

_active: dict[str, _DiskCache] = {}


def install_cache(cache: _DiskCache) -> _DiskCache:
    _active[cache.kind] = cache
    return cache


def uninstall_cache(kind: str | None = None) -> None:
    if kind is None:
        _active.clear()
    else:
        _active.pop(kind, None)


def active_cache(kind: str = "compile") -> _DiskCache | None:
    return _active.get(kind)


def active_caches() -> list[_DiskCache]:
    return list(_active.values())


def active_caches_by_kind() -> dict[str, _DiskCache]:
    return dict(_active)


@contextmanager
def cache_context(*caches: _DiskCache):
    """Temporarily install ``caches``; restores the previous registry."""
    previous = dict(_active)
    try:
        for cache in caches:
            install_cache(cache)
        yield caches[0] if len(caches) == 1 else caches
    finally:
        _active.clear()
        _active.update(previous)


@contextmanager
def salt_context(tag: str):
    """Push an extra salt component onto every key computed inside.

    Any hook that changes pipeline *behavior* without changing a key
    component (monkeypatched passes, experimental rewrites) must wrap
    itself in one of these, or a warm cache would serve stale code.
    """
    _extra_salt.append(tag)
    try:
        yield
    finally:
        _extra_salt.remove(tag)


def open_caches(root: str, salt: str = CODE_VERSION) -> tuple[CompileCache, ResultCache]:
    """Both tiers rooted under one directory (``compile/``, ``result/``)."""
    return (CompileCache(os.path.join(root, "compile"), salt),
            ResultCache(os.path.join(root, "result"), salt))
