"""Typed process-wide metrics: counters, gauges, fixed-bucket histograms.

The registry complements the tracer: where a trace records *every*
event, metrics keep O(1)-size aggregates that stay cheap over million-
event runs and merge exactly across engine shards — the same discipline
as ``Tracer.absorb`` and ``GCStats.merge``.  Three instrument types:

* :class:`Counter` — monotonically increasing integer (additive merge).
* :class:`Gauge` — last-set sample (merge takes the max; gauges are
  therefore never part of the deterministic snapshot).
* :class:`Histogram` — fixed upper-bound buckets with **exact integer
  counts** plus count/sum/min/max.  Percentiles (p50/p95/p99/...) are
  derived with pure integer arithmetic from the bucket counts, so two
  registries holding the same observations report bit-identical
  percentiles, and shard-merged histograms equal the serial ones.

Determinism contract: every metric carries a ``det`` flag.  ``det``
metrics derive only from simulated quantities (cycles, collections,
cache lookups) and must be byte-identical across worker counts for the
same seed; wall-clock histograms (pause times, task latency) are
``det=False`` and excluded from :meth:`MetricsRegistry.
deterministic_snapshot`.

Serialization:

* ``snapshot()`` → a versioned ``repro-obs-metrics/1`` envelope; one
  envelope per line in a JSONL stream (``write_jsonl`` / ``flush``)
  so ``repro obs top`` can tail live snapshots.
* ``to_prometheus()`` → the Prometheus text exposition format
  (counter / gauge / histogram with cumulative ``le`` buckets).

Zero-value elision: untouched counters, unset gauges, empty histograms,
and zero buckets are dropped from snapshots, so a registry that
registered a metric but never observed it serializes identically to one
that never registered it (this is what makes worker-merged snapshots
reproducible).

Stdlib-only leaf; importable from the GC, VM, engine, and caches.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from typing import Any, Iterable, TextIO

from ..api import envelopes

SCHEMA = envelopes.OBS_METRICS

#: Default histogram bounds for nanosecond latencies: powers of two
#: from ~4µs (2**12) to ~17s (2**34), plus the implicit +Inf overflow.
TIME_BUCKETS_NS: tuple[int, ...] = tuple(1 << b for b in range(12, 35))

#: Bounds for simulated-count histograms (cycles, instructions):
#: powers of two from 256 to 2**32.
COUNT_BUCKETS: tuple[int, ...] = tuple(1 << b for b in range(8, 33))

#: Bounds for simulated byte sizes (allocation requests): powers of two
#: from 1 B to 64 MiB, the default heap limit.
SIZE_BUCKETS: tuple[int, ...] = tuple(1 << b for b in range(0, 27))

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def metric_key(name: str, labels: dict[str, Any] | None = None) -> str:
    """Canonical registry key: ``name`` or ``name{k=v,...}`` with label
    keys sorted.  Label values are stringified; labels must not contain
    ``{ } = ,`` (enforced at registration)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key`."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


def _check_labels(labels: dict[str, Any]) -> dict[str, str]:
    out = {}
    for k, v in labels.items():
        v = str(v)
        if any(c in "{}=," for c in k + v):
            raise ValueError(f"metric label {k}={v!r} contains a "
                             "reserved character ({{}}=,)")
        out[k] = v
    return out


class Counter:
    """Monotonic integer counter."""

    kind = "counter"
    __slots__ = ("key", "name", "labels", "det", "value")

    def __init__(self, key: str, name: str, labels: dict[str, str],
                 det: bool = True):
        self.key = key
        self.name = name
        self.labels = labels
        self.det = det
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_entry(self) -> dict[str, Any] | None:
        if self.value == 0:
            return None  # zero-value elision
        return {"type": "counter", "det": self.det, "value": self.value}

    def merge_entry(self, entry: dict[str, Any]) -> None:
        self.value += int(entry.get("value", 0))


class Gauge:
    """Last-set sample.  Merging registries keeps the maximum, which is
    order-independent — so gauges are never deterministic across worker
    counts and always carry ``det=False``."""

    kind = "gauge"
    __slots__ = ("key", "name", "labels", "det", "value", "_set")

    def __init__(self, key: str, name: str, labels: dict[str, str],
                 det: bool = False):
        self.key = key
        self.name = name
        self.labels = labels
        self.det = False  # see class docstring
        self.value: float | int = 0
        self._set = False

    def set(self, value: float | int) -> None:
        self.value = value
        self._set = True

    def to_entry(self) -> dict[str, Any] | None:
        if not self._set:
            return None
        return {"type": "gauge", "det": self.det, "value": self.value}

    def merge_entry(self, entry: dict[str, Any]) -> None:
        value = entry.get("value", 0)
        self.value = max(self.value, value) if self._set else value
        self._set = True


class Histogram:
    """Fixed-bucket histogram with exact integer bucket counts.

    ``bounds`` are inclusive upper edges in increasing order; one
    implicit overflow bucket catches values above ``bounds[-1]``.
    ``observe`` is integer-only bookkeeping: a bisect into the bounds,
    four scalar updates — cheap enough for per-task/per-collection
    call sites.
    """

    kind = "histogram"
    __slots__ = ("key", "name", "labels", "det", "bounds", "counts",
                 "count", "sum", "min", "max")

    def __init__(self, key: str, name: str, labels: dict[str, str],
                 bounds: Iterable[int] = TIME_BUCKETS_NS,
                 det: bool = False):
        self.key = key
        self.name = name
        self.labels = labels
        self.det = det
        self.bounds = tuple(int(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, value: int | float) -> None:
        value = int(value)
        self.counts[bisect_left(self.bounds, value)] += 1  # first bound >= value
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def percentile(self, p: float) -> int | None:
        """The p-th percentile (0..100), derived from bucket counts with
        integer interpolation inside the landing bucket — deterministic
        for identical bucket contents."""
        if self.count == 0:
            return None
        rank = max(1, -(-int(p * self.count) // 100))  # ceil(p/100 * n)
        cum = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cum + n >= rank:
                lo = 0 if i == 0 else self.bounds[i - 1]
                hi = (self.bounds[i] if i < len(self.bounds)
                      else (self.max if self.max is not None else lo))
                pos = rank - cum  # 1..n within this bucket
                value = lo + ((hi - lo) * pos) // n
                if self.min is not None:
                    value = max(value, self.min)
                if self.max is not None:
                    value = min(value, self.max)
                return value
            cum += n
        return self.max  # unreachable when count > 0

    def percentiles(self, ps: Iterable[float] = (50, 95, 99)) -> dict[str, Any]:
        out: dict[str, Any] = {f"p{g:g}": self.percentile(g) for g in ps}
        out.update(count=self.count, sum=self.sum,
                   min=self.min, max=self.max)
        return out

    def to_entry(self) -> dict[str, Any] | None:
        if self.count == 0:
            return None
        return {
            "type": "histogram", "det": self.det,
            "bounds": list(self.bounds),
            # Sparse bucket counts, zero buckets elided; key = bucket
            # index (len(bounds) = overflow).
            "buckets": {str(i): n for i, n in enumerate(self.counts) if n},
            "count": self.count, "sum": self.sum,
            "min": self.min, "max": self.max,
        }

    def merge_entry(self, entry: dict[str, Any]) -> None:
        bounds = tuple(int(b) for b in entry.get("bounds", ()))
        if bounds != self.bounds:
            raise ValueError(
                f"histogram {self.key!r}: cannot merge bounds {bounds} "
                f"into {self.bounds}")
        for idx, n in entry.get("buckets", {}).items():
            self.counts[int(idx)] += int(n)
        self.count += int(entry.get("count", 0))
        self.sum += int(entry.get("sum", 0))
        emin, emax = entry.get("min"), entry.get("max")
        if emin is not None:
            self.min = emin if self.min is None else min(self.min, emin)
        if emax is not None:
            self.max = emax if self.max is None else max(self.max, emax)

    @staticmethod
    def from_entry(key: str, entry: dict[str, Any],
                   det: bool | None = None) -> "Histogram":
        name, labels = split_key(key)
        hist = Histogram(key, name, labels,
                         bounds=entry.get("bounds", TIME_BUCKETS_NS),
                         det=entry.get("det", False) if det is None else det)
        hist.merge_entry(entry)
        return hist


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create metric store with deterministic serialization.

    One registry per process (see ``obs.runtime``); engine workers
    install a fresh one at fork so only their delta ships home in the
    final pipe message, exactly like tracer events and cache stats.
    """

    def __init__(self, out_path: str | None = None):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        #: Optional JSONL destination for :meth:`flush` (live snapshots
        #: for ``repro obs top``); ``.prom`` paths get the Prometheus
        #: text format instead.
        self.out_path = out_path
        self._seq = 0

    # -- get-or-create -------------------------------------------------------

    def _get(self, cls, name: str, det: bool, **labels):
        labels = _check_labels(labels)
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key, name, labels, det=det)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"metric {key!r} is a {metric.kind}, "
                             f"not a {cls.kind}")
        return metric

    def counter(self, name: str, det: bool = True, **labels) -> Counter:
        return self._get(Counter, name, det, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, False, **labels)

    def histogram(self, name: str, bounds: Iterable[int] = TIME_BUCKETS_NS,
                  det: bool = False, **labels) -> Histogram:
        labels = _check_labels(labels)
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(key, name, labels, bounds=bounds, det=det)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {key!r} is a {metric.kind}, "
                             "not a histogram")
        return metric

    def get(self, name: str, **labels):
        return self._metrics.get(metric_key(name, _check_labels(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    # -- serialization -------------------------------------------------------

    def to_dict(self, det_only: bool = False) -> dict[str, Any]:
        """``{key: entry}`` sorted by key, zero-valued metrics elided."""
        out: dict[str, Any] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if det_only and not metric.det:
                continue
            entry = metric.to_entry()
            if entry is not None:
                out[key] = entry
        return out

    def snapshot(self, det_only: bool = False) -> dict[str, Any]:
        """One versioned envelope (a JSONL line of the metrics stream)."""
        return {"schema": SCHEMA, "seq": self._seq,
                "metrics": self.to_dict(det_only=det_only)}

    def deterministic_snapshot(self) -> dict[str, Any]:
        """Only ``det`` metrics, no sequence number: the byte-comparable
        view that must be identical across ``--workers N``."""
        return {"schema": SCHEMA, "metrics": self.to_dict(det_only=True)}

    def merge(self, other: "MetricsRegistry | dict[str, Any]") -> "MetricsRegistry":
        """Fold another registry (or its ``to_dict`` payload) in."""
        entries = other.to_dict() if isinstance(other, MetricsRegistry) else other
        for key, entry in entries.items():
            metric = self._metrics.get(key)
            if metric is None:
                name, labels = split_key(key)
                cls = _TYPES.get(entry.get("type"))
                if cls is None:
                    continue  # unknown instrument from a newer writer
                if cls is Histogram:
                    metric = Histogram(key, name, labels,
                                       bounds=entry.get("bounds",
                                                        TIME_BUCKETS_NS),
                                       det=entry.get("det", False))
                else:
                    metric = cls(key, name, labels,
                                 det=entry.get("det", cls is Counter))
                self._metrics[key] = metric
            metric.merge_entry(entry)
        return self

    # -- export --------------------------------------------------------------

    def write_jsonl(self, out: TextIO | str, append: bool = True,
                    det_only: bool = False) -> None:
        """Append one snapshot envelope line (sorted keys)."""
        if isinstance(out, str):
            with open(out, "a" if append else "w") as fh:
                self.write_jsonl(fh, det_only=det_only)
            return
        out.write(json.dumps(self.snapshot(det_only=det_only),
                             sort_keys=True) + "\n")
        self._seq += 1

    def write_prometheus(self, out: TextIO | str) -> None:
        if isinstance(out, str):
            with open(out, "w") as fh:
                self.write_prometheus(fh)
            return
        out.write(self.to_prometheus())

    def flush(self) -> None:
        """Write the current snapshot to :attr:`out_path` (no-op when
        unset): JSONL appends, ``.prom`` files are rewritten whole."""
        if not self.out_path:
            return
        if self.out_path.endswith(".prom"):
            self.write_prometheus(self.out_path)
        else:
            self.write_jsonl(self.out_path, append=self._seq > 0)

    def to_prometheus(self) -> str:
        """Prometheus text exposition (metric names ``repro_``-prefixed,
        dots mapped to underscores, histograms with cumulative ``le``)."""
        by_name: dict[str, list] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if metric.to_entry() is None:
                continue
            by_name.setdefault(metric.name, []).append(metric)
        lines: list[str] = []
        for name, metrics in by_name.items():
            prom = "repro_" + _PROM_BAD.sub("_", name)
            lines.append(f"# TYPE {prom} {metrics[0].kind}")
            for m in metrics:
                label_str = _prom_labels(m.labels)
                if isinstance(m, Histogram):
                    cum = 0
                    for i, bound in enumerate(m.bounds):
                        cum += m.counts[i]
                        lines.append(f"{prom}_bucket"
                                     f"{_prom_labels(m.labels, le=str(bound))}"
                                     f" {cum}")
                    lines.append(f"{prom}_bucket"
                                 f"{_prom_labels(m.labels, le='+Inf')}"
                                 f" {m.count}")
                    lines.append(f"{prom}_sum{label_str} {m.sum}")
                    lines.append(f"{prom}_count{label_str} {m.count}")
                else:
                    lines.append(f"{prom}{label_str} {m.value}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_labels(labels: dict[str, str], **extra: str) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    inner = ",".join(f'{k}="{merged[k]}"' for k in sorted(merged))
    return "{" + inner + "}"


# -- snapshot rendering (repro obs top) ---------------------------------------


def load_snapshot(path: str) -> dict[str, Any] | None:
    """The latest envelope from a metrics JSONL file (or a bare
    snapshot JSON file); None when no parseable envelope exists."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError:
        return None
    for line in reversed(lines):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and doc.get("schema") == SCHEMA:
            return doc
    return None


def _fmt_value(name: str, value: Any) -> str:
    if value is None:
        return "-"
    if name.endswith("_ns"):
        return f"{value / 1e6:.2f}ms"
    return str(value)


def render_snapshot(snapshot: dict[str, Any], top: int = 0) -> str:
    """Human-readable view of one envelope (the ``obs top`` screen)."""
    entries = snapshot.get("metrics", {})
    counters = [(k, e) for k, e in entries.items() if e["type"] == "counter"]
    gauges = [(k, e) for k, e in entries.items() if e["type"] == "gauge"]
    hists = [(k, e) for k, e in entries.items() if e["type"] == "histogram"]
    lines = [f"metrics snapshot (schema {snapshot.get('schema')}, "
             f"seq {snapshot.get('seq', 0)}): {len(entries)} live metric(s)"]
    if hists:
        lines.append(f"  {'histogram':<28s} {'n':>8s} {'p50':>12s} "
                     f"{'p95':>12s} {'p99':>12s} {'max':>12s}")
        for key, entry in hists:
            h = Histogram.from_entry(key, entry)
            name = h.name
            lines.append(
                f"  {key:<28s} {h.count:>8d} "
                f"{_fmt_value(name, h.percentile(50)):>12s} "
                f"{_fmt_value(name, h.percentile(95)):>12s} "
                f"{_fmt_value(name, h.percentile(99)):>12s} "
                f"{_fmt_value(name, h.max):>12s}")
    if counters:
        counters.sort(key=lambda kv: (-kv[1]["value"], kv[0]))
        shown = counters[:top] if top else counters
        lines.append(f"  {'counter':<40s} {'value':>14s}")
        for key, entry in shown:
            lines.append(f"  {key:<40s} {entry['value']:>14d}")
        if len(counters) > len(shown):
            lines.append(f"  ... {len(counters) - len(shown)} more counter(s)")
    if gauges:
        lines.append(f"  {'gauge':<40s} {'value':>14s}")
        for key, entry in gauges:
            lines.append(f"  {key:<40s} {entry['value']:>14}")
    return "\n".join(lines)
