"""Structured tracing: the core event model of the telemetry layer.

A :class:`Tracer` records three event kinds —

* **span** — a named, nested duration (``with tracer.span("compile.parse")``),
* **counter** — a named sample of a numeric series at a point in time,
* **instant** — a named point event with attributes,

into an in-memory list that serializes to JSON-Lines (one event per
line, schema below) or to the Chrome trace-event format understood by
``chrome://tracing`` / Perfetto.

Design constraints (the layer is wired through every hot subsystem):

* **Zero dependencies** — stdlib only; importable from the GC, the VM,
  and the C frontend without creating an import cycle.
* **No-op fast path** — a disabled tracer must cost almost nothing.
  ``span()`` on a disabled tracer returns a pre-allocated null context
  manager (no event object, no clock read, no allocation); ``counter``
  and ``instant`` return after one attribute test.  Code with per-call
  work beyond that guards it on ``tracer.enabled`` inside one code
  path, not a second copy: the collector's single ``collect()`` body
  times its phases with the obs clock only while tracing or a metrics
  registry is on, and with a null clock (no host-clock read) otherwise.
* **Observation only** — events carry wall-clock nanoseconds and never
  feed back into simulated cycle/instruction accounting, so telemetry
  can never perturb benchmark numbers (a test asserts this).

JSONL schema (``repro-obs-trace/1``) — first line is a meta header::

    {"kind": "meta", "schema": "repro-obs-trace/1", "unit": "ns"}
    {"kind": "span", "name": ..., "id": N, "parent": N|0, "depth": D,
     "t0": ns, "dur": ns, "args": {...}}
    {"kind": "counter", "name": ..., "t0": ns, "value": number, "args": {...}}
    {"kind": "instant", "name": ..., "t0": ns, "args": {...}}

``t0`` is nanoseconds since the tracer's epoch (its construction).
Span ids are 1-based in emission order of the span *start*; ``parent``
is 0 for root spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, TextIO

from . import clock as _clock_mod
from ..api import envelopes

SCHEMA = envelopes.OBS_TRACE


@dataclass
class TraceEvent:
    kind: str  # "span" | "counter" | "instant"
    name: str
    t0: int  # ns since tracer epoch
    dur: int = 0  # ns; spans only
    id: int = 0  # spans only, 1-based
    parent: int = 0  # enclosing span id, 0 = root
    depth: int = 0  # nesting depth, 0 = root
    value: float | int | None = None  # counters only
    args: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind, "name": self.name, "t0": self.t0}
        if self.kind == "span":
            d.update(id=self.id, parent=self.parent, depth=self.depth,
                     dur=self.dur)
        if self.value is not None:
            d["value"] = self.value
        if self.args:
            d["args"] = self.args
        return d


class _NullSpan:
    """Reusable do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """A live span: context manager that finalizes duration on exit."""

    __slots__ = ("_tracer", "event")

    def __init__(self, tracer: "Tracer", event: TraceEvent):
        self._tracer = tracer
        self.event = event

    def set(self, **attrs) -> None:
        """Attach attributes to the span (merged into ``args``)."""
        self.event.args.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._end_span(self)
        return False


class Tracer:
    """Records structured events; see the module docstring for schema."""

    def __init__(self, enabled: bool = True,
                 clock: Callable[[], int] | None = None):
        self.enabled = enabled
        # Default to the process-wide injectable ns clock (obs.clock) so
        # tracer timestamps and metric histograms share one source.
        self._clock = clock if clock is not None else _clock_mod.get_clock()
        self._epoch = self._clock()
        self.events: list[TraceEvent] = []
        self._stack: list[TraceEvent] = []
        self._next_id = 1

    # -- clock -------------------------------------------------------------

    def now(self) -> int:
        """Nanoseconds since this tracer's epoch."""
        return self._clock() - self._epoch

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **args) -> Span | _NullSpan:
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        event = TraceEvent(
            "span", name, self.now(), id=self._next_id,
            parent=parent.id if parent is not None else 0,
            depth=len(self._stack), args=args)
        self._next_id += 1
        self._stack.append(event)
        return Span(self, event)

    def _end_span(self, span: Span) -> None:
        event = span.event
        event.dur = self.now() - event.t0
        # Unwind to this span (tolerates a missed inner __exit__ during
        # exception propagation: inner spans are finalized with the
        # duration they had accumulated).
        while self._stack:
            top = self._stack.pop()
            if top is event:
                break
        self.events.append(event)

    def counter(self, name: str, value: float | int, **args) -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent("counter", name, self.now(),
                                      value=value, args=args))

    def instant(self, name: str, **args) -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent("instant", name, self.now(), args=args))

    def absorb(self, events: Iterable[dict[str, Any]],
               shard: int | None = None) -> None:
        """Merge a foreign event stream (e.g. an engine worker's) into
        this tracer as shard-tagged events.

        Span ids are re-based past this tracer's counter so the merged
        stream keeps unique ids and intact parent links; ``t0`` values
        stay relative to the *worker's* epoch (shard timelines overlap
        by construction — the ``shard`` arg disambiguates).
        """
        if not self.enabled:
            return
        offset = self._next_id
        max_id = 0
        for d in events:
            eid = int(d.get("id", 0))
            max_id = max(max_id, eid)
            args = dict(d.get("args", {}))
            if shard is not None:
                args["shard"] = shard
            parent = int(d.get("parent", 0))
            self.events.append(TraceEvent(
                d.get("kind", "instant"), d.get("name", ""),
                int(d.get("t0", 0)), dur=int(d.get("dur", 0)),
                id=eid + offset if eid else 0,
                parent=parent + offset if parent else 0,
                depth=int(d.get("depth", 0)),
                value=d.get("value"), args=args))
        self._next_id += max_id

    # -- export ------------------------------------------------------------

    def sorted_events(self) -> list[TraceEvent]:
        """Events in start-time order (spans append on *end*, so the raw
        list is end-ordered; reports want begin-ordered)."""
        return sorted(self.events, key=lambda e: (e.t0, e.id))

    def write_jsonl(self, out: TextIO | str) -> None:
        if isinstance(out, str):
            with open(out, "w") as fh:
                self.write_jsonl(fh)
            return
        out.write(json.dumps({"kind": "meta", "schema": SCHEMA,
                              "unit": "ns"}) + "\n")
        for event in self.sorted_events():
            out.write(json.dumps(event.to_json()) + "\n")

    def to_chrome(self) -> dict[str, Any]:
        """Chrome trace-event JSON (``chrome://tracing`` "Load").

        Spans become complete ("X") events, counters become "C" events,
        instants become "i" events; timestamps are microseconds.
        """
        trace_events: list[dict[str, Any]] = []
        for e in self.sorted_events():
            base = {"name": e.name, "pid": 1, "tid": 1, "ts": e.t0 / 1000.0}
            if e.kind == "span":
                trace_events.append({**base, "ph": "X", "dur": e.dur / 1000.0,
                                     "args": e.args})
            elif e.kind == "counter":
                trace_events.append({**base, "ph": "C",
                                     "args": {e.name: e.value}})
            else:
                trace_events.append({**base, "ph": "i", "s": "t",
                                     "args": e.args})
        return {"traceEvents": trace_events, "displayTimeUnit": "ms",
                "otherData": {"schema": SCHEMA}}

    def write_chrome(self, out: TextIO | str) -> None:
        if isinstance(out, str):
            with open(out, "w") as fh:
                self.write_chrome(fh)
            return
        json.dump(self.to_chrome(), out)


def load_jsonl(source: TextIO | str | Iterable[str]) -> list[dict[str, Any]]:
    """Read a JSONL trace back into event dicts (meta line excluded)."""
    if isinstance(source, str):
        with open(source) as fh:
            return load_jsonl(fh)
    events = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        if d.get("kind") != "meta":
            events.append(d)
    return events
