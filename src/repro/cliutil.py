"""Shared argparse plumbing — one helper, not five copies.

Every report-emitting subcommand carries the same flag trio:

* ``--json`` — print the command's versioned envelope
  (:mod:`repro.api.envelopes`) instead of the human rendering;
* ``--metrics-out FILE`` — write a ``repro-obs-metrics/1`` snapshot of
  the run (JSONL; a ``.prom`` path gets Prometheus text);
* ``--workers N`` — shard the work across N engine processes
  (byte-identical output at any N; a no-op for inherently single-unit
  commands, which accept it for surface uniformity).

``add_report_flags`` installs the trio; the obs pair
(``--trace``/``--profile``) and ``--cache-dir`` keep their own helpers
here too, so ``repro``, ``repro.fuzz``, ``repro serve`` and ``repro
chaos`` all share one spelling and :class:`repro.api.Client` callers
see the same serialization the CLIs print.  :func:`obs_session` is the
one runtime behind ``--trace`` / ``--profile`` / ``--metrics-out``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator

from .obs import runtime as obs_runtime


def add_report_flags(p: argparse.ArgumentParser, *, json_schema: str,
                     workers: bool = True, workers_default: int = 1,
                     metrics: bool = True,
                     json_flag: bool = True) -> None:
    """The uniform ``--json`` / ``--metrics-out`` / ``--workers`` trio.

    ``json_schema`` names the envelope the command emits (shown in
    ``--help``); individual flags can be suppressed only where they
    cannot apply (e.g. ``--workers`` on ``cache clear``).
    """
    if json_flag:
        p.add_argument("--json", action="store_true",
                       help=f"emit a {json_schema} JSON envelope")
    if metrics:
        p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write a repro-obs-metrics/1 snapshot of this "
                            "run (JSONL; a .prom path gets Prometheus "
                            "text format)")
    if workers:
        p.add_argument("--workers", type=int, default=workers_default,
                       help="shard work across N engine processes "
                            "(output is byte-identical at any N)")


def add_obs_flags(p: argparse.ArgumentParser) -> None:
    """``--trace`` / ``--profile`` — the tracing side of telemetry."""
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a JSONL telemetry trace of this run")
    p.add_argument("--profile", action="store_true",
                   help="print the VM hot-spot profile to stderr")


def add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="enable the content-addressed compile/result "
                        "caches rooted at DIR (default: $REPRO_CACHE_DIR)")


@contextlib.contextmanager
def obs_session(trace: str | None, profile: bool,
                metrics_out: str | None) -> Iterator[None]:
    """Telemetry around one CLI run.

    ``trace`` records a JSONL trace; a metrics registry runs alongside
    it and its snapshot is embedded as an ``obs.metrics`` instant, so
    ``repro obs report`` gets its percentile section from the trace
    alone.  ``profile`` prints the VM hot-spot report to stderr;
    ``metrics_out`` writes the registry's snapshot.
    """
    if trace:
        obs_runtime.enable_tracing()
    if profile:
        obs_runtime.enable_profiling()
    if trace or metrics_out:
        obs_runtime.enable_metrics(out=metrics_out)
    try:
        yield
    finally:
        metrics = obs_runtime.get_metrics()
        if trace:
            tracer = obs_runtime.get_tracer()
            if metrics is not None:
                tracer.instant("obs.metrics", metrics=metrics.to_dict())
            tracer.write_jsonl(trace)
            print(f"! trace written to {trace}", file=sys.stderr)
        session_profile = obs_runtime.session_profile()
        if profile and session_profile is not None and session_profile.funcs:
            print(session_profile.render_report(), file=sys.stderr)
        if metrics_out:
            if metrics is not None:
                metrics.flush()
                print(f"! metrics written to {metrics_out}", file=sys.stderr)
            obs_runtime.disable_metrics()
        if trace or profile:
            obs_runtime.reset()


__all__ = ["add_report_flags", "add_obs_flags", "add_cache_flags",
           "obs_session"]
