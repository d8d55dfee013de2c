"""Daemon lifecycle: wire-up, instrumentation, graceful shutdown.

:class:`ServeDaemon` assembles state + batcher + coordinator + HTTP
transport, runs them under :func:`repro.obs.runtime.instrument` (so
``serve.*`` counters, probe counters and spans all accumulate in one
registry), and on shutdown drains the queue before exporting the run
manifest and the metrics snapshot — a stopped daemon leaves the same
provenance trail as a finished ``repro-mc`` sweep.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro._version import __version__
from repro.obs import (
    JsonlSink,
    build_manifest,
    manifest_path_for,
    new_run_id,
    write_manifest,
)
from repro.obs import runtime as obs_runtime
from repro.obs.live import LiveMetrics, SloMonitor, parse_slo
from repro.serve.batcher import MicroBatcher
from repro.serve.coordinator import Coordinator
from repro.serve.handlers import Api
from repro.serve.http import HttpServer
from repro.serve.state import ServeState
from repro.types import ReproError

__all__ = ["ServeConfig", "ServeDaemon", "run_forever"]


@dataclass
class ServeConfig:
    """Everything ``repro-mc serve`` can tune."""

    cores: int = 4
    levels: int = 2
    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; the bound port is printed/exposed
    window_ms: float = 1.0
    max_batch: int = 64
    backlog: int = 256  #: request queue bound and listen backlog
    metrics_path: str | None = None
    log_json: str | None = None
    #: SLO rules (``"p95(serve.place.seconds) < 5ms"``…) checked every
    #: ``slo_interval_s`` over the live window; ok→fail edges emit
    #: ``slo.alert`` events and bump ``serve.slo.alerts``.
    slo: list[str] = field(default_factory=list)
    slo_interval_s: float = 1.0
    command: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Checked before any socket binds.  backlog=0 matters most: it
        # would build an unbounded asyncio.Queue and silently turn off
        # the 503 backpressure.
        floors = {"cores": 1, "levels": 1, "window_ms": 0, "max_batch": 1, "backlog": 1}
        for name, floor in floors.items():
            value = getattr(self, name)
            if not value >= floor:  # also rejects NaN
                raise ReproError(f"{name} must be >= {floor}, got {value}")
        if self.window_ms == float("inf"):  # the batcher would never flush
            raise ReproError("window_ms must be finite, got inf")
        if not 0 <= self.port <= 65535:
            raise ReproError(f"port must be in [0, 65535], got {self.port}")


class ServeDaemon:
    """One runnable admission daemon instance."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.state = ServeState(cores=config.cores, levels=config.levels)
        self.batcher = MicroBatcher(
            maxsize=config.backlog,
            window=config.window_ms / 1e3,
            max_batch=config.max_batch,
        )
        self.live = LiveMetrics()
        self.live.gauge("serve.queue_depth", lambda: self.batcher.depth)
        self.live.gauge("serve.state_seq", lambda: self.state.snapshot.seq)
        self.live.gauge("serve.tasks", lambda: self.state.snapshot.task_count)
        self.live.gauge("serve.lambda", self._lambda_gauge)
        self.live.gauge("serve.headroom", self._headroom_gauge)
        # Bad SLO syntax fails here, before any socket binds.
        self.slo = SloMonitor([parse_slo(rule) for rule in config.slo])
        self.coordinator = Coordinator(self.state, self.batcher, live=self.live)
        self.api = Api(self.state, self.batcher, live=self.live)
        self.server = HttpServer(self.api, config.host, config.port, config.backlog)
        self.run_id = new_run_id()
        self.bound: tuple[str, int] | None = None

    def _lambda_gauge(self) -> float:
        """Current Λ imbalance over the published snapshot (live gauge)."""
        from repro.metrics.core import imbalance_factor

        return float(imbalance_factor(self.state.snapshot.utilizations()))

    def _headroom_gauge(self) -> float:
        """System headroom α over the published snapshot (live gauge).

        The max uniform demand scale the live partition still admits,
        clamped to ``HEADROOM_MAX_SCALE`` — always finite, so the
        Prometheus exposition never emits ``+Inf``.  An empty daemon
        reports the clamp.
        """
        from repro.analysis.explain import HEADROOM_MAX_SCALE, headroom_profile

        part = self.state.snapshot.partition
        if part is None:
            return float(HEADROOM_MAX_SCALE)
        return float(headroom_profile(part).system)

    async def _slo_loop(self) -> None:
        """Periodic SLO evaluation over the live window (edge-triggered).

        Each ok→fail transition emits one ``slo.alert`` event and bumps
        ``serve.slo.alerts``; each fail→ok emits ``slo.resolved``.  The
        loop is cancelled at shutdown; :meth:`run` performs one final
        check after the drain so short-lived daemons still evaluate
        every rule at least once.
        """
        while True:
            await asyncio.sleep(self.config.slo_interval_s)
            self._check_slo()

    def _check_slo(self) -> None:
        _results, newly_failing, newly_ok = self.slo.check(self.live)
        for result in newly_failing:
            if obs_runtime.OBS.enabled:
                obs_runtime.OBS.registry.counter("serve.slo.alerts").inc()
            obs_runtime.emit(
                "slo.alert",
                rule=result.rule.text,
                value=result.value,
                threshold=result.rule.threshold,
            )
        for result in newly_ok:
            obs_runtime.emit(
                "slo.resolved", rule=result.rule.text, value=result.value
            )

    async def run(
        self,
        shutdown: asyncio.Event,
        ready: asyncio.Event | None = None,
    ) -> int:
        """Serve until ``shutdown`` is set; then drain and export.

        Shutdown ordering is part of the durability contract (pinned in
        ``tests/serve/test_drain.py``): drain the queue, record the
        final spans/events, snapshot the registry, close the JSONL sink,
        *then* write the metrics dump + manifest — so ``events.jsonl``
        is complete on disk before (and regardless of) the export, even
        when the serving block raises.
        """
        config = self.config
        sink = JsonlSink(config.log_json) if config.log_json else None
        snapshot: dict | None = None
        try:
            with obs_runtime.instrument(sink=sink, run_id=self.run_id) as obs:
                try:
                    # The root of the daemon's span tree: coordinator
                    # flushes run inside this block on the same task
                    # stack, so serve.flush (and every per-request span
                    # under it) parents here — one rooted tree per run.
                    with obs_runtime.span("serve.run"):
                        self.bound = await self.server.start()
                        obs_runtime.emit(
                            "serve.start",
                            host=self.bound[0],
                            port=self.bound[1],
                            cores=config.cores,
                        )
                        worker = asyncio.create_task(self.coordinator.run())
                        slo_task = (
                            asyncio.create_task(self._slo_loop())
                            if self.slo.rules
                            else None
                        )
                        if ready is not None:
                            ready.set()
                        await shutdown.wait()
                        # Graceful: stop accepting, let queued work drain.
                        await self.server.stop()
                        self.batcher.close()
                        await worker
                        if slo_task is not None:
                            slo_task.cancel()
                            try:
                                await slo_task
                            except asyncio.CancelledError:
                                pass
                        if self.slo.rules:
                            self._check_slo()  # final pass over the drain
                    obs_runtime.emit("serve.stop", seq=self.state.snapshot.seq)
                finally:
                    snapshot = obs.registry.snapshot()
        finally:
            if sink is not None:
                sink.close()
            if snapshot is not None:
                self._export(snapshot)
        return 0

    def _export(self, metrics_snapshot: dict) -> None:
        """Write the metrics dump and its run manifest (if configured)."""
        if self.config.metrics_path is None:
            return
        metrics_path = Path(self.config.metrics_path)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "repro_version": __version__,
            "command": self.config.command,
            "metrics": metrics_snapshot,
        }
        if self.slo.rules:
            payload["slo"] = {
                "alerts": self.slo.alerts,
                "failing": sorted(self.slo.failing),
                "rules": [rule.text for rule in self.slo.rules],
            }
        metrics_path.write_text(json.dumps(payload, indent=2) + "\n")
        manifest = build_manifest(
            run_id=self.run_id,
            command=self.config.command,
            figure="serve",
            jobs=1,
            artifact_path=metrics_path,
            metrics=metrics_snapshot,
            events_log=self.config.log_json,
        )
        write_manifest(manifest_path_for(metrics_path), manifest)


def run_forever(config: ServeConfig, stream=sys.stderr) -> int:
    """Blocking entry point used by ``repro-mc serve``.

    Installs SIGINT/SIGTERM handlers for a graceful drain-then-export
    shutdown and prints the bound address once listening.
    """
    import signal

    async def _main() -> int:
        daemon = ServeDaemon(config)
        shutdown = asyncio.Event()
        ready = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, shutdown.set)

        async def announce():
            await ready.wait()
            host, port = daemon.bound
            stream.write(
                f"repro-mc serve: listening on http://{host}:{port} "
                f"(cores={config.cores}, K={config.levels}, "
                f"window={config.window_ms}ms)\n"
            )
            stream.flush()

        announcer = asyncio.create_task(announce())
        code = await daemon.run(shutdown, ready=ready)
        await announcer
        stream.write("repro-mc serve: drained and stopped\n")
        stream.flush()
        return code

    return asyncio.run(_main())
