"""Content-addressed on-disk store for checkpointed shard results.

Every shard (one contiguous ``[start, start+count)`` slice of a data
point's task sets) is stored under a SHA-256 key derived from the full
evaluation content: workload config, scheme specs, seed, set range,
shard kind, artifact schema version, and the package version.  Identical
work therefore evaluates exactly once — across re-runs, across figures
that share a point (Fig. 1–5 all contain the Section IV-A default), and
across interrupted sweeps, which resume from the completed shards.

Invalidation is by key, never in place: bumping
:data:`~repro.engine.artifact.SCHEMA_VERSION` or the package version
orphans old entries (``clear()`` reclaims the space).  An algorithm
change *within* one package version must be accompanied by a version
bump — otherwise stale checkpoints would keep answering for the old
behavior (see docs/API.md, "Invalidation rules").

Layout::

    <root>/objects/<key[:2]>/<key>.json

Writes go through a same-directory temp file + ``os.replace`` so a
killed run never leaves a torn checkpoint.  Temp names are
pid/thread/sequence-unique, so concurrent writers — including two
threads of one process, e.g. the admission daemon next to an in-process
sweep — never collide; temp debris older than
:data:`STALE_TEMP_SECONDS` is purged when a store is opened.
Unreadable entries are treated as misses and deleted.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from pathlib import Path

from repro._version import __version__
from repro.engine.artifact import SCHEMA_VERSION
from repro.engine.spec import PointSpec
from repro.partition.backend import DEFAULT_BACKEND

__all__ = [
    "ResultStore",
    "shard_key",
    "default_store_root",
    "STALE_TEMP_SECONDS",
]

#: Environment variable naming the default store location for the CLI.
STORE_ENV = "REPRO_MC_STORE"

#: Temp files older than this (seconds) are debris from a crashed run
#: and are purged when a store is opened; younger ones may belong to a
#: concurrent writer mid-``put`` and are left alone.
STALE_TEMP_SECONDS = 3600.0

#: Process-wide sequence folded into temp names so two threads of one
#: process (the admission daemon next to an in-process sweep) can never
#: collide on a temp path, whatever their pids/idents do.
_TEMP_SEQ = itertools.count()


def default_store_root() -> Path:
    """CLI default: ``$REPRO_MC_STORE`` or ``~/.cache/repro-mc/store``
    (:class:`ResultStore` expands the ``~``)."""
    return Path(os.environ.get(STORE_ENV) or "~/.cache/repro-mc/store")


def _canonical(payload: dict) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def shard_key(
    point: PointSpec, start: int, count: int, probe_impl: str = DEFAULT_BACKEND
) -> str:
    """The content hash addressing one shard of one data point.

    ``probe_impl`` is part of the evaluation content: all probe backends
    are pinned bit-identical, but a store must never answer a
    ``--probe-impl`` run with shards computed under a different backend
    — if a backend bug ever broke the equivalence, mixed caches would
    mask it from the validate campaign instead of exposing it.
    """
    content = {
        "schema_version": SCHEMA_VERSION,
        "repro_version": __version__,
        "kind": point.kind,
        "config": point.config.to_dict(),
        "schemes": [s.to_dict() for s in point.schemes],
        "seed": point.seed,
        "start": start,
        "count": count,
        "probe_impl": probe_impl,
    }
    if point.params:
        # Folded in only when present: every pre-existing point (no
        # params) keeps the shard hashes it was checkpointed under.
        content["params"] = {k: v for k, v in point.params}
    return hashlib.sha256(_canonical(content).encode("utf-8")).hexdigest()


class ResultStore:
    """Filesystem-backed shard checkpoint store under ``root`` (a leading
    ``~`` is the user's home).

    Safe for concurrent writers of the *same* content (last atomic
    rename wins with identical bytes) — which is exactly the CI case of
    two Python versions sharing one cached store.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.hits = 0  #: lifetime get() hits (per-run counts live on Engine)
        self.misses = 0
        self.temps_purged = self._purge_stale_temps()

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def _temp_path(self, key: str) -> Path:
        """A collision-free temp sibling of the object path.

        The suffix folds in pid, thread ident and a process-wide
        sequence number: a pid alone is not unique within a process, so
        two threads writing the same key used to race on one temp file
        (one ``os.replace`` would find its temp already consumed).
        """
        path = self._path(key)
        token = f"{os.getpid()}.{threading.get_ident()}.{next(_TEMP_SEQ)}"
        return path.with_name(f"{path.name}.tmp.{token}")

    def _purge_stale_temps(self) -> int:
        """Delete temp files left behind by crashed runs; returns count.

        Only temps older than :data:`STALE_TEMP_SECONDS` go — a younger
        one may be a concurrent writer's in-flight ``put``.
        """
        cutoff = time.time() - STALE_TEMP_SECONDS
        purged = 0
        for tmp in self.root.glob("objects/*/*.tmp.*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink(missing_ok=True)
                    purged += 1
            except OSError:
                continue  # vanished or unreadable: someone else's problem
        return purged

    def get(self, key: str) -> dict | None:
        """The stored payload, or ``None`` (corrupt entries are purged)."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically persist one shard payload (strict JSON)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._temp_path(key)
        try:
            tmp.write_text(_canonical(payload))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("objects/*/*.json"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def clear(self) -> int:
        """Delete every stored object; returns the number removed."""
        removed = 0
        for path in list(self.root.glob("objects/*/*.json")):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
