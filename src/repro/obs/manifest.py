"""Run manifests: the provenance record written next to each artifact.

A manifest answers "what produced this ``SweepArtifact`` and what did
the run look like?" without re-running anything: package version and git
describe, the exact CLI argv, the engine's cache/shard statistics, and
the metrics snapshot of the instrumentation registry.  The CLI writes
``<figure>.manifest.json`` next to ``<figure>.json`` (``--json DIR``)
and ``repro-mc inspect`` pretty-prints it.

The manifest is *about* a run, not part of it: timestamps and run ids
live here, never inside the artifact, which stays bit-identical across
instrumented and uninstrumented runs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from pathlib import Path

from repro._version import __version__
from repro.types import ReproError

__all__ = [
    "MANIFEST_VERSION",
    "git_describe",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "manifest_path_for",
    "format_manifest",
]

#: Version of the manifest JSON layout.
MANIFEST_VERSION = 1


def git_describe() -> str | None:
    """``git describe --always --dirty`` of the source tree, if available.

    Returns ``None`` for installed packages outside a work tree, when
    git is missing, or on any error — provenance is best-effort and must
    never break a run.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    described = out.stdout.strip()
    return described or None


def _sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_manifest(
    *,
    run_id: str,
    command: list[str] | None = None,
    figure: str | None = None,
    sets: int | None = None,
    seed: int | None = None,
    jobs: int | None = None,
    artifact_path: Path | str | None = None,
    engine_stats: dict | None = None,
    metrics: dict | None = None,
    events_log: str | None = None,
) -> dict:
    """Assemble one manifest dict (see docs/API.md, "Run manifests")."""
    artifact = None
    if artifact_path is not None:
        p = Path(artifact_path)
        artifact = {"path": p.name, "sha256": _sha256_of(p)}
    return {
        "manifest_version": MANIFEST_VERSION,
        "run_id": run_id,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repro_version": __version__,
        "git_describe": git_describe(),
        "command": list(command) if command is not None else None,
        "figure": figure,
        "sets": sets,
        "seed": seed,
        "jobs": jobs,
        "artifact": artifact,
        "engine": engine_stats,
        "metrics": metrics,
        "events_log": events_log,
    }


def manifest_path_for(artifact_path: Path | str) -> Path:
    """``<dir>/fig1.json`` -> ``<dir>/fig1.manifest.json``."""
    p = Path(artifact_path)
    # Not with_name(): it raises on nameless paths such as "." or "/".
    return p.parent / f"{p.stem}.manifest.json"


def write_manifest(path: Path | str, manifest: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return path


#: Keys :func:`format_manifest` reads from every manifest.
_REQUIRED_KEYS = ("run_id", "created", "repro_version")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_digest(h) -> bool:
    """A histogram digest :func:`_format_histogram_row` can render: a
    numeric count, and numeric quantiles unless it is empty."""
    return (
        isinstance(h, dict)
        and _is_number(h.get("count"))
        and (
            not h["count"]
            or all(_is_number(h.get(k)) for k in ("p50", "p95", "p99", "max"))
        )
    )


def _malformed(data: dict) -> str | None:
    """The first section or field :func:`format_manifest` reads that it
    could not render, or ``None``."""
    command, artifact = data.get("command"), data.get("artifact")
    engine, metrics = data.get("engine"), data.get("metrics")
    if command and not (
        isinstance(command, list) and all(isinstance(a, str) for a in command)
    ):
        return "command must be a list of strings"
    if artifact and not (
        isinstance(artifact, dict)
        and "path" in artifact
        and isinstance(artifact.get("sha256"), str)
    ):
        return "artifact must hold a path and a sha256 string"
    if engine:
        if not isinstance(engine, dict):
            return "engine must be an object"
        if not _is_number(engine.get("compute_seconds", 0.0)):
            return "engine compute_seconds must be a number"
        if engine.get("shard_seconds_hist") and not _is_digest(
            engine["shard_seconds_hist"]
        ):
            return "engine shard_seconds_hist must be a histogram digest"
    if metrics:
        if not isinstance(metrics, dict):
            return "metrics must be an object"
        counters, histograms = metrics.get("counters"), metrics.get("histograms")
        if counters and not (
            isinstance(counters, dict) and all(map(_is_number, counters.values()))
        ):
            return "metrics counters must map names to numbers"
        if histograms and not (
            isinstance(histograms, dict) and all(map(_is_digest, histograms.values()))
        ):
            return "metrics histograms must map names to digests"
    return None


def load_manifest(path: Path | str) -> dict:
    """Read a run manifest; anything ``format_manifest`` cannot render
    (unreadable bytes, a non-object document, another version, a missing
    required key, a section or field of the wrong type) raises
    :class:`ReproError`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read run manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ReproError(f"run manifest {path} is not a JSON object")
    version = data.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ReproError(
            f"unsupported manifest version {version!r} in {path}"
            f" (this build reads version {MANIFEST_VERSION})"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise ReproError(f"run manifest {path} lacks {', '.join(missing)}")
    problem = _malformed(data)
    if problem is not None:
        raise ReproError(f"run manifest {path}: {problem}")
    return data


def _format_histogram_row(name: str, h: dict) -> str:
    if not h["count"]:
        return f"  {name:<40} (empty)"
    row = (
        f"  {name:<40} n={h['count']:<8} p50={h['p50']:.4g} "
        f"p95={h['p95']:.4g} p99={h['p99']:.4g} max={h['max']:.4g}"
    )
    overflow = h.get("overflow", 0)
    if overflow:
        row += f" overflow={overflow}"
    return row


def format_manifest(manifest: dict, *, top: int = 20) -> str:
    """Human-readable rendering for ``repro-mc inspect``.

    Counters are sorted by value (descending) and truncated to ``top``
    rows; histograms print their digests (with the overflow-bucket count
    when non-zero).  Keys it does not know, such as the reservoir
    digests older manifests carry, are skipped, so those still render.
    """
    lines = [
        f"Run manifest (v{manifest['manifest_version']})",
        f"  run_id        {manifest['run_id']}",
        f"  created       {manifest['created']}",
        f"  repro version {manifest['repro_version']}"
        + (
            f" ({manifest['git_describe']})"
            if manifest.get("git_describe")
            else ""
        ),
    ]
    if manifest.get("command"):
        lines.append(f"  command       repro-mc {' '.join(manifest['command'])}")
    if manifest.get("figure"):
        run_shape = (
            f"  figure        {manifest['figure']}"
            f"  (sets={manifest.get('sets')}, seed={manifest.get('seed')},"
            f" jobs={manifest.get('jobs')})"
        )
        lines.append(run_shape)
    artifact = manifest.get("artifact")
    if artifact:
        lines.append(
            f"  artifact      {artifact['path']}"
            f"  sha256={artifact['sha256'][:12]}..."
        )
    if manifest.get("events_log"):
        lines.append(f"  events log    {manifest['events_log']}")

    engine = manifest.get("engine")
    if engine:
        lines.append("")
        lines.append("Engine")
        lines.append(
            f"  {engine.get('shards_planned', 0)} shards planned over "
            f"{engine.get('points', 0)} points: "
            f"{engine.get('cache_hits', 0)} cache hits, "
            f"{engine.get('cache_misses', 0)} misses, "
            f"{engine.get('shards_computed', 0)} computed in "
            f"{engine.get('compute_seconds', 0.0):.2f}s"
        )
        shard_hist = engine.get("shard_seconds_hist")
        if shard_hist:
            lines.append(
                _format_histogram_row("shard_seconds_hist", shard_hist)
            )

    metrics = manifest.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("")
        lines.append(f"Counters (top {min(top, len(counters))} of {len(counters)})")
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, value in ranked[:top]:
            lines.append(f"  {name:<52} {value:>12}")
    histograms = metrics.get("histograms") or {}
    if histograms:
        lines.append("")
        lines.append("Histograms")
        for name in sorted(histograms):
            lines.append(_format_histogram_row(name, histograms[name]))
    return "\n".join(lines)
