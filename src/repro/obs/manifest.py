"""Run-provenance manifests: what produced an experiment output.

A manifest answers "which code, configuration, and machine produced
this file?" — the audit trail the Ramulator 2.0 re-evaluation showed
simulator results need. It is attached to exported traces
(``otherData.manifest``) and written as a sidecar JSON next to saved
experiment reports.

Manifests are *harness* artifacts: they may record wall time (through
:class:`repro.perf.timing.Stopwatch`) and host details because they
describe the run, not the simulation. They are never fed back into
model code, and result payloads never embed them — so traced and
untraced simulation outputs stay bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Optional, Tuple


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one experiment/trace run."""

    experiment: str
    config_hash: str
    seed: Optional[int]
    code_version: str
    python_version: str
    platform: str
    cpu_count: int
    wall_seconds: float
    extra: Tuple[Tuple[str, str], ...] = ()

    def to_json(self) -> str:
        payload = asdict(self)
        payload["extra"] = dict(self.extra)
        return json.dumps(payload, indent=2, sort_keys=True)


def config_hash(config: Mapping[str, object]) -> str:
    """Stable short hash of a JSON-representable configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _git_head(root: Path) -> str:
    """Best-effort commit id from ``.git`` without spawning a process."""
    git_dir = root / ".git"
    head = git_dir / "HEAD"
    try:
        content = head.read_text(encoding="utf-8").strip()
        if content.startswith("ref:"):
            ref = content.split(None, 1)[1]
            ref_file = git_dir / ref
            if ref_file.is_file():
                return ref_file.read_text(encoding="utf-8").strip()[:12]
            packed = git_dir / "packed-refs"
            if packed.is_file():
                for line in packed.read_text(encoding="utf-8").splitlines():
                    if line.endswith(ref) and not line.startswith("#"):
                        return line.split()[0][:12]
            return "unknown"
        return content[:12]
    except OSError:
        return "unknown"


def _repo_root() -> Optional[Path]:
    """Walk up from this file looking for a ``.git`` directory."""
    current = Path(__file__).resolve()
    for parent in current.parents:
        if (parent / ".git").exists():
            return parent
    return None


def code_version() -> str:
    """Package version plus (when available) the git commit."""
    from repro import __version__

    root = _repo_root()
    if root is None:
        return __version__
    return f"{__version__}+g{_git_head(root)}"


def build_manifest(
    experiment: str,
    config: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
    wall_seconds: float = 0.0,
    extra: Optional[Mapping[str, str]] = None,
) -> RunManifest:
    """Assemble the provenance record for one run."""
    return RunManifest(
        experiment=experiment,
        config_hash=config_hash(config or {}),
        seed=seed,
        code_version=code_version(),
        python_version=sys.version.split()[0],
        platform=platform.platform(),
        cpu_count=os.cpu_count() or 1,
        wall_seconds=wall_seconds,
        extra=tuple(sorted((extra or {}).items())),
    )


__all__ = ["RunManifest", "build_manifest", "code_version", "config_hash"]
