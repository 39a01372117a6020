"""Per-run manifests: what produced this output, exactly.

Every traced run (and the ``metrics`` command) writes a small JSON
manifest next to its output recording the configuration, seed, git
revision, and wall/sim time, so a number in a report can always be
traced back to the code and parameters that produced it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, is_dataclass
from typing import Optional


def git_revision() -> Optional[str]:
    """The working directory's git commit hash, or None outside a repo /
    without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _jsonable_config(config: object) -> object:
    if config is None:
        return None
    if is_dataclass(config) and not isinstance(config, type):
        raw = asdict(config)
    elif isinstance(config, dict):
        raw = dict(config)
    else:
        return repr(config)
    # Dataclass fields may hold enums or other rich objects; stringify
    # anything json.dumps would reject.
    out = {}
    for key, value in raw.items():
        try:
            json.dumps(value)
            out[key] = value
        except TypeError:
            out[key] = getattr(value, "value", repr(value))
    return out


def run_manifest(
    command: Optional[str] = None,
    config: object = None,
    seed: Optional[int] = None,
    sim_seconds: Optional[float] = None,
    wall_seconds: Optional[float] = None,
    extra: Optional[dict] = None,
) -> dict:
    manifest = {
        "command": command if command is not None else " ".join(sys.argv),
        "config": _jsonable_config(config),
        "seed": seed,
        "git_rev": git_revision(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "sim_seconds": sim_seconds,
        "wall_seconds": wall_seconds,
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str, manifest: dict) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
