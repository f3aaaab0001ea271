"""JSON artifact store: one file per campaign cell.

Layout is ``<root>/<label>.json`` where ``<root>`` is typically
``results/<campaign>/``.  Each artifact carries the cell's label and
the serialized :class:`~repro.core.experiment.ScenarioResult`, whose
``config`` is the full configuration encoding; a cell is only reused
when the stored configuration matches the cell's own exactly, so
editing a grid invalidates precisely the cells it changes.

Campaigns driven by a :class:`~repro.campaigns.CampaignSpec`
additionally record provenance: a ``<root>/campaign.json`` manifest
holding the spec encoding and its content hash, and a ``spec_hash``
field on every cell computed under that spec.  Provenance never
affects resume-matching — only the stored config does.

Cell artifacts are opened and decoded here and nowhere else, and every
failure is the one :class:`ArtifactError`; consumers differ only in
what they do with it — resume re-runs the cell, the live dashboard
skips the file until it changes, ``report`` under a manifest fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.env import env_str
from ..core.experiment import ScenarioConfig, ScenarioResult
from ..core.gcpause import paused_gc

__all__ = [
    "ARTIFACT_DIR_ENV",
    "MANIFEST_NAME",
    "ArtifactCollisionError",
    "ArtifactError",
    "ArtifactStore",
    "campaign_dir",
]

#: Environment knob: default artifact root when ``artifact_dir=None``.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Campaign-level provenance file inside the store root.
MANIFEST_NAME = "campaign.json"


class ArtifactError(ValueError):
    """A campaign directory or cell artifact that cannot be read: no
    such directory, an unreadable or non-JSON file, JSON that is not a
    cell payload, or a ``result`` that does not decode."""


def campaign_dir(target: str) -> Path:
    """The existing campaign directory ``target`` names on the read
    side (``report``, ``serve``): the directory itself, or a campaign
    name under ``REPRO_ARTIFACT_DIR`` — the rule ``run`` writes by."""
    if Path(target).is_dir():
        return Path(target)
    root = env_str(ARTIFACT_DIR_ENV)
    if root is not None and (Path(root) / target).is_dir():
        return Path(root) / target
    hint = (
        f"no directory {root}/{target}"
        if root is not None
        else f"{ARTIFACT_DIR_ENV} is not set"
    )
    raise ArtifactError(
        f"cannot locate results for {target!r}: not a directory, and {hint}"
    )


def _slug(label: str) -> str:
    """Filesystem-safe file stem for a cell label.

    The punctuation squash alone is lossy (``"a b"`` and ``"a/b"`` both
    squash to ``a-b``), so a truncated label digest disambiguates.  The
    digest is 32 bits — ample for campaign-sized label sets, but not a
    mathematical guarantee — so the store additionally *detects*
    stem collisions (see :class:`ArtifactCollisionError`) instead of
    letting two labels silently overwrite each other's artifacts.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-") or "cell"
    digest = hashlib.sha1(label.encode()).hexdigest()[:8]
    return f"{safe}-{digest}"


class ArtifactCollisionError(RuntimeError):
    """Two different cell labels mapped to the same artifact file.

    Deliberately *not* a ValueError: the tolerant consumers swallow
    :class:`ArtifactError` (unusable artifacts are simply re-run), and
    a collision must never be swallowed — it means one label's results
    would silently overwrite another's.
    """


class ArtifactStore:
    """Persists per-cell results so campaigns are resumable."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Content hash of the campaign spec being executed, if any;
        #: stamped onto every artifact written while it is set.
        self.spec_hash: Optional[str] = None
        #: file stem -> label that claimed it (collision detection).
        self._claims: Dict[str, str] = {}

    def path_for(self, label: str) -> Path:
        stem = _slug(label)
        claimed = self._claims.setdefault(stem, label)
        if claimed != label:
            raise ArtifactCollisionError(
                f"cell labels {claimed!r} and {label!r} both map to "
                f"artifact stem {stem!r} — rename one of the labels"
            )
        return self.root / f"{stem}.json"

    # -- incremental listing -------------------------------------------
    def list_cells(self) -> List[Tuple[Path, int, int]]:
        """Every cell artifact as ``(path, mtime_ns, size)``, sorted by
        file name.

        The stat triple is the incremental-scan key the dashboard uses:
        an artifact whose triple is unchanged since the last scan need
        not be re-read.  Files that vanish between the listing and the
        stat (a writer's atomic replace) are skipped.
        """
        out: List[Tuple[Path, int, int]] = []
        for path in sorted(self.root.glob("*.json")):
            if path.name == MANIFEST_NAME:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path, stat.st_mtime_ns, stat.st_size))
        return out

    @staticmethod
    @paused_gc()
    def read_cell(path: Union[str, Path]) -> dict:
        """The JSON envelope of one cell artifact (``label``, ``result``,
        optional ``spec_hash``); :class:`ArtifactError` when
        the file is unreadable, not JSON (or too deep), or not a cell."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ArtifactError(
                f"{path}: unreadable cell artifact ({exc})"
            ) from exc
        if not isinstance(data, dict) or "result" not in data:
            raise ArtifactError(f"{path}: not a cell artifact")
        return data

    @staticmethod
    @paused_gc()
    def decode(path: Union[str, Path], payload: dict) -> ScenarioResult:
        """The result inside an envelope :meth:`read_cell` returned.
        The file came from outside the program, so any structural
        failure of the decode is the same :class:`ArtifactError`."""
        try:
            return ScenarioResult.from_dict(payload["result"])
        except (
            AttributeError, LookupError, OverflowError, TypeError, ValueError
        ) as exc:
            raise ArtifactError(
                f"{path}: undecodable result ({type(exc).__name__}: {exc})"
            ) from exc

    def read(self, label: str) -> Optional[dict]:
        """The envelope stored for ``label`` (which it is taken to record
        when it records no label at all), or None when no file exists.

        A readable artifact recorded under a *different label* raises
        :class:`ArtifactCollisionError`: two labels share one file stem,
        so the file may be neither overwritten (``save``, and the re-run
        a failed ``load`` leads to) nor reported under this label."""
        path = self.path_for(label)
        if not path.exists():
            return None
        data = self.read_cell(path)
        if data.setdefault("label", label) != label:
            raise ArtifactCollisionError(
                f"artifact {path} holds cell {data['label']!r} but "
                f"{label!r} maps to the same file stem — the two labels "
                "collide; refusing to overwrite or reuse it: rename one "
                "of the labels"
            )
        return data

    # -- provenance ----------------------------------------------------
    def write_manifest(self, manifest: dict) -> Path:
        """Record the campaign-level provenance (spec + hash) and start
        stamping cell artifacts with the spec hash."""
        self.spec_hash = manifest.get("spec_hash")
        path = self.root / MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2))
        os.replace(tmp, path)
        return path

    def load_manifest(self) -> Optional[dict]:
        """The recorded campaign manifest, or None if absent/corrupt."""
        path = self.root / MANIFEST_NAME
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    # ------------------------------------------------------------------
    @paused_gc()
    def load(self, label: str, config: ScenarioConfig) -> Optional[ScenarioResult]:
        """The stored result for ``label``, or None if absent, unusable,
        or recorded under a different configuration (each of which is
        simply re-run); a label collision raises, see :meth:`read`.

        The result's stored ``config`` is compared before the result is
        decoded, so a mismatch never pays for a decode."""
        try:
            data = self.read(label)
            if data is None or not isinstance(data["result"], dict):
                return None
            if data["result"].get("config") != config.to_dict():
                return None
            return self.decode(self.path_for(label), data)
        except ArtifactError:
            return None

    def save(self, label: str, result: ScenarioResult) -> Path:
        """Atomically write the artifact for one completed cell, keyed
        on the result's own config (:meth:`load` matches against it).

        Refuses (:class:`ArtifactCollisionError`, via :meth:`read`) to
        overwrite an existing artifact recorded under a different label
        — the cross-process half of stem-collision detection
        (``path_for`` catches collisions within one store instance)."""
        path = self.path_for(label)
        try:
            self.read(label)
        except ArtifactError:
            pass  # not a cell artifact: nothing to protect
        payload = {"label": label, "result": result.to_dict()}
        if self.spec_hash is not None:
            payload["spec_hash"] = self.spec_hash
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        return path
