"""On-disk result cache keyed by scenario content hash + code version.

Repeated sweep points, fault-campaign baselines and re-run CLI specs
are served from ``~/.cache/repro/`` (override with ``REPRO_CACHE_DIR``
or an explicit root) instead of being recomputed.  Keys combine
:meth:`Scenario.content_hash` with the package version, so a code
upgrade can never serve results computed by older physics.

Entries are pickled :class:`~repro.core.simulator.SimulationResult`
objects written atomically (temp file + rename), and any unreadable or
truncated entry is treated as a miss — a corrupt cache degrades to
recomputation, never to a crash or a wrong result.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from .. import __version__
from ..core.simulator import SimulationResult
from .spec import Scenario

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
"""Environment override of the default cache root."""


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """Hash-keyed store of simulation results on the local filesystem.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_root`.
        Created lazily on the first write.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def key(self, scenario: Scenario) -> str:
        """Cache key: content hash + the code version that computed it."""
        return f"{scenario.content_hash()}-v{__version__}"

    def path(self, scenario: Scenario) -> Path:
        """On-disk location of the scenario's cached result."""
        return self.root / f"{self.key(scenario)}.pkl"

    def manifest_path(self, scenario: Scenario) -> Path:
        """On-disk location of the scenario's run manifest.

        Manifests live next to the pickled result under the same key so
        a cached entry can always be traced back to the solver backend,
        code version and metric rollup of the run that produced it.
        """
        return self.root / f"{self.key(scenario)}.manifest.json"

    def get(self, scenario: Scenario) -> Optional[SimulationResult]:
        """The cached result, or ``None`` on a miss/corrupt entry.

        The single ``read_bytes`` snapshot is the atomic-read guard:
        writers only ever ``os.replace`` complete files into place, so
        a read sees either an old complete entry or a new complete
        entry, never a torn mix.  Everything else a hostile blob can
        throw during unpickling (truncation, foreign classes, bit rot
        — unpickling corrupt data can raise nearly anything) is
        demoted to a counted miss: a damaged cache degrades to
        recomputation, never to a crash.
        """
        path = self.path(scenario)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            self.corrupt += 1
            self.misses += 1
            return None
        if not isinstance(payload, SimulationResult):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, scenario: Scenario, result: SimulationResult) -> Path:
        """Store a result atomically; returns its path."""
        path = self.path(scenario)
        self.root.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=str(self.root), suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as tmp:
                pickle.dump(result, tmp, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.glob("*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        # Manifests ride along with their result entries but do not
        # count towards the removed-entry total.
        for manifest in self.root.glob("*.manifest.json"):
            try:
                manifest.unlink()
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, corrupt={self.corrupt})"
        )
