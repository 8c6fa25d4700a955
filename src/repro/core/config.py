"""Configuration of the synonym miner.

The paper exposes three free parameters:

* ``k``  — the top-k cut-off used when building Search Data / the surrogate
  set ``G_A(u, P)`` (Eq. 1);
* ``β``  — the Intersecting Page Count threshold (Eq. 3);
* ``γ``  — the Intersecting Click Ratio threshold (Eq. 4).

The paper's recommended operating point for Table I is β = 4, γ = 0.1 with
k = 10-ish surrogates, which are the defaults here: ``MinerConfig()`` is
that point.  These three are the whole configuration: the canonical string
is never its own synonym, and every Click Data tuple carries at least one
click, so neither needs a knob.  This class is the one place they are
defined and checked; the miner and :func:`~repro.core.selection.select`
read them from it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

__all__ = ["MinerConfig"]


@dataclass(frozen=True)
class MinerConfig:
    """The three parameters of the two-phase miner: k, β and γ.

    Attributes
    ----------
    surrogate_k:
        How many top-ranked pages of the canonical query form the surrogate
        set ``G_A(u, P)``.
    ipc_threshold:
        β — a candidate must have ``IPC >= β`` to be selected.
    icr_threshold:
        γ — a candidate must have ``ICR >= γ`` to be selected.
    """

    surrogate_k: int = 10
    ipc_threshold: int = 4
    icr_threshold: float = 0.1

    def __post_init__(self) -> None:
        if self.surrogate_k <= 0:
            raise ValueError(f"surrogate_k must be positive, got {self.surrogate_k}")
        if self.ipc_threshold < 0:
            raise ValueError(f"ipc_threshold must be >= 0, got {self.ipc_threshold}")
        if not 0.0 <= self.icr_threshold <= 1.0:
            raise ValueError(
                f"icr_threshold must be in [0, 1], got {self.icr_threshold}"
            )

    def with_thresholds(self, *, ipc: int | None = None, icr: float | None = None) -> "MinerConfig":
        """Return a copy with different β / γ (used by the sweeps)."""
        updated = self
        if ipc is not None:
            updated = replace(updated, ipc_threshold=ipc)
        if icr is not None:
            updated = replace(updated, icr_threshold=icr)
        return updated

    def fingerprint(self) -> str:
        """Stable hash of this configuration.

        Stamped into published artifact manifests so a server can tell
        whether the dictionary it is serving was mined with the thresholds
        it expects.
        """
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
