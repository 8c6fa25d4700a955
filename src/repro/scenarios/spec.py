"""Declarative scenario specs for the experiment harness.

A :class:`Scenario` is a frozen, fully-seeded description of one serving
workload: what the catalog looks like, how queries are distributed, how
the traffic mixes endpoints and batches, how the catalog churns under
delta republishes, and how long to drive it.  Everything downstream —
catalog rows, click log, query stream, request plan, delta generations —
is a pure function of the scenario plus its seed, so the same spec
replays byte-for-byte across machines and PRs.

The spec layer knows nothing about daemons or wire formats; it is plain
data with validation and a JSON round-trip (:meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`) so result files can embed the exact workload
they measured.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping

__all__ = ["Scenario"]


@dataclass(frozen=True)
class Scenario:
    """One deterministic serving workload, end to end.

    Catalog shape
        ``entities`` synthetic entities, each with ``synonyms_per_entity``
        aliases; ``multilingual_share`` of entities additionally carry a
        non-ASCII alias (accented/Cyrillic/CJK) exercising normalization.

    Query distribution
        Queries pick aliases zipfian-skewed by entity rank with exponent
        ``zipf_exponent``; ``noise_rate`` of on-catalog queries are
        misspelled (swap/drop/double a letter), ``context_rate`` gain
        context words, and ``miss_rate`` of all queries are guaranteed
        off-catalog.

    Traffic mix
        ``resolve_ratio`` of requests hit ``/resolve`` (the rest
        ``/match``); ``batch_ratio`` of requests are batches of
        ``batch_size`` queries via the ``*_many`` endpoints.

    Catalog churn
        Every ``delta_every_s`` seconds the driver republishes a delta
        sidecar touching ``dirty_fraction`` of entities (0 disables
        churn).  Deltas chain: each generation diffs against the last
        *applied* state, exactly like a production publisher.

    Burst profile
        ``qps`` > 0 paces the driver; during a burst window (every
        ``burst_every_s`` seconds, lasting ``burst_duration_s``) the
        target rate is multiplied by ``burst_factor``.  ``qps=0`` drives
        as fast as the connection allows.

    Run shape
        ``repeats`` independent repeats of ``duration_s`` seconds each,
        re-seeded per repeat; ``cold_start`` forces a server-side reload
        (which clears the match cache) before every repeat.
    """

    name: str
    description: str = ""
    # catalog shape
    entities: int = 400
    synonyms_per_entity: int = 3
    multilingual_share: float = 0.1
    # query distribution
    zipf_exponent: float = 1.1
    noise_rate: float = 0.05
    context_rate: float = 0.15
    miss_rate: float = 0.1
    # traffic mix
    resolve_ratio: float = 0.2
    batch_ratio: float = 0.1
    batch_size: int = 16
    # catalog churn
    dirty_fraction: float = 0.0
    delta_every_s: float = 0.0
    # burst profile
    qps: float = 0.0
    burst_factor: float = 1.0
    burst_every_s: float = 0.0
    burst_duration_s: float = 0.0
    # run shape
    duration_s: float = 5.0
    repeats: int = 1
    cold_start: bool = False
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        # NaN slips past every comparison below, and an infinite duration or
        # rate never ends a drive; from_dict reads both out of JSON.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type == "float" and not math.isfinite(value):
                raise ValueError(f"{spec.name} must be finite, got {value}")
        if self.entities < 1:
            raise ValueError(f"entities must be >= 1, got {self.entities}")
        if self.synonyms_per_entity < 1:
            raise ValueError(
                f"synonyms_per_entity must be >= 1, got {self.synonyms_per_entity}"
            )
        for field_name in (
            "multilingual_share",
            "noise_rate",
            "context_rate",
            "miss_rate",
            "resolve_ratio",
            "batch_ratio",
            "dirty_fraction",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if self.noise_rate + self.context_rate > 1.0:
            raise ValueError(
                "noise_rate + context_rate must be <= 1 "
                f"(got {self.noise_rate} + {self.context_rate})"
            )
        if self.zipf_exponent < 0.0:
            raise ValueError(f"zipf_exponent must be >= 0, got {self.zipf_exponent}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.delta_every_s < 0.0:
            raise ValueError(f"delta_every_s must be >= 0, got {self.delta_every_s}")
        if self.delta_every_s > 0.0 and self.dirty_fraction == 0.0:
            raise ValueError("delta_every_s > 0 requires dirty_fraction > 0")
        if self.qps < 0.0:
            raise ValueError(f"qps must be >= 0, got {self.qps}")
        if self.burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        for field_name in ("burst_every_s", "burst_duration_s"):
            value = getattr(self, field_name)
            if value < 0.0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")
        if self.duration_s <= 0.0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def with_overrides(self, **overrides: Any) -> "Scenario":
        """A copy with *overrides* applied (re-validated); None values skipped."""
        changed = {key: value for key, value in overrides.items() if value is not None}
        return replace(self, **changed) if changed else self

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form, embedded verbatim in every result file."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown keys are an error, not noise."""
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown scenario fields: {', '.join(unknown)}")
        return cls(**dict(payload))
