"""Evaluation metrics (paper Section IV).

Parameter-sensitivity metrics (Section IV-A):

* **Precision** — "# of true synonyms over all synonyms generated".
* **Weighted Precision** — the same, "weighted by synonym frequency in the
  query log": each produced synonym counts proportionally to its click
  volume, so getting a popular alias right matters more than a rare one.
* **Coverage Increase** — "percentage increase in coverage of queries": how
  much more of the query-log volume can be matched to an entity once the
  mined synonyms are added to the canonical strings.

Comparison metrics (Section IV-B), the properties of
:class:`~repro.eval.experiments.QualityRow` (and of
:class:`~repro.core.types.MiningResult`):

* **Hit Ratio** — "percentage of entries producing at least 1 synonym".
* **Expansion Ratio** — "sum of synonyms and orig entries over orig
  entries".
"""

from __future__ import annotations

from repro.clicklog.log import ClickLog
from repro.core.types import MiningResult
from repro.eval.labeling import GroundTruthOracle

__all__ = [
    "precision",
    "weighted_precision",
    "coverage_increase",
]


def precision(result: MiningResult, oracle: GroundTruthOracle) -> float:
    """Fraction of produced synonyms that are true synonyms.

    A result with no produced synonyms has precision 1.0 by convention
    (nothing wrong was claimed); the sweeps rely on this so the extreme
    threshold points stay well-defined.
    """
    produced = 0
    correct = 0
    for entry in result:
        for candidate in entry.selected:
            produced += 1
            if oracle.is_true_synonym(candidate.query, entry.canonical):
                correct += 1
    if produced == 0:
        return 1.0
    return correct / produced


def weighted_precision(
    result: MiningResult, oracle: GroundTruthOracle, click_log: ClickLog
) -> float:
    """Precision with each synonym weighted by its query-log click volume."""
    total_weight = 0.0
    correct_weight = 0.0
    for entry in result:
        for candidate in entry.selected:
            weight = float(click_log.total_clicks(candidate.query))
            if weight <= 0.0:
                weight = 1.0
            total_weight += weight
            if oracle.is_true_synonym(candidate.query, entry.canonical):
                correct_weight += weight
    if total_weight == 0.0:
        return 1.0
    return correct_weight / total_weight


def coverage_increase(result: MiningResult, click_log: ClickLog) -> float:
    """Relative increase of query-log volume matched after expansion.

    *Before* expansion only the canonical strings themselves match log
    queries; *after* expansion every produced synonym matches as well.
    Both are measured in click volume (query frequency), so the metric is
    "how much more user traffic can now be routed to structured data",
    expressed as a fraction (1.2 = +120%, the paper reports it as a
    percentage).
    """
    canonicals = {entry.canonical for entry in result}
    before = sum(click_log.total_clicks(canonical) for canonical in canonicals)

    gained = 0.0
    for entry in result:
        for candidate in entry.selected:
            gained += click_log.total_clicks(candidate.query)

    if before == 0:
        # No canonical string was ever typed by users; report the gain
        # relative to a single unit of volume to keep the metric finite.
        return float(gained)
    return gained / before
