"""Table I — Hits and Expansion: Us vs Wikipedia vs Walk(0.8).

Regenerates the paper's Table I on both datasets (D1 movies, D2 cameras)
and asserts its qualitative findings:

* the mined synonyms ("Us") expand more entries, and more per entry, than
  either baseline on both datasets;
* Wikipedia works for popular entities (movies) but collapses on the long
  tail (cameras);
* the random walk needs the canonical string to appear as a query, which
  costs it hit ratio on the verbose camera names.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.reporting import render_table1, row_at


def test_table1_hits_and_expansion(quality_rows, results_dir):
    write_result(results_dir, "table1_hits_expansion.txt", render_table1(quality_rows))

    movies_us, movies_wiki, movies_walk, cameras_us, cameras_wiki, cameras_walk = (
        row_at(quality_rows, world, method)
        for world in ("movies", "cameras")
        for method in ("Us", "Wiki", "Walk(0.8)")
    )

    # Every method was run on the full catalogs.
    assert movies_us.originals == 100
    assert cameras_us.originals == 882

    # Paper: "Our approach consistently creates more synonyms (expansion)
    # and for more entries (hit) for both datasets."
    for ours, wiki, walk in ((movies_us, movies_wiki, movies_walk),
                             (cameras_us, cameras_wiki, cameras_walk)):
        assert ours.hits >= wiki.hits
        assert ours.hits >= walk.hits
        assert ours.synonyms > wiki.synonyms
        assert ours.expansion_ratio > wiki.expansion_ratio
        assert ours.expansion_ratio > walk.expansion_ratio

    # Paper: Wikipedia performs poorly for less popular entries (cameras);
    # movies keep high coverage while cameras drop to a small fraction.
    assert movies_wiki.hit_ratio > 0.85
    assert cameras_wiki.hit_ratio < 0.35
    assert cameras_wiki.hit_ratio < movies_wiki.hit_ratio / 2

    # Paper: the random walk's hit ratio drops on cameras because many
    # canonical camera names were never issued as queries.
    assert cameras_walk.hit_ratio < movies_walk.hit_ratio
    assert cameras_walk.hit_ratio < 1.0

    # Our method keeps a high hit ratio on both datasets (99% / 87% in the
    # paper); require the same order of magnitude here.
    assert movies_us.hit_ratio > 0.9
    assert cameras_us.hit_ratio > 0.7
