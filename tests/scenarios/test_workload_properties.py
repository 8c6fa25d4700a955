"""Property tests for the workload generators (hypothesis).

Three families of guarantees back the harness's claim to be replayable:

* **Determinism** — the same (scenario, seed, repeat) yields the same
  catalog and a byte-identical query stream / request plan, and a
  different seed yields a different stream.
* **Statistics** — over 10k samples the realized traffic-mix ratios
  (resolve share, batch share) and query-kind rates (noise, miss) sit
  within tolerance of the spec'd probabilities.
* **Compilability** — every generated catalog, across the spec space,
  compiles into a loadable artifact with priors (the experiment runner
  does this before every run; it must never be the thing that fails).
"""

from __future__ import annotations

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.scenarios.spec import Scenario
from repro.scenarios.workload import (
    annotated_query_stream,
    build_catalog,
    catalog_fingerprint,
    click_log_from_rows,
    entries_from_rows,
    mutate_rows,
    query_stream,
    request_stream,
    stream_fingerprint,
)
from repro.serving.artifact import SynonymArtifact, compile_dictionary

# Small catalogs keep hypothesis example runtime in the milliseconds;
# determinism does not depend on scale.
scenario_strategy = st.builds(
    Scenario,
    name=st.just("prop"),
    entities=st.integers(min_value=1, max_value=60),
    synonyms_per_entity=st.integers(min_value=1, max_value=6),
    multilingual_share=st.floats(min_value=0.0, max_value=1.0),
    zipf_exponent=st.floats(min_value=0.0, max_value=2.0),
    noise_rate=st.floats(min_value=0.0, max_value=0.5),
    context_rate=st.floats(min_value=0.0, max_value=0.5),
    miss_rate=st.floats(min_value=0.0, max_value=0.5),
    resolve_ratio=st.floats(min_value=0.0, max_value=1.0),
    batch_ratio=st.floats(min_value=0.0, max_value=1.0),
    batch_size=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**32),
)


def take(iterator, count):
    return list(itertools.islice(iterator, count))


class TestDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(scenario=scenario_strategy, repeat=st.integers(min_value=0, max_value=3))
    def test_same_seed_byte_identical_stream(self, scenario, repeat):
        catalog_a = build_catalog(scenario)
        catalog_b = build_catalog(scenario)
        assert catalog_a.rows == catalog_b.rows
        assert catalog_fingerprint(catalog_a.rows) == catalog_fingerprint(catalog_b.rows)
        stream_a = take(query_stream(scenario, catalog_a, repeat=repeat), 300)
        stream_b = take(query_stream(scenario, catalog_b, repeat=repeat), 300)
        assert "\n".join(stream_a).encode("utf-8") == "\n".join(stream_b).encode("utf-8")
        plan_a = take(request_stream(scenario, catalog_a, repeat=repeat), 100)
        plan_b = take(request_stream(scenario, catalog_b, repeat=repeat), 100)
        assert plan_a == plan_b
        assert stream_fingerprint(scenario, catalog_a, repeat=repeat) == (
            stream_fingerprint(scenario, catalog_b, repeat=repeat)
        )

    @settings(max_examples=20, deadline=None)
    @given(scenario=scenario_strategy)
    def test_different_seed_different_stream(self, scenario):
        reseeded = scenario.with_overrides(seed=scenario.seed + 1)
        fp_a = stream_fingerprint(scenario, build_catalog(scenario))
        fp_b = stream_fingerprint(reseeded, build_catalog(reseeded))
        assert fp_a != fp_b

    @settings(max_examples=20, deadline=None)
    @given(scenario=scenario_strategy)
    def test_repeats_are_distinct_but_individually_stable(self, scenario):
        catalog = build_catalog(scenario)
        fp0 = stream_fingerprint(scenario, catalog, repeat=0)
        fp1 = stream_fingerprint(scenario, catalog, repeat=1)
        assert fp0 != fp1  # repeats sample fresh streams...
        assert fp1 == stream_fingerprint(scenario, catalog, repeat=1)  # ...stably

    @settings(max_examples=10, deadline=None)
    @given(
        scenario=scenario_strategy.filter(lambda s: s.entities >= 2),
        generation=st.integers(min_value=1, max_value=3),
    )
    def test_mutations_are_deterministic_and_additive(self, scenario, generation):
        scenario = scenario.with_overrides(dirty_fraction=0.3, delta_every_s=1.0)
        rows = list(build_catalog(scenario).rows)
        mutated_a = mutate_rows(rows, scenario, generation=generation)
        mutated_b = mutate_rows(rows, scenario, generation=generation)
        assert mutated_a == mutated_b
        assert len(mutated_a) > len(rows)  # churn adds fresh aliases
        assert mutate_rows(rows, scenario, generation=generation + 1) != mutated_a


class TestRatioTolerances:
    """Realized rates over 10k samples track the spec'd probabilities.

    With n=10k the binomial std-dev for p in [0.1, 0.6] is under 0.005;
    a ±0.02 tolerance is four sigma-plus — tight enough to catch a wiring
    bug (rates swapped, a branch never taken), loose enough to never
    flake.
    """

    SAMPLES = 10_000
    TOLERANCE = 0.02

    def test_query_kind_rates_hold(self):
        scenario = Scenario(
            name="rates", entities=50, seed=1234,
            noise_rate=0.25, context_rate=0.2, miss_rate=0.15,
        )
        catalog = build_catalog(scenario)
        kinds = [
            kind
            for _query, kind in take(
                annotated_query_stream(scenario, catalog), self.SAMPLES
            )
        ]
        rates = {kind: kinds.count(kind) / self.SAMPLES for kind in set(kinds)}
        assert rates["miss"] == pytest.approx(0.15, abs=self.TOLERANCE)
        # noise/context apply to the non-miss share of the stream
        assert rates["noisy"] == pytest.approx(0.85 * 0.25, abs=self.TOLERANCE)
        assert rates["context"] == pytest.approx(0.85 * 0.2, abs=self.TOLERANCE)

    def test_traffic_mix_ratios_hold(self):
        scenario = Scenario(
            name="mix", entities=50, seed=99,
            resolve_ratio=0.3, batch_ratio=0.2, batch_size=8,
        )
        catalog = build_catalog(scenario)
        plan = take(request_stream(scenario, catalog), self.SAMPLES)
        resolve_share = sum(r.endpoint == "resolve" for r in plan) / self.SAMPLES
        batch_share = sum(r.batched for r in plan) / self.SAMPLES
        assert resolve_share == pytest.approx(0.3, abs=self.TOLERANCE)
        assert batch_share == pytest.approx(0.2, abs=self.TOLERANCE)
        assert all(len(r.queries) in (1, 8) for r in plan)

    def test_multilingual_share_holds_over_entities(self):
        scenario = Scenario(
            name="ml", entities=2_000, multilingual_share=0.4, seed=5
        )
        catalog = build_catalog(scenario)
        share = catalog.multilingual_entities / scenario.entities
        assert share == pytest.approx(0.4, abs=self.TOLERANCE)
        assert catalog.multilingual_aliases  # and they are real aliases
        assert all(
            any(ord(ch) > 127 for ch in alias)
            for alias in catalog.multilingual_aliases
        )

    def test_zipf_head_dominates(self):
        scenario = Scenario(name="zipf", entities=100, zipf_exponent=1.2, seed=3,
                            noise_rate=0.0, context_rate=0.0, miss_rate=0.0)
        catalog = build_catalog(scenario)
        head = set(catalog.aliases[: 1 + scenario.synonyms_per_entity])  # entity 0
        hits = sum(
            query in head for query in take(query_stream(scenario, catalog), 5_000)
        )
        # Entity 0 holds ~28% of the zipf mass at s=1.2 over 100 entities.
        assert hits / 5_000 > 0.15


class TestCatalogsCompile:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(scenario=scenario_strategy)
    def test_generated_catalogs_always_compile(self, scenario, tmp_path):
        catalog = build_catalog(scenario)
        path = tmp_path / "generated.synart"  # overwritten per example
        manifest = compile_dictionary(
            entries_from_rows(catalog.rows),
            path,
            version="prop-1",
            click_log=click_log_from_rows(catalog.rows),
        )
        assert manifest.counts["entries"] > 0
        loaded = SynonymArtifact.load(path)
        assert loaded.has_priors
        # Every alias the query stream can draw must be matchable.
        assert loaded.entities_for(catalog.aliases[0])
