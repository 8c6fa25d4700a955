"""Tests for the delta artifact format: publish, merge, chain-apply.

That ``gen-0`` plus applied deltas answers like a full compile, across
republishes, is ``tests/oracle``'s job.  The pins here:

* **chain-apply equivalence** — ``gen-0`` plus N applied deltas is
  content-hash-identical to a full compile at ``gen-N``;
* **no stale postings** — entries removed by a refresh must disappear
  from the applied artifact's exact and token indexes (a stale posting is
  silent corruption: the matcher would keep resolving a synonym the miner
  retracted);
* **refused mismatches** — a delta applied to the wrong base, a corrupted
  sidecar, or a divergent merge result must raise, never serve.
"""

import pytest

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.matching.index import DictionaryEntry, entries_from_mining_result
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.delta import (
    DELTA_KIND,
    DictionaryDelta,
    apply_delta,
    delta_path_for,
    diff_delta,
    write_delta,
)
from repro.simulation.catalog import Entity, EntityCatalog
from repro.storage.artifact import ArtifactError

BASE_ENTRIES = [
    DictionaryEntry("alpha product", "e1", "canonical"),
    DictionaryEntry("alfa", "e1", "mined", 10.0),
    DictionaryEntry("beta gadget", "e2", "canonical"),
    DictionaryEntry("beta", "e2", "mined", 5.0),
]

BASE_CLICKS = [("alfa", "https://a.example", 10), ("beta", "https://b.example", 5)]


@pytest.fixture()
def base_path(tmp_path):
    path = tmp_path / "dict.synart"
    compile_dictionary(
        BASE_ENTRIES,
        path,
        version="gen-1",
        click_log=ClickLog.from_tuples(BASE_CLICKS),
    )
    return path


@pytest.fixture()
def base(base_path):
    return SynonymArtifact.load(base_path)


def _new_dictionary():
    """The base with e1 shrunk (alfa retracted, alef added) and e3 new."""
    return [
        DictionaryEntry("alpha product", "e1", "canonical"),
        DictionaryEntry("alef", "e1", "mined", 3.0),
        DictionaryEntry("beta gadget", "e2", "canonical"),
        DictionaryEntry("beta", "e2", "mined", 5.0),
        DictionaryEntry("gamma widget", "e3", "canonical"),
    ]


def _new_click_log():
    return ClickLog.from_tuples(
        BASE_CLICKS + [("alef", "https://a.example", 3), ("beta", "https://c.example", 2)]
    )


class TestDiffAndRoundTrip:
    def test_delta_fields_survive_round_trip(self, base, tmp_path):
        sidecar = tmp_path / "d.delta"
        manifest = diff_delta(
            base, _new_dictionary(), sidecar, version="gen-2",
            click_log=_new_click_log(),
        )
        assert manifest.kind == DELTA_KIND
        delta = DictionaryDelta.load(sidecar)
        assert delta.version == "gen-2"
        assert delta.base_version == "gen-1"
        assert delta.base_state_hash == base.state_hash
        assert delta.base_content_hash == base.manifest.content_hash
        changed = dict(delta.changed)
        # e1 changed (alfa -> alef), e3 appeared; e2's entries are
        # untouched but its prior moved, so it rides in prior_updates only.
        assert set(changed) == {"e1", "e3"}
        assert [t[0] for t in changed["e1"]] == ["alpha product", "alef"]
        assert delta.removed == []
        assert delta.prior_updates == {"e1": 3.0, "e2": 7.0, "e3": 0.0}

    def test_removed_entity_recorded(self, base, tmp_path):
        only_e1 = BASE_ENTRIES[:2]
        sidecar = tmp_path / "d.delta"
        diff_delta(
            base, only_e1, sidecar, version="gen-2",
            click_log=ClickLog.from_tuples(BASE_CLICKS),
        )
        delta = DictionaryDelta.load(sidecar)
        assert delta.removed == ["e2"]
        assert delta.changed == []
        applied = apply_delta(base, delta)
        assert applied.entities_for("beta") == set()
        assert applied.priors() == {"e1": 10.0}

    def test_identical_state_yields_empty_delta(self, base, tmp_path):
        sidecar = tmp_path / "d.delta"
        manifest = diff_delta(
            base, BASE_ENTRIES, sidecar, version="gen-2",
            click_log=ClickLog.from_tuples(BASE_CLICKS),
        )
        assert manifest.counts["changed_entities"] == 0
        assert manifest.counts["removed_entities"] == 0
        applied = apply_delta(base, DictionaryDelta.load(sidecar))
        assert applied.manifest.content_hash == base.manifest.content_hash

    def test_priors_source_must_match_base(self, base, tmp_path):
        with pytest.raises(ArtifactError, match="priors"):
            diff_delta(base, _new_dictionary(), tmp_path / "d.delta", version="x")


class TestApply:
    @pytest.fixture()
    def delta(self, base, tmp_path):
        sidecar = tmp_path / "d.delta"
        diff_delta(
            base, _new_dictionary(), sidecar, version="gen-2",
            click_log=_new_click_log(),
        )
        return DictionaryDelta.load(sidecar)

    def test_applied_equals_direct_compile(self, base, delta, tmp_path):
        applied = apply_delta(base, delta)
        reference = compile_dictionary(
            _new_dictionary(), tmp_path / "ref.synart", version="gen-2",
            click_log=_new_click_log(),
        )
        assert applied.manifest.content_hash == reference.content_hash
        assert applied.manifest.extra["state_hash"] == reference.extra["state_hash"]
        assert applied.manifest.version == "gen-2"

    def test_stale_postings_dropped(self, base, delta):
        """The retracted synonym leaves every index, not just the entries."""
        assert base.entities_for("alfa") == {"e1"}
        assert "alfa" in base.strings_containing_token("alfa")
        applied = apply_delta(base, delta)
        assert applied.entities_for("alfa") == set()
        assert applied.strings_containing_token("alfa") == set()
        assert "alfa" not in applied.strings_for_entity("e1")
        assert applied.entities_for("alef") == {"e1"}

    def test_apply_writes_full_artifact_file(self, base, delta, tmp_path):
        output = tmp_path / "applied.synart"
        applied = apply_delta(base, delta, output_path=output)
        loaded = SynonymArtifact.load(output)
        assert loaded.manifest.content_hash == applied.manifest.content_hash
        assert list(loaded) == list(applied)
        assert loaded.priors() == applied.priors()

    def test_wrong_base_refused(self, delta, tmp_path):
        other = tmp_path / "other.synart"
        compile_dictionary(
            [DictionaryEntry("unrelated", "e9")],
            other,
            version="gen-1",
            click_log=ClickLog(),
        )
        with pytest.raises(ArtifactError, match="base mismatch"):
            apply_delta(SynonymArtifact.load(other), delta)

    def test_applying_twice_refused(self, base, delta):
        applied = apply_delta(base, delta)
        with pytest.raises(ArtifactError, match="base mismatch"):
            apply_delta(applied, delta)

    def test_corrupted_delta_refused(self, base, tmp_path):
        sidecar = tmp_path / "d.delta"
        diff_delta(
            base, _new_dictionary(), sidecar, version="gen-2",
            click_log=_new_click_log(),
        )
        data = bytearray(sidecar.read_bytes())
        data[-2] ^= 0x7F
        sidecar.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="hash"):
            DictionaryDelta.load(sidecar)

    def test_artifact_apply_delta_method(self, base, delta):
        assert base.apply_delta(delta).entities_for("gamma widget") == {"e3"}


class TestWriteDeltaValidation:
    def test_changed_and_removed_must_be_disjoint(self, tmp_path):
        with pytest.raises(ValueError, match="both changed and removed"):
            write_delta(
                tmp_path / "d.delta",
                version="v", base_version="b", base_state_hash="s",
                target_state_hash="t",
                changed=[("e1", [("text", "e1", "mined", 1.0)])],
                removed=["e1"],
                prior_updates=None,
            )

    def test_base_state_hash_required(self, tmp_path):
        with pytest.raises(ValueError, match="base_state_hash"):
            write_delta(
                tmp_path / "d.delta",
                version="v", base_version="b", base_state_hash="",
                target_state_hash="t", changed=[], removed=[], prior_updates=None,
            )

    def test_full_loader_refuses_delta_kind(self, base, tmp_path):
        sidecar = tmp_path / "d.delta"
        diff_delta(
            base, _new_dictionary(), sidecar, version="gen-2",
            click_log=_new_click_log(),
        )
        with pytest.raises(ArtifactError, match="kind"):
            SynonymArtifact.load(sidecar)


def _single_entity_miner():
    """One tracked entity whose only synonym can be retracted by traffic.

    ``alfa`` clicks the entity's sole surrogate 10 times (ICR 1.0); later
    off-surrogate clicks dilute its ICR below the threshold, so a refresh
    drops it — the shape of the stale-postings regression.
    """
    search = SearchLog.from_tuples([("alpha product", "https://e.example/alpha", 1)])
    clicks = ClickLog.from_tuples([("alfa", "https://e.example/alpha", 10)])
    config = MinerConfig(surrogate_k=5, ipc_threshold=1, icr_threshold=0.5)
    miner = IncrementalSynonymMiner(search_log=search, click_log=clicks, config=config)
    catalog = EntityCatalog(
        "test", [Entity(entity_id="e-alpha", canonical_name="alpha product", domain="test")]
    )
    return miner, catalog


class TestIncrementalDeltaPublish:
    def test_delta_requires_published_base(self, tmp_path):
        miner, catalog = _single_entity_miner()
        miner.track(["alpha product"])
        miner.refresh()
        with pytest.raises(ValueError, match="publish a full artifact"):
            miner.publish(catalog, tmp_path / "dict.synart", delta=True)

    def test_refresh_retraction_drops_postings_full_and_delta(self, tmp_path):
        """A synonym the miner retracts vanishes from both publish paths."""
        miner, catalog = _single_entity_miner()
        miner.track(["alpha product"])
        miner.refresh()
        path = tmp_path / "dict.synart"
        miner.publish(catalog, path)
        base = SynonymArtifact.load(path)
        assert base.entities_for("alfa") == {"e-alpha"}

        # Dilute alfa's ICR below the threshold: the refresh retracts it.
        miner.ingest_clicks([ClickRecord("alfa", "https://other.example", 90)])
        assert miner.refresh() == ["alpha product"]
        assert miner.result["alpha product"].synonyms == []

        # Full republish drops it...
        full_path = tmp_path / "full.synart"
        entries = list(entries_from_mining_result(miner.result, catalog))
        assert "alfa" not in {entry.text for entry in entries}

        # ...and so does the delta applied onto the old base.
        manifest = miner.publish(catalog, path, delta=True)
        applied = apply_delta(base, DictionaryDelta.load(delta_path_for(path)))
        assert applied.entities_for("alfa") == set()
        assert applied.strings_containing_token("alfa") == set()
        compile_dictionary(
            entries, full_path, version=manifest.version,
            config_fingerprint=miner.config.fingerprint(), click_log=miner.click_log,
        )
        assert applied.manifest.content_hash == (
            SynonymArtifact.load(full_path).manifest.content_hash
        )

    def test_full_publish_removes_stale_sidecar(self, tmp_path):
        miner, catalog = _single_entity_miner()
        miner.track(["alpha product"])
        miner.refresh()
        path = tmp_path / "dict.synart"
        miner.publish(catalog, path)
        miner.ingest_clicks([ClickRecord("alfa", "https://e.example/alpha", 1)])
        miner.refresh()
        miner.publish(catalog, path, delta=True)
        assert delta_path_for(path).exists()
        miner.publish(catalog, path)
        assert not delta_path_for(path).exists()

    def test_catalog_delisting_removes_entity_via_delta(self, tmp_path):
        """A delisted entity leaves the delta even with no new traffic."""
        search = SearchLog.from_tuples(
            [
                ("alpha product", "https://e.example/alpha", 1),
                ("beta gadget", "https://e.example/beta", 1),
            ]
        )
        clicks = ClickLog.from_tuples(
            [
                ("alfa", "https://e.example/alpha", 10),
                ("betta", "https://e.example/beta", 8),
            ]
        )
        config = MinerConfig(surrogate_k=5, ipc_threshold=1, icr_threshold=0.5)
        miner = IncrementalSynonymMiner(
            search_log=search, click_log=clicks, config=config
        )
        alpha = Entity(entity_id="e-alpha", canonical_name="alpha product", domain="t")
        beta = Entity(entity_id="e-beta", canonical_name="beta gadget", domain="t")
        catalog = EntityCatalog("t", [alpha, beta])
        miner.track(["alpha product", "beta gadget"])
        miner.refresh()
        path = tmp_path / "dict.synart"
        miner.publish(catalog, path)
        base = SynonymArtifact.load(path)
        assert base.entities_for("betta") == {"e-beta"}

        # Delist beta: nothing is dirty, yet the next delta must drop it
        # exactly as a full compile against the smaller catalog would.
        smaller = EntityCatalog("t", [alpha])
        manifest = miner.publish(smaller, path, delta=True)
        delta = DictionaryDelta.load(delta_path_for(path))
        assert delta.removed == ["e-beta"]
        assert delta.changed == []
        applied = apply_delta(base, delta)
        assert applied.entities_for("betta") == set()
        assert applied.strings_containing_token("betta") == set()
        reference = compile_dictionary(
            entries_from_mining_result(miner.result, smaller),
            tmp_path / "ref.synart",
            version=manifest.version,
            config_fingerprint=miner.config.fingerprint(),
            click_log=miner.click_log,
        )
        assert applied.manifest.content_hash == reference.content_hash

    def test_prior_only_delta_for_untouched_entity(self, tmp_path):
        """Clicks on an unchanged entity's string update its prior only."""
        miner, catalog = _single_entity_miner()
        miner.track(["alpha product"])
        miner.refresh()
        path = tmp_path / "dict.synart"
        miner.publish(catalog, path)
        base = SynonymArtifact.load(path)
        assert base.priors() == {"e-alpha": 10.0}

        # "alpha product" is a dictionary string of e-alpha but not one of
        # its candidate queries, and the clicked URL is no surrogate: the
        # entity is never marked dirty, yet its prior moves.
        miner.ingest_clicks([ClickRecord("alpha product", "https://x.example", 4)])
        assert miner.refresh() == []
        miner.publish(catalog, path, delta=True)
        delta = DictionaryDelta.load(delta_path_for(path))
        assert delta.changed == []
        assert delta.prior_updates == {"e-alpha": 14.0}
        applied = apply_delta(base, delta)
        assert applied.priors() == {"e-alpha": 14.0}
        assert list(applied) == list(base)


def _toy_chain(world, path):
    """An incremental miner over the toy world publishes gen-0 in full, then
    two deltas, each after a click burst re-mines one entity.  Yields the
    miner with each publish's delta (``None`` for gen-0)."""
    miner = IncrementalSynonymMiner(
        search_log=SearchLog(world.search_log.iter_records()),
        click_log=ClickLog(world.click_log.iter_records()),
        config=MinerConfig(),
    )
    values = world.canonical_queries()
    miner.track(values)
    miner.refresh()
    miner.publish(world.catalog, path)
    yield miner, None
    for value in values[:2]:
        url = miner.search_log.top_urls(value, k=1)[0]
        miner.ingest_clicks([ClickRecord(value, url, 25)])
        assert miner.refresh()  # at least one entity re-mined
        miner.publish(world.catalog, path, delta=True)
        yield miner, DictionaryDelta.load(delta_path_for(path))


class TestChainApplyEquivalence:
    """gen-0 + N applied deltas ≡ full compile at gen-N, content hash equal;
    deltas chain in publish order and only in publish order."""

    def test_two_delta_chain_matches_full_compiles(self, toy_world, tmp_path):
        path = tmp_path / "dict.synart"
        chain = _toy_chain(toy_world, path)
        next(chain)
        artifact = SynonymArtifact.load(path)
        for round_index, (miner, delta) in enumerate(chain):
            artifact = apply_delta(artifact, delta)
            reference = compile_dictionary(
                entries_from_mining_result(miner.result, toy_world.catalog),
                tmp_path / f"ref-{round_index}.synart", version=delta.version,
                config_fingerprint=miner.config.fingerprint(), click_log=miner.click_log,
            )  # fmt: skip
            assert artifact.manifest.content_hash == reference.content_hash, (
                f"chain diverged from full compile at round {round_index}"
            )
            assert artifact.manifest.version == reference.version

    def test_delta_skips_chain_link_refused(self, toy_world, tmp_path):
        path = tmp_path / "dict.synart"
        chain = _toy_chain(toy_world, path)
        next(chain)
        gen0 = SynonymArtifact.load(path)
        delta1, delta2 = (delta for _miner, delta in chain)

        # Applying out of order must fail; in order must succeed.
        with pytest.raises(ArtifactError, match="base mismatch"):
            apply_delta(gen0, delta2)
        chained = apply_delta(apply_delta(gen0, delta1), delta2)
        assert chained.manifest.version == delta2.version
