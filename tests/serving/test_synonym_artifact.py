"""Tests for compiled synonym artifacts."""

import pytest

from repro.clicklog.log import ClickLog
from repro.matching.index import DictionaryEntry, DictionaryIndex
from repro.matching.resolver import MatchResolver
from repro.serving.artifact import (
    ARTIFACT_KIND,
    LAYOUT_VERSION,
    SynonymArtifact,
    compile_dictionary,
)
from repro.serving.service import MatchService
from repro.storage.artifact import ArtifactError, write_artifact

from tests.oracle import reference

ENTRIES = [
    DictionaryEntry("indiana jones and the kingdom of the crystal skull", "m1", "canonical"),
    DictionaryEntry("indy 4", "m1", "mined", 120.0),
    DictionaryEntry("indiana jones 4", "m1", "mined", 80.0),
    DictionaryEntry("madagascar escape 2 africa", "m2", "canonical"),
    DictionaryEntry("madagascar 2", "m2", "mined", 200.0),
    DictionaryEntry("shared name", "m1", "mined", 5.0),
    DictionaryEntry("shared name", "m2", "mined", 9.0),
]


@pytest.fixture()
def artifact(tmp_path):
    path = tmp_path / "dict.synart"
    compile_dictionary(ENTRIES, path, version="v1", config_fingerprint="f00d")
    return SynonymArtifact.load(path)


class TestCompile:
    def test_manifest_counts(self, tmp_path):
        manifest = compile_dictionary(ENTRIES, tmp_path / "d.synart")
        assert manifest.kind == ARTIFACT_KIND
        assert manifest.counts["entries"] == len(ENTRIES)
        assert manifest.counts["unique_texts"] == 6
        assert manifest.extra["max_entry_tokens"] == 9

    def test_version_and_fingerprint_recorded(self, artifact):
        assert artifact.manifest.version == "v1"
        assert artifact.manifest.config_fingerprint == "f00d"

    def test_compile_normalizes_raw_entries(self, tmp_path):
        path = tmp_path / "raw.synart"
        compile_dictionary(
            [DictionaryEntry("  Indy 4!! ", "m1"), DictionaryEntry("   ", "m2")], path
        )
        artifact = SynonymArtifact.load(path)
        assert len(artifact) == 1
        assert artifact.entities_for("indy 4") == {"m1"}

    def test_compile_collapses_duplicates_to_max_weight(self, tmp_path):
        path = tmp_path / "dup.synart"
        compile_dictionary(
            [
                DictionaryEntry("indy 4", "m1", "canonical", 1.0),
                DictionaryEntry("indy 4", "m1", "mined", 120.0),
                DictionaryEntry("indy 4", "m1", "manual", 3.0),
            ],
            path,
        )
        artifact = SynonymArtifact.load(path)
        assert list(artifact) == [("indy 4", "m1", "mined", 120.0)]

    def test_empty_dictionary(self, tmp_path):
        path = tmp_path / "empty.synart"
        compile_dictionary([], path)
        artifact = SynonymArtifact.load(path)
        assert len(artifact) == 0
        assert artifact.entities_for("anything") == set()
        assert artifact.max_entry_tokens == 0
        assert list(artifact) == []

    def test_recompile_is_deterministic(self, tmp_path):
        first = compile_dictionary(ENTRIES, tmp_path / "a.synart")
        second = compile_dictionary(ENTRIES, tmp_path / "b.synart")
        assert first.content_hash == second.content_hash

    def test_in_memory_compile_equals_the_file(self, tmp_path):
        written = compile_dictionary(ENTRIES, tmp_path / "d.synart")
        in_memory = SynonymArtifact.from_entries(ENTRIES)
        assert in_memory.manifest.content_hash == written.content_hash
        assert in_memory.state_hash == written.extra["state_hash"]
        assert list(in_memory) == list(SynonymArtifact.load(tmp_path / "d.synart"))


class TestDictionaryIndexProtocol:
    """Answers held to the reference's scans over the same rows."""

    INDEX = reference.entries(ENTRIES)

    def test_artifact_satisfies_protocol(self, artifact):
        assert isinstance(artifact, DictionaryIndex)

    def test_entries_survive_round_trip(self, artifact):
        assert list(artifact) == reference.rows(self.INDEX)

    def test_lookup_matches_dictionary(self, artifact):
        for entry in self.INDEX:
            expected = reference.entities_for(self.INDEX, entry.text)
            assert artifact.entities_for(entry.text) == expected, entry.text
        assert artifact.entities_for("not in there") == set()

    def test_token_shortlist_matches_dictionary(self, artifact):
        for token in {token for entry in self.INDEX for token in entry.text.split()}:
            expected = reference.strings_containing_token(self.INDEX, token)
            assert artifact.strings_containing_token(token) == expected, token
        assert artifact.strings_containing_token("zzz") == set()
        # Tokens are looked up raw, not normalized.
        assert artifact.strings_containing_token("Indy") == set()

    def test_strings_for_entity_matches_dictionary(self, artifact):
        for entity_id in ("m1", "m2", "ghost"):
            expected = reference.strings_for_entity(self.INDEX, entity_id)
            assert artifact.strings_for_entity(entity_id) == expected

    def test_lookup_normalizes_input(self, artifact):
        assert artifact.entities_for("  Indy 4! ") == {"m1"}

    def test_ambiguous_string_keeps_all_entities(self, artifact):
        assert artifact.entities_for("shared name") == {"m1", "m2"}

    def test_max_entry_tokens_precomputed(self, artifact):
        assert artifact.max_entry_tokens == 9  # the m1 canonical


class TestPriors:
    """The optional priors block, and ranking without it."""

    @pytest.fixture()
    def click_log(self):
        return ClickLog.from_tuples(
            [
                ("indy 4", "https://a.example", 120),
                ("indiana jones 4", "https://a.example", 30),
                ("madagascar 2", "https://b.example", 200),
                ("shared name", "https://c.example", 9),
            ]
        )

    @pytest.fixture()
    def priored(self, click_log, tmp_path):
        path = tmp_path / "priored.synart"
        compile_dictionary(ENTRIES, path, click_log=click_log)
        return SynonymArtifact.load(path)

    def test_priors_block_present_and_flagged(self, priored):
        assert priored.has_priors is True
        assert priored.manifest.extra["has_priors"] is True
        assert priored.manifest.counts["prior_entities"] == 2

    def test_priors_equal_live_log_resolver(self, priored, click_log):
        """The embedded prior is exactly what a live-log resolver computes."""
        live = MatchResolver(SynonymArtifact.from_entries(ENTRIES), click_log=click_log)
        assert priored.priors() == {"m1": live.prior("m1"), "m2": live.prior("m2")}

    def test_priors_cover_zero_click_entities(self, click_log, tmp_path):
        path = tmp_path / "zero.synart"
        compile_dictionary(
            [DictionaryEntry("indy 4", "m1"), DictionaryEntry("ghost town", "m7")],
            path,
            click_log=click_log,
        )
        artifact = SynonymArtifact.load(path)
        assert artifact.priors() == {"m1": 120.0, "m7": 0.0}

    def test_priorless_compile_has_no_block(self, artifact):
        assert artifact.has_priors is False
        assert artifact.priors() is None
        assert artifact.prior("m1") == 0.0
        assert artifact.manifest.extra["has_priors"] is False
        assert "prior_entities" not in artifact.manifest.counts
        assert artifact.manifest.extra["layout_version"] == LAYOUT_VERSION

    def test_recompile_with_priors_is_deterministic(self, click_log, tmp_path):
        first = compile_dictionary(ENTRIES, tmp_path / "a.synart", click_log=click_log)
        second = compile_dictionary(ENTRIES, tmp_path / "b.synart", click_log=click_log)
        assert first.content_hash == second.content_hash

    def test_priorless_resolver_degrades_to_uniform(self, tmp_path):
        path = tmp_path / "uniform.synart"
        compile_dictionary(ENTRIES, path)
        resolver = MatchResolver.from_artifact(SynonymArtifact.load(path))
        assert resolver.prior("m1") == resolver.prior("m2") == 1.0

    def test_serving_never_decodes_the_whole_block(self, click_log, tmp_path, monkeypatch):
        """Load, match and resolve read priors one entity at a time."""
        path = tmp_path / "priored.synart"
        compile_dictionary(ENTRIES, path, click_log=click_log)

        def whole_block(self):
            raise AssertionError("serving decoded the whole priors block")

        monkeypatch.setattr(SynonymArtifact, "priors", whole_block)
        service = MatchService(path)
        assert service.match("indy 4").entity_ids == frozenset({"m1"})
        match, ranked = service.resolve("shared name")
        assert match.entity_ids == frozenset({"m1", "m2"})
        # m2: madagascar 2 (200) + shared name (9); m1: 120 + 30 + 9.
        assert [(item.entity_id, item.prior) for item in ranked] == [
            ("m2", 209.0),
            ("m1", 159.0),
        ]


class TestLoadValidation:
    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.art"
        write_artifact(path, {}, kind="something-else")
        with pytest.raises(ArtifactError):
            SynonymArtifact.load(path)

    def test_corrupted_artifact_rejected(self, tmp_path):
        path = tmp_path / "corrupt.synart"
        compile_dictionary(ENTRIES, path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x55
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="hash"):
            SynonymArtifact.load(path)

    def test_peek_manifest_without_loading(self, tmp_path):
        path = tmp_path / "peek.synart"
        written = compile_dictionary(ENTRIES, path, version="peeked")
        assert SynonymArtifact.peek_manifest(path) == written
