"""Property-based tests for per-entity prior lookup in compiled artifacts.

``SynonymArtifact.prior`` binary-searches the byte-sorted ``priors.entity``
block on decoded strings, so it is right only while UTF-8 byte order and
``str`` order agree.  Entity ids mix ASCII, BMP characters above the
surrogate range and astral characters, where UTF-16 order would disagree.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.artifact import SynonymArtifact, build_blocks
from repro.serving.delta import DictionaryDelta, DictionaryState, apply_delta, write_diff

entity_id = st.text(
    alphabet=st.sampled_from("aZ0 éЖ中￿\U00010348\U0001f600"),
    min_size=1,
    max_size=5,
)
prior_value = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
priors = st.dictionaries(entity_id, prior_value, min_size=1, max_size=12)


def in_memory(prior_map):
    entries = [(f"name {i}", e, "canonical", 1.0) for i, e in enumerate(prior_map)]
    blocks, counts, extra = build_blocks(entries, priors=prior_map)
    return entries, SynonymArtifact.from_blocks(blocks, version="v1", counts=counts, extra=extra)


def assert_lookup_matches_block(artifact, expected, unknown):
    # Search first, on a fresh artifact: the lookup decodes lazily.
    looked_up = {e: artifact.prior(e) for e in expected}
    assert looked_up == artifact.priors() == expected
    for e in unknown:
        if e not in expected:
            assert artifact.prior(e) == 0.0


class TestPerEntityPrior:
    @settings(max_examples=80, deadline=None)
    @given(priors, st.lists(entity_id, max_size=6))
    def test_prior_equals_the_decoded_block(self, prior_map, unknown):
        _entries, artifact = in_memory(prior_map)
        assert_lookup_matches_block(artifact, prior_map, unknown)

    @settings(max_examples=40, deadline=None)
    @given(priors, priors, st.lists(entity_id, max_size=6))
    def test_prior_after_a_delta_equals_the_decoded_block(self, base_map, update, unknown):
        """A delta-applied (``from_blocks``) artifact answers like its block."""
        entries, base = in_memory(base_map)
        entries += [(f"new {i}", e, "mined", 2.0) for i, e in enumerate(update)]
        target = {**base_map, **update}
        with tempfile.TemporaryDirectory() as workdir:
            sidecar = Path(workdir) / "gen-2.delta"
            write_diff(DictionaryState.of(base), entries, target, sidecar, version="gen-2")
            applied = apply_delta(base, DictionaryDelta.load(sidecar))
        assert_lookup_matches_block(applied, target, unknown)
