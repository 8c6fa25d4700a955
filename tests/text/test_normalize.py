"""Tests for repro.text.normalize."""

from repro.text.normalize import (
    normalize,
    normalize_whitespace,
    strip_accents,
    strip_punctuation,
)


class TestStripAccents:
    def test_removes_combining_accents(self):
        assert strip_accents("Pokémon") == "Pokemon"

    def test_handles_multiple_accents(self):
        assert strip_accents("Ángström café") == "Angstrom cafe"

    def test_plain_ascii_unchanged(self):
        assert strip_accents("plain ascii text") == "plain ascii text"

    def test_empty_string(self):
        assert strip_accents("") == ""


class TestNormalizeWhitespace:
    def test_collapses_runs(self):
        assert normalize_whitespace("a   b\t\tc") == "a b c"

    def test_strips_ends(self):
        assert normalize_whitespace("  padded  ") == "padded"

    def test_newlines_become_spaces(self):
        assert normalize_whitespace("line\nbreak") == "line break"


class TestStripPunctuation:
    def test_separators_become_spaces(self):
        assert strip_punctuation("a-b:c/d") == "a b c d"

    def test_inner_apostrophe_removed(self):
        assert strip_punctuation("director's cut") == "directors cut"

    def test_brackets_removed(self):
        assert strip_punctuation("(2008) [HD]") == " 2008   HD "


class TestNormalize:
    def test_full_title_example(self):
        raw = "  Indiana Jones: and the Kingdom of the Crystal Skull "
        assert normalize(raw) == "indiana jones and the kingdom of the crystal skull"

    def test_lowercases(self):
        assert normalize("Canon EOS 350D") == "canon eos 350d"

    def test_idempotent(self):
        once = normalize("Madagascar: Escape 2 Africa!")
        assert normalize(once) == once

    def test_accents_and_case_together(self):
        assert normalize("Amélie: Le Film") == "amelie le film"

    def test_empty_input(self):
        assert normalize("") == ""

    def test_punctuation_only(self):
        assert normalize(":-()[]") == ""
