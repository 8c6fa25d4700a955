"""Tests for repro.text.normalize."""

from repro.text.normalize import normalize, strip_accents


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
        assert normalize("a   b\t\tc") == "a b c"

    def test_strips_ends(self):
        assert normalize("  padded  ") == "padded"

    def test_newlines_become_spaces(self):
        assert normalize("line\nbreak") == "line break"


class TestStripPunctuation:
    def test_separators_become_spaces(self):
        assert normalize("a-b:c/d") == "a b c d"

    def test_inner_apostrophe_removed(self):
        assert normalize("director's cut") == "directors cut"

    def test_brackets_removed(self):
        assert normalize("(2008) [HD]") == "2008 hd"

    def test_symbols_separate_words(self):
        assert normalize("AT&T") == "at t"
        assert normalize("C++ Primer") == "c primer"
        assert normalize("snake_case") == "snake case"

    def test_letters_of_any_script_are_words(self):
        assert normalize("Фильм 0001") == "фильм 0001"
        assert normalize("日本") == "日本"


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
