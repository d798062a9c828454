"""Presentation file format: schema, round trips, packaged fixtures, and
malformed input, which may only end in FileFormatError or
PresentationError."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from nilpc import files
from nilpc.cli import main
from nilpc.deformation import abdef, adapt_basis
from nilpc.presentation import PresentationError

from groups_def import ALL_CONSISTENT, mutated_ut5, zg, zk


class TestRoundTrip:
    def test_every_fixture_round_trips(self):
        for make in ALL_CONSISTENT:
            p = make()
            assert files.parse(files.emit(p)) == p

    def test_deformation_output_round_trips(self):
        out = abdef(adapt_basis(zg()), (3,), ((-1,),)).pres
        assert files.parse(files.emit(out)) == out

    def test_emit_is_deterministic(self):
        p = zg()
        assert files.emit(p) == files.emit(zg())


class TestPackagedFixtures:
    def test_names(self):
        assert files.fixture_names() == (
            "F23", "HEIS", "HEIS_MUTATED", "NR", "ZG", "ZH", "ZK")

    def test_heis_loads(self):
        p = files.load_fixture("HEIS")
        assert p.m == 3

    def test_zk_power_tail(self):
        p = files.load_fixture("ZK")
        assert dict(p.powers)[4] == ((5, 2),)
        q = zk()
        assert (p.periods, p.powers, p.commutators) == (
            q.periods, q.powers, q.commutators)

    def test_fixture_files_are_emit_output(self):
        for name in files.fixture_names():
            p = files.load_fixture(name, check=False)
            from importlib import resources
            text = (resources.files("nilpc") / "fixtures"
                    / f"{name}.json").read_text(encoding="utf-8")
            assert files.emit(p) == text

    def test_mutated_fixture_fails_check(self):
        with pytest.raises(PresentationError):
            files.load_fixture("HEIS_MUTATED")
        p = files.load_fixture("HEIS_MUTATED", check=False)
        assert p.period(1) == 2

    def test_load_names_the_first_rejected_layer(self, tmp_path):
        # the proof rejects layer 4 first; the overlaps the reference also
        # finds at layers 3 and 1 are not named
        path = tmp_path / "UT_5.json"
        files.save(mutated_ut5(), str(path))
        message = ("UT_5 mutated: inconsistent presentation, first failing "
                   "overlap kind=triple at (j=5, i=4, k=7)")
        with pytest.raises(PresentationError, match=re.escape(message)):
            files.load(str(path))

    def test_unknown_fixture(self):
        with pytest.raises(files.FileFormatError):
            files.load_fixture("NOPE")


class TestSchemaErrors:
    def test_period_one_rejected(self):
        text = ('{"name": "bad", "rank": 1, "periods": [1], '
                '"powers": {}, "commutators": {}}')
        with pytest.raises(PresentationError):
            files.parse(text)

    def test_missing_field(self):
        with pytest.raises(files.FileFormatError):
            files.parse('{"name": "x", "rank": 0}')

    def test_bad_tail_shape(self):
        text = ('{"name": "bad", "rank": 2, "periods": [0, 0], '
                '"powers": {}, "commutators": {"2,1": [[3]]}}')
        with pytest.raises(files.FileFormatError):
            files.parse(text)

    def test_bad_commutator_key(self):
        text = ('{"name": "bad", "rank": 2, "periods": [0, 0], '
                '"powers": {}, "commutators": {"1,2": []}}')
        with pytest.raises(files.FileFormatError):
            files.parse(text)

    def test_not_json(self):
        with pytest.raises(files.FileFormatError):
            files.parse("{nope")

    @pytest.mark.parametrize("text", [
        '{"name": "B", "rank": true, "periods": [false], "powers": {}, '
        '"commutators": {}}',
        '{"name": "B", "rank": 1, "periods": [false], "powers": {}, '
        '"commutators": {}}',
        '{"name": "B", "rank": 2, "periods": [0, 0], "powers": {}, '
        '"commutators": {"2,1": [[true, 1]]}}',
        '{"name": "B", "rank": 2, "periods": [0, 0], "powers": {}, '
        '"commutators": {"2,1": [[2, false]]}}',
    ])
    def test_booleans_are_not_integers(self, text):
        # json loads true and false as bools, which isinstance counts as int
        with pytest.raises(files.FileFormatError):
            files.parse(text)

    def test_tail_repeating_a_generator(self):
        text = ('{"name": "bad", "rank": 3, "periods": [0, 0, 0], '
                '"powers": {}, "commutators": {"2,1": [[3, 1], [3, 1]]}}')
        with pytest.raises(PresentationError):
            files.parse(text, check=False)


DEEP = "[" * 100000 + "]" * 100000


class TestReadText:
    """read_text decodes the file's bytes once; text mode is its reference
    for the text, and the messages are those text mode gave."""

    @pytest.mark.parametrize("data", [
        b"a\r\nb\rc\n\r\r\nd\r", b"\r", b"", "caf\u00e9\r\n".encode()])
    def test_newlines_read_as_in_text_mode(self, tmp_path, data):
        path = tmp_path / "t.json"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as fh:
            assert files.read_text(str(path)) == fh.read()

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_json_error_counts_lines_as_text_mode(self, tmp_path, newline):
        path = tmp_path / "bad.json"
        path.write_bytes(newline.join(
            ["{", '  "name": "X",', "  oops", "}"]).encode())
        with pytest.raises(files.FileFormatError) as exc:
            files.load(str(path))
        assert str(exc.value) == "not valid JSON (line 3, column 3)"

    @pytest.mark.parametrize("data, where", [
        (b'{"name": "caf\xe9"}', "byte 13: invalid continuation byte"),
        (b"\r\n\xff{}", "byte 2: invalid start byte"),
        (b'{"a": "\xe2\x82', "byte 7: unexpected end of data"),
    ])
    def test_bytes_that_are_not_utf8(self, tmp_path, data, where):
        path = tmp_path / "latin1.json"
        path.write_bytes(data)
        with pytest.raises(files.FileFormatError) as exc:
            files.load(str(path))
        assert str(exc.value) == f"{path}: not UTF-8 text ({where})"


class TestMalformedInput:
    @pytest.mark.parametrize("text", [DEEP, "1" * 5000, "[" + "1" * 5000 + "]"])
    def test_json_the_parser_cannot_build(self, text):
        # nesting past the recursion limit, integers past the digit limit
        with pytest.raises(files.FileFormatError):
            files.parse(text)
        with pytest.raises(files.FileFormatError):
            files.parse_hom_map(text, 1)

    def test_cli_exits_2_on_deep_nesting(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        assert main(["check", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20)


@st.composite
def near_presentations(draw):
    """Dicts close to the schema, so that most reach the constructor and
    some the consistency check."""
    rank = draw(st.integers(1, 4))
    pair = st.tuples(st.integers(1, 5), st.integers(-2, 2)).map(list)
    tail = st.sampled_from((True,) * 9 + (False,)).flatmap(
        lambda ok: st.lists(pair, max_size=2) if ok else
        st.lists(st.lists(st.integers(-3, 6), max_size=3), max_size=2))
    d = {
        "name": draw(st.text(max_size=3)),
        "rank": rank,
        "periods": draw(st.lists(st.sampled_from((0, 0, 0, 2, 3, 1, -1)),
                                 min_size=rank, max_size=rank)),
        "powers": draw(st.dictionaries(
            st.sampled_from(("1", "2", "3") * 3 + ("x",)), tail, max_size=2)),
        "commutators": draw(st.dictionaries(
            st.sampled_from(("2,1", "3,1", "3,2", "4,1", "4,2", "4,3") * 3
                            + ("1,2", "2", "a,b")),
            tail, max_size=4)),
    }
    key = draw(st.sampled_from([None] * 10 + sorted(d)))
    if key is not None:
        d[key] = draw(JSON)
    return d


@settings(max_examples=400, deadline=None)
@given(st.one_of(JSON, near_presentations()).map(json.dumps)
       | st.text(max_size=40))
def test_parsers_raise_only_format_or_presentation_errors(text):
    for t in (text, text[:-1]):
        try:
            files.parse(t)
        except (files.FileFormatError, PresentationError):
            pass
        try:
            files.parse_hom_map(t, 2)
        except files.FileFormatError:
            pass


class TestHomMapFiles:
    def test_round_trip(self):
        words = (((1, 1),), ((2, 1), (3, -2)), ())
        text = files.emit_hom_map(words)
        assert files.parse_hom_map(text, 3) == words

    def test_wrong_length(self):
        with pytest.raises(files.FileFormatError):
            files.parse_hom_map("[[[1, 1]]]", 2)

    def test_boolean_letter(self):
        with pytest.raises(files.FileFormatError):
            files.parse_hom_map("[[[true, 1]]]", 1)
