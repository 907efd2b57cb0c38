"""Mirror dataset generation, JSONL round trips, and vocabularies."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structran import data


class TestMirrorTarget:
    def test_abc(self):
        assert data.mirror_target(list("abc")) == list("abccba")

    @given(st.lists(st.sampled_from("abcxyz"), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_palindromic_by_construction(self, source):
        target = data.mirror_target(source)
        assert target == target[::-1] or source != source[::-1]
        assert target[:len(source)] == list(source)
        assert target[len(source):] == list(reversed(source))


class TestSetupA:
    def test_split_sizes(self):
        splits = data.generate_mirror_A(seed=0)
        assert [len(splits[k]) for k in ("train", "dev", "test")] == [4000, 200, 1000]

    def test_length_ranges(self):
        splits = data.generate_mirror_A(seed=3)
        assert all(3 <= len(e.source) <= 9 for e in splits["train"])
        assert all(len(e.source) == 10 for e in splits["dev"])
        assert all(11 <= len(e.source) <= 20 for e in splits["test"])

    def test_every_pair_mirrors(self):
        splits = data.generate_mirror_A(seed=5)
        for split in splits.values():
            for e in split:
                assert e.target == data.mirror_target(e.source)

    def test_alphabet_is_eleven_symbols(self):
        splits = data.generate_mirror_A(seed=1)
        seen = {t for e in splits["train"] for t in e.source}
        assert seen <= set("abcdefghijk")

    def test_same_seed_same_data(self):
        a = data.generate_mirror_A(seed=9)
        b = data.generate_mirror_A(seed=9)
        assert a == b

    def test_different_seed_different_data(self):
        a = data.generate_mirror_A(seed=1)
        b = data.generate_mirror_A(seed=2)
        assert a != b


class TestSetupB:
    def test_split_sizes(self):
        splits = data.generate_mirror_B(seed=0)
        assert [len(splits[k]) for k in ("train", "dev", "test")] == [4000, 200, 1000]

    def test_training_clusters_are_complete(self):
        splits = data.generate_mirror_B(seed=2)
        for name in ("train", "dev"):
            for e in splits[name]:
                assert not data.has_free_cluster_symbol(e.source), e.source

    def test_clusters_do_appear_in_training(self):
        splits = data.generate_mirror_B(seed=2)
        with_cluster = sum("x" in e.source for e in splits["train"])
        assert with_cluster > 200

    def test_test_split_breaks_the_cluster_pattern(self):
        splits = data.generate_mirror_B(seed=2)
        for e in splits["test"]:
            assert data.has_free_cluster_symbol(e.source), e.source

    def test_free_symbol_detector(self):
        assert data.has_free_cluster_symbol(list("ayb"))
        assert data.has_free_cluster_symbol(list("xyzx"))
        assert not data.has_free_cluster_symbol(list("xyzab"))
        assert not data.has_free_cluster_symbol(list("abc"))

    def test_free_single_symbol_still_mirrors(self):
        splits = data.generate_mirror_B(seed=4)
        e = splits["test"][0]
        assert e.target == data.mirror_target(e.source)

    def test_same_seed_same_data(self):
        assert data.generate_mirror_B(seed=7) == data.generate_mirror_B(seed=7)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        examples = data.generate_mirror_A(seed=0)["dev"][:20]
        path = tmp_path / "dev.jsonl"
        data.write_jsonl(path, examples)
        assert data.read_jsonl(path) == examples

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert data.read_jsonl(path) == []

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "dos.jsonl"
        line = json.dumps({"source": ["a", "b"], "target": ["a", "b", "b", "a"]})
        path.write_bytes((line + "\r\n" + line + "\r\n").encode())
        examples = data.read_jsonl(path)
        assert len(examples) == 2
        assert examples[0].source == ["a", "b"]

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"source": ["a"], "target": ["a", "a"]}\n{oops\n')
        with pytest.raises(data.DatasetError, match="line 2"):
            data.read_jsonl(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"source": ["a"]}\n')
        with pytest.raises(data.DatasetError):
            data.read_jsonl(path)

    def test_empty_sequence_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"source": [], "target": ["a"]}\n')
        with pytest.raises(data.DatasetError, match="empty"):
            data.read_jsonl(path)

    @pytest.mark.parametrize("line", [
        '{"source": "abc", "target": ["a"]}',  # a string is not split
        '{"source": 5, "target": ["a"]}',
        '{"source": ["a"], "target": null}',
        '{"source": [["a"]], "target": ["a"]}',
        '{"source": [true, "a"], "target": ["a"]}',
        '["a", "b"]',
    ])
    def test_field_that_is_not_an_array_reports_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"source": ["a"], "target": ["a", "a"]}\n\n' + line + "\n")
        with pytest.raises(data.DatasetError,
                           match=r"bad\.jsonl: line 3: .*JSON array"):
            data.read_jsonl(path)

    def test_read_fields_numbers_the_lines(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"tokens": ["a"]}\n\n{"tokens": [1, "b"], "x": 0}\n')
        assert data.read_fields(path, "tokens") == [(1, ["a"]), (3, ["1", "b"])]

    def test_writes_are_byte_stable(self, tmp_path):
        examples = data.generate_mirror_A(seed=0)["dev"][:50]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        data.write_jsonl(p1, examples)
        data.write_jsonl(p2, examples)
        assert p1.read_bytes() == p2.read_bytes()


class TestVocabulary:
    def test_sorted_construction(self):
        vocab = data.Vocabulary.build([["b", "a"], ["c", "a"]])
        assert vocab.id_to_token == ["a", "b", "c"]

    def test_encode_decode_round_trip(self):
        vocab = data.Vocabulary.build([list("abc")])
        ids = vocab.encode(list("cab"))
        assert vocab.decode(ids) == list("cab")

    def test_unknown_token_rejected(self):
        vocab = data.Vocabulary.build([list("ab")])
        with pytest.raises(data.DatasetError, match="'q'"):
            vocab.encode(["a", "q"])

    def test_build_vocabularies_spans_both_sides(self):
        examples = [data.Example(["a"], ["b", "a"])]
        svoc, tvoc = data.build_vocabularies(examples)
        assert svoc.id_to_token == ["a"]
        assert tvoc.id_to_token == ["a", "b"]

    def test_copy_id_map(self):
        svoc = data.Vocabulary.build([list("ab")])
        tvoc = data.Vocabulary.build([list("bax")])
        np.testing.assert_array_equal(data.copy_id_map(svoc, tvoc), [0, 1])

    def test_copy_id_map_requires_coverage(self):
        svoc = data.Vocabulary.build([list("ab")])
        tvoc = data.Vocabulary.build([list("ax")])
        with pytest.raises(data.DatasetError, match="'b'"):
            data.copy_id_map(svoc, tvoc)

    def test_encode_examples_shapes(self):
        examples = data.generate_mirror_A(seed=0)["dev"][:3]
        svoc, tvoc = data.build_vocabularies(examples)
        pairs = data.encode_examples(examples, svoc, tvoc)
        for (src, tgt), e in zip(pairs, examples):
            assert src.shape == (len(e.source),)
            assert tgt.shape == (len(e.target),)
            assert svoc.decode(src) == e.source

