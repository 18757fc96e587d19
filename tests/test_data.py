import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skiproute import tokenizer as tok
from skiproute.data import (Batch, TaskSpec, encode_batch, generate_dataset,
                            iter_minibatches, seeded_streams, task_response)
from skiproute.errors import DatasetError, VocabularyError


class TestTokenizer:
    def test_round_trip(self):
        for x in (b"", b"hello", bytes(range(256))):
            assert tok.detokenize(tok.frame_prompt(x)) == x

    @given(st.binary(max_size=64))
    def test_round_trip_property(self, x):
        assert tok.detokenize(tok.frame_prompt(x)) == x

    def test_detokenize_drops_specials(self):
        assert tok.detokenize([tok.BOS, 104, tok.PAD, 105, tok.SEP, tok.EOS]) == b"hi"

    def test_out_of_range_id(self):
        with pytest.raises(VocabularyError):
            tok.detokenize([260])
        with pytest.raises(VocabularyError):
            tok.detokenize([-1])

    def test_framing(self):
        assert tok.frame_prompt(b"a") == [tok.BOS, 97, tok.SEP]
        assert tok.frame_pair(b"a", b"bc") == [tok.BOS, 97, tok.SEP, 98, 99, tok.EOS]

    def test_vocab_layout(self):
        assert (tok.BOS, tok.EOS, tok.PAD, tok.SEP) == (256, 257, 258, 259)
        assert tok.VOCAB_SIZE == 260


class TestTasks:
    def test_copy_and_reverse(self):
        assert task_response("copy", b"abc") == b"abc"
        assert task_response("reverse", b"abc") == b"cba"

    def test_caesar_shift(self):
        assert task_response("caesar-translate", b"abc") == b"def"

    def test_caesar_wraps_mod_256(self):
        assert task_response("caesar-translate", bytes([254, 255])) == bytes([1, 2])

    def test_unknown_kind(self):
        with pytest.raises(DatasetError):
            TaskSpec(kind="sort")


class TestGeneration:
    SPEC = TaskSpec(kind="copy", min_len=3, max_len=6, n_train=40, n_val=10, n_test=10, seed=5)

    def test_deterministic(self):
        assert generate_dataset(self.SPEC) == generate_dataset(self.SPEC)

    def test_seed_changes_corpus(self):
        other = TaskSpec(kind="copy", min_len=3, max_len=6, n_train=40, n_val=10, n_test=10, seed=6)
        assert generate_dataset(self.SPEC) != generate_dataset(other)

    def test_split_sizes_and_disjointness(self):
        train, val, test = generate_dataset(self.SPEC)
        assert (len(train), len(val), len(test)) == (40, 10, 10)
        sets = [set(p for p, _ in split) for split in (train, val, test)]
        assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])

    def test_capacity_guard(self):
        tiny = TaskSpec(kind="copy", min_len=1, max_len=1, n_train=25, n_val=1, n_test=1)
        with pytest.raises(DatasetError):
            generate_dataset(tiny)

    def test_exhaustive_single_length_is_fine(self):
        full = TaskSpec(kind="copy", min_len=1, max_len=1, n_train=24, n_val=1, n_test=1)
        train, val, test = generate_dataset(full)
        payloads = {p for p, _ in train} | {p for p, _ in val} | {p for p, _ in test}
        assert len(payloads) == 26

    def test_summarize_embeds_key(self):
        spec = TaskSpec(kind="templated-summarize", min_len=3, max_len=5,
                        n_train=8, n_val=2, n_test=2, seed=1)
        for split in generate_dataset(spec):
            for prompt, response in split:
                assert b"<" + response + b">" in prompt
                assert prompt != response

    def test_responses_match_task(self):
        spec = TaskSpec(kind="caesar-translate", min_len=3, max_len=5,
                        n_train=8, n_val=2, n_test=2, seed=2)
        for split in generate_dataset(spec):
            for prompt, response in split:
                assert response == task_response("caesar-translate", prompt)


class TestBatchEncoding:
    def test_layout_and_masks(self):
        batch = encode_batch([(b"ab", b"cd"), (b"x", b"y")])
        assert isinstance(batch, Batch)
        np.testing.assert_array_equal(
            batch.tokens[0], [tok.BOS, 97, 98, tok.SEP, 99, 100, tok.EOS])
        np.testing.assert_array_equal(
            batch.tokens[1], [tok.BOS, 120, tok.SEP, 121, tok.EOS, tok.PAD, tok.PAD])
        np.testing.assert_array_equal(batch.attn[0], [1, 1, 1, 1, 1, 1, 1])
        np.testing.assert_array_equal(batch.attn[1], [1, 1, 1, 1, 1, 0, 0])
        np.testing.assert_array_equal(batch.prompt_mask[0], [1, 1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(batch.prompt_mask[1], [1, 1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(batch.response_mask[0], [0, 0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(batch.response_mask[1], [0, 0, 0, 1, 1, 0, 0])

    def test_masks_partition_valid_positions(self):
        batch = encode_batch([(b"abc", b"de"), (b"q", b"rstu")])
        np.testing.assert_array_equal(batch.prompt_mask + batch.response_mask, batch.attn)

    def test_length_limit(self):
        with pytest.raises(DatasetError):
            encode_batch([(b"abcd", b"efgh")], max_seq=8)

    def test_empty_batch(self):
        with pytest.raises(DatasetError):
            encode_batch([])

    def test_minibatches_cover_everything(self):
        pairs = [(bytes([97 + i]), bytes([98 + i])) for i in range(10)]
        batches = list(iter_minibatches(pairs, 4, np.random.default_rng(0)))
        assert [b.tokens.shape[0] for b in batches] == [4, 4, 2]
        seen = {bytes([int(row[1])]) for b in batches for row in b.tokens}
        assert seen == {p for p, _ in pairs}


class TestSeededStreams:
    def test_reproducible_and_independent(self):
        a = seeded_streams(9, ["init", "train"])
        b = seeded_streams(9, ["init", "train"])
        assert a["init"].integers(0, 1000, 5).tolist() == b["init"].integers(0, 1000, 5).tolist()
        assert a["train"].integers(0, 1000, 5).tolist() != a["init"].integers(0, 1000, 5).tolist()
