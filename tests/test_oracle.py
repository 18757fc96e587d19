"""Subsequence interpreter, exhaustive search, and the spaced baseline."""

import csv
import math
from itertools import combinations

import numpy as np
import pytest

import skiproute.model as M
import skiproute.oracle as O
import skiproute.tensor as T
from skiproute.errors import ConfigError, EnumerationLimitError, ShapeError
from skiproute.tokenizer import EOS, frame_prompt


def small_model(n_layers=4, d_model=8, seed=0):
    config = M.ModelConfig(n_layers=n_layers, d_model=d_model, n_heads=2,
                           d_ff=16, max_seq=32)
    return config, M.init_model(config, np.random.default_rng(seed))


def table_quality(table, default=0.0):
    """Quality function backed by a dict keyed on the frozen skip set."""
    def quality(skip_set):
        return table.get(frozenset(skip_set), default)
    return quality


# ------------------------------------------------------------------ anc


def test_anc_with_everything_included_is_previous_layer():
    include = list(range(6))
    for i in range(1, 6):
        assert O.anc(include, i) == i - 1


def test_anc_jumps_over_a_dropped_run():
    # layers i and i+1 missing: i+2 connects straight back to i-1
    include = [0, 1, 4, 5]
    assert O.anc(include, 4) == 1
    assert O.anc(include, 5) == 4


def test_anc_with_nothing_below_is_embedding_level():
    assert O.anc([3, 5], 3) == O.EMBEDDING_LEVEL
    assert O.anc([], 0) == O.EMBEDDING_LEVEL
    assert O.EMBEDDING_LEVEL == -1


# ------------------------------------------- subsequence interpreter


def test_every_subsequence_matches_the_skipping_forward_bitwise():
    config, weights = small_model()
    tokens = np.array([[256, 97, 98, 99, 259], [256, 100, 101, 102, 259]])
    all_layers = range(config.n_layers)
    for k in range(config.n_layers + 1):
        for include in combinations(all_layers, k):
            skip = frozenset(all_layers) - frozenset(include)
            got = O.subsequence_forward(config, weights, tokens, include)
            want = M.forward_full(config, weights, tokens, skip_set=skip)
            np.testing.assert_array_equal(got.data, want.data)


def test_subsequence_with_mask_matches_too():
    config, weights = small_model(seed=3)
    tokens = np.array([[256, 97, 259, 258, 258]])
    mask = np.array([[1, 1, 1, 0, 0]])
    got = O.subsequence_forward(config, weights, tokens, [0, 2], attn_mask=mask)
    want = M.forward_full(config, weights, tokens, skip_set={1, 3}, attn_mask=mask)
    np.testing.assert_array_equal(got.data, want.data)


def test_subsequence_rejects_out_of_range_layers():
    config, weights = small_model()
    tokens = np.array([[256, 97, 259]])
    with pytest.raises(ConfigError):
        O.subsequence_forward(config, weights, tokens, [0, 4])
    with pytest.raises(ConfigError):
        O.subsequence_forward(config, weights, tokens, [-1])


def test_subsequence_rejects_blocks_past_max_seq():
    # no layer runs, but positions past max_seq have no rotary rows either
    config = M.ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16, max_seq=16)
    weights = M.init_model(config, np.random.default_rng(0))
    tokens = np.random.default_rng(1).integers(0, config.vocab_size, size=(1, 20))
    with pytest.raises(ShapeError, match="exceeds max_seq 16"):
        O.subsequence_forward(config, weights, tokens, [])


# --------------------------------------------------- exhaustive search


def test_oracle_refuses_too_many_layers():
    def never(_):
        raise AssertionError("should not be called")
    with pytest.raises(EnumerationLimitError):
        O.brute_force_oracle(17, never, 0.0)
    with pytest.raises(ConfigError):
        O.brute_force_oracle(0, never, 0.0)
    with pytest.raises(ConfigError):
        O.brute_force_oracle(4, never, 1.5)


def test_full_tolerance_returns_the_empty_subsequence():
    q = table_quality({frozenset(): 1.0}, default=0.0)
    result = O.brute_force_oracle(3, q, 1.0)
    assert result.winner.include == ()
    assert result.winner.layers_used == 0


def test_winner_is_smallest_feasible_subset():
    # only layer 2 is droppable without loss
    table = {frozenset(): 1.0, frozenset({2}): 1.0}
    result = O.brute_force_oracle(3, table_quality(table), 0.0)
    assert result.winner.include == (0, 1)
    assert result.winner.quality == 1.0
    assert result.full_quality == 1.0
    assert result.evaluated == 8


def test_winner_prefers_higher_quality_then_lex_order():
    table = {frozenset(): 1.0,
             frozenset({0}): 0.9,    # include (1, 2)
             frozenset({1}): 0.95,   # include (0, 2)
             frozenset({2}): 0.95}   # include (0, 1)
    result = O.brute_force_oracle(3, table_quality(table, default=0.2), 0.1)
    # two candidates tie at 0.95; (0, 1) sorts before (0, 2)
    assert result.winner.include == (0, 1)
    assert result.winner.quality == 0.95


def test_winner_ignores_feasible_sets_that_are_larger():
    table = {frozenset(): 1.0, frozenset({1}): 1.0, frozenset({2}): 0.96}
    result = O.brute_force_oracle(3, table_quality(table, default=0.0), 0.05)
    assert result.winner.layers_used == 2
    assert result.winner.include == (0, 2)


def test_nothing_feasible_falls_back_to_full_depth():
    # negative full quality makes even the full set miss the threshold
    q = table_quality({frozenset(): -2.0}, default=-3.0)
    result = O.brute_force_oracle(3, q, 0.5)
    assert result.threshold == pytest.approx(-1.0)
    assert result.winner.include == (0, 1, 2)
    assert result.winner.quality == -2.0


def test_pareto_front_improves_strictly_with_depth():
    table = {frozenset({0, 1, 2}): 0.1,  # 0 layers
             frozenset({1, 2}): 0.4, frozenset({0, 2}): 0.3,
             frozenset({0, 1}): 0.2,
             frozenset({2}): 0.4, frozenset({1}): 0.7, frozenset({0}): 0.6,
             frozenset(): 1.0}
    result = O.brute_force_oracle(3, table_quality(table), 0.0)
    ks = [e.layers_used for e in result.pareto]
    qs = [e.quality for e in result.pareto]
    assert ks == sorted(ks)
    assert all(b > a for a, b in zip(qs, qs[1:]))
    # depth 1's best (0.4) ties depth 0's 0.4? no: depth 0 scored 0.1
    assert (1, 0.4) in [(e.layers_used, e.quality) for e in result.pareto]
    # depth 2 best 0.7 and full 1.0 both survive
    assert qs[-1] == 1.0
    # a depth whose best only ties a shallower one is dominated
    flat = {frozenset({0, 1}): 0.5, frozenset({0}): 0.5, frozenset({1}): 0.5,
            frozenset(): 0.5, frozenset({0, 1, 2}): 0.0, frozenset({2}): 0.5,
            frozenset({1, 2}): 0.5, frozenset({0, 2}): 0.5}
    r2 = O.brute_force_oracle(3, table_quality(flat), 0.0)
    assert [e.layers_used for e in r2.pareto] == [0, 1]


@pytest.mark.parametrize("seed", range(5))
def test_winner_depth_never_grows_as_tolerance_loosens(seed):
    rng = np.random.default_rng(seed)
    m = 4
    table = {}
    for k in range(m + 1):
        for combo in combinations(range(m), k):
            skip = frozenset(range(m)) - frozenset(combo)
            table[skip] = float(rng.uniform(0.0, 1.0))
    q = table_quality(table)
    depths = [O.brute_force_oracle(m, q, eps).winner.layers_used
              for eps in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)]
    assert all(b <= a for a, b in zip(depths, depths[1:]))


def test_oracle_counts_every_subset_once():
    calls = []

    def q(skip_set):
        calls.append(frozenset(skip_set))
        return 1.0
    result = O.brute_force_oracle(3, q, 0.5)
    assert result.evaluated == 8
    # the full set first, then the subsets by size and lexicographically;
    # the full-depth subset reuses the initial full-quality call
    assert calls == [frozenset(), frozenset({0, 1, 2}), frozenset({1, 2}),
                     frozenset({0, 2}), frozenset({0, 1}), frozenset({2}),
                     frozenset({1}), frozenset({0})]


# ------------------------------------------------------------ csv dump


def test_oracle_csv_lists_pareto_then_winner(tmp_path):
    table = {frozenset(): 1.0, frozenset({2}): 1.0}
    result = O.brute_force_oracle(3, table_quality(table), 0.0)
    path = tmp_path / "oracle.csv"
    O.write_oracle_csv(str(path), result)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["role", "include_mask", "layers_used", "quality"]
    assert rows[-1][0] == "winner"
    assert rows[-1][1] == "110"
    assert all(len(r[1]) == 3 for r in rows[1:])
    pareto_rows = [r for r in rows[1:] if r[0] == "pareto"]
    assert len(pareto_rows) == len(result.pareto)


# ------------------------------------------------- model-backed quality


def test_golden_quality_is_one_at_full_depth():
    config, weights = small_model(seed=5)
    prompts = [frame_prompt(b"abc"), frame_prompt(b"xy")]
    q = O.golden_exact_match(config, weights, prompts, max_new_tokens=6)
    assert q(frozenset()) == 1.0
    partial = q(frozenset({1, 2}))
    assert 0.0 <= partial <= 1.0


def test_zeroed_layer_is_free_to_skip_at_zero_tolerance():
    config, weights = small_model(n_layers=3, seed=7)
    # silence layer 1: both residual writes project through zero matrices
    weights.layers[1].wo.data[:] = 0.0
    weights.layers[1].w_down.data[:] = 0.0
    prompts = [frame_prompt(b"abc"), frame_prompt(b"de")]
    q = O.golden_exact_match(config, weights, prompts, max_new_tokens=5)
    assert q(frozenset({1})) == 1.0
    result = O.brute_force_oracle(config.n_layers, q, 0.0)
    assert 1 not in result.winner.include
    assert result.winner.layers_used <= 2


def test_dataset_quality_is_deterministic_and_bounded():
    config, weights = small_model(seed=9)
    pairs = [(b"abc", b"abc"), (b"xy", b"xy")]
    q = O.dataset_exact_match(config, weights, pairs, max_new_tokens=6)
    a = q(frozenset())
    assert 0.0 <= a <= 1.0
    assert q(frozenset()) == a
    with pytest.raises(ConfigError):
        O.dataset_exact_match(config, weights, [], 6)


def test_negative_perplexity_matches_manual_cross_entropy():
    config, weights = small_model(seed=11)
    pairs = [(b"abc", b"abc"), (b"de", b"ed")]
    q = O.negative_perplexity(config, weights, pairs, max_seq=32)
    got = q(frozenset())

    from skiproute.data import encode_batch
    batch = encode_batch(pairs, 32)
    logits = M.forward_full(config, weights, batch.tokens[:, :-1],
                            attn_mask=batch.attn[:, :-1])
    ce = T.cross_entropy(logits, batch.tokens[:, 1:],
                         (batch.response_mask[:, 1:] == 0).astype(np.uint8))
    assert got == pytest.approx(-math.exp(ce.item()), rel=1e-6)
    assert got < 0.0


# ------------------------------------------------------ spaced baseline


def test_spacing_matches_frozen_example():
    assert O.unified_retained_layers(8, 4) == frozenset({0, 2, 5, 7})


def test_spacing_keeps_ends_and_counts():
    for m, k in [(12, 10), (12, 2), (9, 5), (6, 3)]:
        kept = O.unified_retained_layers(m, k)
        assert len(kept) == k
        assert 0 in kept and (m - 1) in kept


def test_spacing_rounds_half_up():
    # 6 layers keeping 3: midpoint lands on 2.5 and must go UP to 3
    assert O.unified_retained_layers(6, 3) == frozenset({0, 3, 5})


def test_spacing_full_retention_is_identity():
    assert O.unified_retained_layers(5, 5) == frozenset(range(5))


def test_spacing_rejects_out_of_range_counts():
    with pytest.raises(ConfigError):
        O.unified_retained_layers(8, 1)
    with pytest.raises(ConfigError):
        O.unified_retained_layers(8, 9)


def test_skip_layers_complement():
    assert O.unified_skip_layers(12, 10) == frozenset({3, 8})
    assert O.unified_skip_layers(8, 4) == frozenset({1, 3, 4, 6})
