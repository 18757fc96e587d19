"""Overlap scores, skip statistics, and time-per-token measurement."""

import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import skiproute.bench as B
import skiproute.metrics as X
from skiproute.errors import ConfigError, DatasetError, ShapeError
from skiproute.model import GenerationResult
from skiproute.router import SkipDecision


# ------------------------------------------------------------------ bleu


def test_bleu1_three_of_four_unigrams():
    assert X.bleu_n("a b c d".split(), "a b x d".split(), 1) == pytest.approx(0.75)


def test_bleu2_frozen_value():
    # unigrams 3/4, bigrams 1/3, no brevity penalty
    got = X.bleu_n("a b x d".split(), "a b c d".split(), 2)
    assert got == pytest.approx((0.75 * (1 / 3)) ** 0.5)


def test_bleu_counts_are_clipped():
    assert X.bleu_n("a a a a".split(), "a b".split(), 1) == pytest.approx(0.25)


def test_bleu_brevity_penalty():
    got = X.bleu_n("a b".split(), "a b c d".split(), 1)
    assert got == pytest.approx(np.exp(1 - 4 / 2))


def test_bleu_empty_and_perfect():
    assert X.bleu_n([], "a b".split(), 2) == 0.0
    assert X.bleu_n("a b c".split(), "a b c".split(), 2) == pytest.approx(1.0)


def test_bleu_zero_overlap_at_any_order_zeroes_the_score():
    assert X.bleu_n("x y".split(), "a b".split(), 1) == 0.0
    # unigrams overlap but no bigram does
    assert X.bleu_n("a c".split(), "a b c".split(), 2) == 0.0


def test_bleu_rejects_bad_order():
    with pytest.raises(ConfigError):
        X.bleu_n("a".split(), "a".split(), 0)


def test_bleu_works_on_integer_tokens():
    assert X.bleu_n([97, 98, 99, 100], [97, 98, 120, 100], 1) == pytest.approx(0.75)


@given(st.lists(st.integers(0, 9), max_size=8),
       st.lists(st.integers(0, 9), max_size=8))
def test_scores_are_relabeling_invariant(cand, ref):
    relabel = {t: t + 100 for t in range(10)}
    mapped_c = [relabel[t] for t in cand]
    mapped_r = [relabel[t] for t in ref]
    assert X.bleu_n(cand, ref, 2) == pytest.approx(X.bleu_n(mapped_c, mapped_r, 2))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_scores_are_perfect_on_identity(tokens):
    assert X.bleu_n(tokens, tokens, 1) == pytest.approx(1.0)


# ------------------------------------------------------- skip statistics


def decisions_for(skip_sets, m):
    out = []
    for s in skip_sets:
        rho = tuple(0.25 if i in s else 0.75 for i in range(m))
        out.append(SkipDecision.from_rhos(rho))
    return out


def test_skip_stats_frozen_aggregate():
    stats = X.collect_skip_stats(decisions_for([{0}, {0, 1}, set()], 3))
    assert stats.n_layers == 3
    assert stats.n_prompts == 3
    assert stats.layer_skip_fraction == pytest.approx((2 / 3, 1 / 3, 0.0))
    assert stats.average_skip_fraction == pytest.approx(1 / 3)
    assert stats.margin_min == 0.25


def test_decision_margin_is_the_closest_layer_to_the_threshold():
    d = SkipDecision.from_rhos((0.9, 0.4999, 0.2, 0.5))
    assert d.margin == 0.0  # 0.5 passes, but it sits on the threshold
    d = SkipDecision.from_rhos((0.9, 0.4, 0.62))
    assert d.margin == pytest.approx(0.1)
    stats = X.collect_skip_stats([d, SkipDecision.from_rhos((0.7, 0.45, 0.1))])
    assert stats.margin_min == pytest.approx(0.05)


def test_skip_stats_count_sets_and_margin_quartiles():
    rhos = [(0.9, 0.4), (0.8, 0.3), (0.3, 0.55), (0.6, 0.55), (0.2, 0.7)]
    stats = X.collect_skip_stats([SkipDecision.from_rhos(r) for r in rhos])
    assert stats.n_skip_sets == 3  # {1} twice, {0} twice, no skip once
    margins = [0.1, 0.2, 0.05, 0.05, 0.2]
    assert stats.margin_quartiles == pytest.approx(
        tuple(np.percentile(margins, (25, 50, 75))))
    assert stats.margin_quartiles[1] == pytest.approx(0.1)


def test_skip_stats_average_equals_mean_of_layer_fractions():
    rng = np.random.default_rng(0)
    sets = [set(np.flatnonzero(rng.random(5) < 0.4)) for _ in range(11)]
    stats = X.collect_skip_stats(decisions_for(sets, 5))
    assert stats.average_skip_fraction == float(
        np.mean(stats.layer_skip_fraction))


def test_skip_stats_rejects_empty_and_ragged():
    with pytest.raises(DatasetError):
        X.collect_skip_stats([])
    with pytest.raises(ShapeError):
        X.collect_skip_stats(decisions_for([{0}], 3) + decisions_for([{0}], 4))


def test_decision_log_round_trip_reaggregates_exactly(tmp_path):
    rng = np.random.default_rng(7)
    decisions = []
    for _ in range(9):
        rho = tuple(float(r) for r in rng.random(4))
        decisions.append(SkipDecision.from_rhos(rho))
    path = tmp_path / "decisions.csv"
    X.write_decision_log(str(path), decisions)
    loaded = X.read_decision_log(str(path))
    assert loaded == decisions
    a = X.collect_skip_stats(decisions)
    b = X.collect_skip_stats(loaded)
    assert a == b  # bit-exact, not approximate


def test_decision_log_rejects_junk(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("no,such,header\n1,2,3\n")
    with pytest.raises(DatasetError):
        X.read_decision_log(str(path))
    path.write_text("prompt,rho_0,skip_0\n0,0.25\n")
    with pytest.raises(DatasetError):
        X.read_decision_log(str(path))
    header = "prompt,rho_0,rho_1,skip_0,skip_1\n"
    for row, reason in [("0,abc,0.7,1,0", "not a number"),
                        ("0,0.25,0.7,1,2", "other than 0 or 1"),
                        ("0,0.25,0.7,yes,0", "other than 0 or 1"),
                        ("0,0.25,0.7,0,0", "contradicts"),
                        ("0,0.25,0.7,1,1", "contradicts"),
                        ("0,nan,1.5,1,0", "outside"),
                        ("0,0.25,inf,1,0", "outside"),
                        ("0,-0.5,0.7,1,0", "outside")]:
        path.write_text(header + row + "\n")
        with pytest.raises(DatasetError, match=reason):
            X.read_decision_log(str(path))
    path.write_text(header + "0,0.25,0.5,1,0\n")
    assert X.read_decision_log(str(path)) == [SkipDecision(rho=(0.25, 0.5))]
    path.write_text(header + "0,0.0,1.0,1,0\n")
    assert X.read_decision_log(str(path)) == [SkipDecision(rho=(0.0, 1.0))]


# ------------------------------------------------------------------ tpot


def fake_runner(times_per_call):
    calls = {"n": 0}

    def run():
        idx = min(calls["n"], len(times_per_call) - 1)
        calls["n"] += 1
        return GenerationResult(tokens=[1] * (len(times_per_call[idx]) + 1),
                                decode_times=list(times_per_call[idx]))
    return run, calls


def test_tpot_averages_decode_steps_only():
    run, calls = fake_runner([[0.01, 0.02], [0.02, 0.02], [0.03, 0.01]])
    r = B.measure_tpot({"a": run}, n_runs=3, warmup=0)["a"]
    assert r.per_run == pytest.approx((0.015, 0.02, 0.02))
    assert r.mean == pytest.approx((0.015 + 0.02 + 0.02) / 3)
    assert r.median == pytest.approx(0.02)
    assert r.decode_tokens == 6
    assert calls["n"] == 3


def test_tpot_discards_warmup_runs():
    run, calls = fake_runner([[10.0], [10.0], [0.01], [0.01], [0.01]])
    r = B.measure_tpot({"a": run}, n_runs=3, warmup=2)["a"]
    assert calls["n"] == 5
    assert r.mean == pytest.approx(0.01)


def test_tpot_rejects_zero_decode_steps():
    run, _ = fake_runner([[]])
    with pytest.raises(ConfigError):
        B.measure_tpot({"a": run}, n_runs=1, warmup=0)


def test_tpot_validates_run_counts():
    run, _ = fake_runner([[0.01]])
    with pytest.raises(ConfigError):
        B.measure_tpot({"a": run}, n_runs=0)
    with pytest.raises(ConfigError):
        B.measure_tpot({"a": run}, warmup=-1)


def test_tpot_runs_configurations_in_turn():
    order = []

    def runner(name, step):
        def run():
            order.append(name)
            return GenerationResult(tokens=[1, 1], decode_times=[step])
        return run

    r = B.measure_tpot({"a": runner("a", 0.01), "b": runner("b", 0.03)},
                       n_runs=2, warmup=1)
    assert order == ["a", "b"] * 3
    assert r["a"].per_run == (0.01, 0.01) and r["b"].median == 0.03
    assert r["a"].decode_tokens == r["b"].decode_tokens == 2


def test_latency_report_relative_ratio():
    report = B.LatencyReport({
        "full": B.TpotResult((0.02, 0.04), 0.03, 0.03, 20),
        "routed": B.TpotResult((0.015, 0.015), 0.015, 0.015, 20)})
    assert report.relative("routed", "full") == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        report.relative("missing", "full")


def test_tpot_iqr_from_fake_decode_times(tmp_path):
    # per-run means 0.01 .. 0.05: quartiles 0.02 and 0.04
    run, _ = fake_runner([[t, t] for t in (0.03, 0.01, 0.05, 0.02, 0.04)])
    r = B.measure_tpot({"full": run}, n_runs=5, warmup=0)["full"]
    assert r.median == pytest.approx(0.03)
    assert r.iqr == pytest.approx(0.02)
    assert B.TpotResult((0.02,), 0.02, 0.02, 10).iqr == 0.0
    report = B.LatencyReport({"full": r})
    path = tmp_path / "latency.csv"
    B.write_latency_csv(str(path), report, baseline="full")
    with open(path, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["iqr_tpot"]) == r.iqr


def test_latency_csv(tmp_path):
    report = B.LatencyReport({"full": B.TpotResult((0.02,), 0.02, 0.02, 10),
                              "routed": B.TpotResult((0.01,), 0.01, 0.01, 10)})
    path = tmp_path / "latency.csv"
    B.write_latency_csv(str(path), report, baseline="full")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "method"
    assert rows[0][-1] == "relative_to_full"
    by_name = {r[0]: r for r in rows[1:]}
    assert float(by_name["routed"][-1]) == pytest.approx(0.5)
    assert float(by_name["full"][-1]) == pytest.approx(1.0)
