"""``tools/ab.py``: the A/B rules on fixed synthetic samples.

A claim needs at least 10 pairs, the change better in at least nine
tenths of all pairs run, ties counting for neither and a pair with a
failed side (value None) for no win, a median gap larger than the
parent's interquartile range, and no more failed change runs than parent
runs; every metric is held to its bound in its bad direction.  The samples here are fixed, so each case sits on one
side of one rule.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _pairs(change):
    return list(zip(PARENT, change))


def test_quartiles_are_inclusive():
    s = ab.summary(range(1, 11))
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (5.5, 3.25, 7.75, 10)
    assert ab.summary([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}


def test_ten_wins_and_a_gap_past_the_iqr_make_a_claim():
    got = ab.compare(_pairs([p * 0.9 for p in PARENT]), "lower", 0.15)
    assert got["change_better_pairs"] == "10/10"
    assert got["median_gap_exceeds_parent_iqr"] and got["claimable"]
    assert got["relative_change"] == pytest.approx(-0.1)
    assert got["within_bound"] and got["resolved"]


def test_eight_wins_in_ten_make_no_claim():
    change = [p * 0.9 for p in PARENT[:8]] + [p * 1.01 for p in PARENT[8:]]
    got = ab.compare(_pairs(change), "lower", 0.15)
    assert got["change_better_pairs"] == "8/10"
    assert got["median_gap_exceeds_parent_iqr"] and not got["claimable"]


def test_nine_wins_in_ten_make_a_claim_and_ties_count_for_neither():
    change = [p * 0.9 for p in PARENT[:9]] + [PARENT[9]]
    got = ab.compare(_pairs(change), "lower", 0.15)
    assert got["change_better_pairs"] == "9/10" and got["claimable"]
    change[8] = PARENT[8]                   # a second tie: 8 wins
    assert not ab.compare(_pairs(change), "lower", 0.15)["claimable"]


def test_nine_pairs_are_too_few_and_twenty_need_eighteen_wins():
    nine = ab.compare(_pairs([p * 0.9 for p in PARENT])[:9], "lower", 0.15)
    assert nine["change_better_pairs"] == "9/9" and not nine["claimable"]
    twenty = PARENT + PARENT
    change = [p * 0.9 for p in twenty]
    for worse, claimable in ((2, True), (3, False)):
        for k in range(worse):
            change[k] = twenty[k] * 1.01
        assert ab.compare(list(zip(twenty, change)), "lower", 0.15)["claimable"] is claimable


def test_a_gap_inside_the_parent_iqr_makes_no_claim():
    got = ab.compare(_pairs([p - 0.005 for p in PARENT]), "lower", 0.15)
    assert got["change_better_pairs"] == "10/10"
    assert not got["median_gap_exceeds_parent_iqr"] and not got["claimable"]


def test_a_worse_change_claims_nothing_and_is_held_to_its_bound():
    slower = ab.compare(_pairs([p * 1.1 for p in PARENT]), "lower", 0.15)
    assert slower["relative_worsening"] == pytest.approx(0.1)
    assert slower["within_bound"] and not slower["claimable"]
    assert not ab.compare(_pairs([p * 1.2 for p in PARENT]), "lower", 0.15)["within_bound"]
    # higher is better: a lower change is a worsening
    fewer = ab.compare(_pairs([p * 0.99 for p in PARENT]), "higher", 0.001)
    assert fewer["relative_worsening"] == pytest.approx(0.01)
    assert not fewer["within_bound"] and not fewer["claimable"]


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    wide = [1.0, 2.0, 0.5, 1.5, 0.8, 1.2, 0.6, 1.9, 1.1, 0.7]
    got = ab.compare(list(zip(wide, [x * 1.01 for x in wide])), "lower", 0.15)
    assert got["within_bound"] and not got["resolved"]
    got = ab.compare(list(zip(wide, [0.1] * 10)), "lower", 0.15)
    assert got["resolved"] and got["claimable"]


def test_failed_runs_lose_their_pairs_and_void_a_claim():
    twelve = PARENT + PARENT[:2]
    change = [p * 0.9 for p in twelve]
    change[3] = change[7] = None            # 10 wins in 12 pairs run
    got = ab.compare(list(zip(twelve, change)), "lower", 0.15)
    assert got["change_better_pairs"] == "10/12"
    assert got["failed_runs"] == {"parent": 0, "change": 2}
    assert got["change"]["n"] == 10 and got["median_gap_exceeds_parent_iqr"]
    assert not got["claimable"]
    twenty = PARENT + PARENT
    change = [p * 0.9 for p in twenty]
    change[0] = None                        # 19 wins in 20, one change failure
    assert not ab.compare(list(zip(twenty, change)), "lower", 0.15)["claimable"]
    parent = list(twenty)
    parent[1] = None                        # as many parent failures: 18 wins
    assert ab.compare(list(zip(parent, change)), "lower", 0.15)["claimable"]
    got = ab.compare(list(zip(PARENT, [None] * 10)), "lower", 0.15)
    assert got["change_better_pairs"] == "0/10"
    assert not got["within_bound"] and not got["claimable"]


def test_a_failed_run_counts_among_the_pairs_of_its_workload():
    spec = {"end_to_end": [{"name": "certify_cal_p50", "better": "lower", "bound": 0.15}]}

    def run(side, seed, value, rc=0):
        metrics = {"certify_cal_p50": {"value": value}}
        record = {"figures": {"certify_ms_p50": {"value": 2 * value}}}
        return {"side": side, "workload": "w", "seed": seed, "trace": 0, "rc": rc,
                "result": {"correct": True, "metrics": metrics}, "record": record}

    runs = [r for k, p in enumerate(PARENT)
            for r in (run("parent", k, p), run("change", k, p * 0.9, rc=int(k == 4)))]
    got = ab.end_to_end(runs, spec)["w"]["certify_cal_p50"]
    assert got["change_better_pairs"] == "9/10"
    assert got["failed_runs"] == {"parent": 0, "change": 1}
    assert got["per_pair"][4] == {"seed": 4, "parent": PARENT[4], "change": None}
    assert (got["raw_ms"]["parent"]["n"], got["raw_ms"]["change"]["n"]) == (10, 9)
    assert not got["claimable"]


def test_raw_figures_sit_beside_the_calibrated_ones():
    assert ab.raw_name("certify_cal_p50") == "certify_ms_p50"
    assert ab.raw_name("replay_cal_p50") == "replay_ms_p50"
    assert ab.raw_name("peak_rss_mb") is None


def test_seeds_of_earlier_bench_files_are_known(tmp_path):
    (tmp_path / "BENCH_1.json").write_text(json.dumps(
        {"runs": [{"seed": 7, "result": {"seed": "x"}}, {"seed": 0}], "protocol": {"seed": 99}}))
    (tmp_path / "BENCH_2.json").write_text(json.dumps({"bench": "BENCH_2"}))
    assert ab.used_seeds(tmp_path) == {0, 7}
