"""The A/B benchmark gate's verdict (``benchmarks/ab.py``) on synthetic runs."""

from __future__ import annotations

from benchmarks.ab import grown_layer, layer_deltas, verdict

END_TO_END = [
    {"name": "campaign_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def result(campaign_s: float, correct: bool = True, failed: int = 0,
           attempted: int = 36) -> dict:
    metrics = {"campaign_s": {"value": campaign_s, "unit": "s"},
               "peak_rss_mb": {"value": 100.0, "unit": "MB"}}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics if correct else {}}


def runs(*campaign_s: float) -> list[dict]:
    return [result(value) for value in campaign_s]


def test_slower_beyond_the_bound_and_lost_the_majority_fails():
    failures, summary = verdict(runs(10, 10, 10, 10, 10), runs(14, 14, 14, 9, 9), END_TO_END)
    assert len(failures) == 1 and failures[0].startswith("campaign_s")
    assert "lost 3/5" in failures[0]
    assert summary["campaign_s"]["worse"] == 0.4


def test_slower_median_but_won_the_majority_passes():
    # the median moved past the bound, but pair by pair the change won 4 of 5
    parent = runs(10, 10, 10, 20, 20)
    change = runs(9, 9, 14, 14, 14)
    failures, summary = verdict(parent, change, END_TO_END)
    assert failures == []
    assert summary["campaign_s"]["worse"] == 0.4 and summary["campaign_s"]["lost"] == 1


def test_within_the_bound_passes():
    failures, summary = verdict(runs(10, 10, 10, 10, 10), runs(12, 12, 12, 12, 12), END_TO_END)
    assert failures == []
    assert summary["campaign_s"]["lost"] == 5 and summary["campaign_s"]["worse"] == 0.2


def test_an_incorrect_run_on_either_side_fails():
    for side in (0, 1):
        pairs = [runs(10, 10, 10, 10, 10), runs(10, 10, 10, 10, 10)]
        pairs[side][2] = result(10, correct=False)
        failures, _ = verdict(*pairs, END_TO_END)
        assert any("runs not correct" in failure for failure in failures), failures


def test_a_higher_failed_share_fails():
    parent = runs(10, 10, 10, 10, 10)
    change = runs(10, 10, 10, 10, 10)
    change[4] = result(10, failed=1)
    failures, _ = verdict(parent, change, END_TO_END)
    assert failures == ["failed share rose from 0.0% to 0.6%"]
    # the same share on both sides is no failure
    parent[0] = result(10, failed=1)
    assert verdict(parent, change, END_TO_END)[0] == []


def test_a_sac_update_blow_up_is_named_as_the_grown_layer():
    layers = {"airdrop.self_s": 4.0, "rl.act_self_s": 1.5,
              "rl.sac_update_self_s": 6.0, "rl.sac_update_calls": 54000.0,
              "cluster.sim_self_s": 0.4}
    parent = {"correct": True, "metrics": {name: {"value": value, "unit": "s"}
                                           for name, value in layers.items()}}
    grown = {**layers, "airdrop.self_s": 4.3, "rl.sac_update_self_s": 12.5,
             "rl.sac_update_calls": 108000.0}
    change = {"correct": True, "metrics": {name: {"value": value, "unit": "s"}
                                           for name, value in grown.items()}}
    deltas = layer_deltas(parent, change)
    assert "rl.sac_update_calls" not in deltas  # only self times compete
    assert abs(deltas["airdrop.self_s"] - 0.3) < 1e-9
    assert grown_layer(deltas) == "rl.sac_update_self_s"
    assert deltas["rl.sac_update_self_s"] == 6.5
