"""The pairing arithmetic of scripts/bench_pair.py, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def _run(value, correct=True):
    return {"correct": correct, "failed": 0 if correct else 1,
            "metrics": {"selects_per_s": {"value": value, "unit": "1/s"}}}


def test_seed_ranges():
    assert bench_pair._seeds("1-3") == [1, 2, 3]
    assert bench_pair._seeds("4,7-8,11") == [4, 7, 8, 11]


def test_medians_list_every_run():
    runs = {"parent": [_run(10.0), _run(12.0), _run(11.0)],
            "change": [_run(30.0), _run(29.5), _run(31.0)]}
    entry = bench_pair._metrics(runs)["selects_per_s"]
    assert entry == {"unit": "1/s", "parent": 11, "change": 30,
                     "parent_runs": [10, 12, 11], "change_runs": [30, 29.5, 31]}


@pytest.mark.parametrize("better, won, gain", [("higher", 9, 1.0), ("lower", 0, -1.0)])
def test_claim_counts_pairs_won_by_direction(better, won, gain):
    parent = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    change = [2 * v for v in parent]
    change[3] = parent[3]  # a tie counts for neither side
    pairs = [{"parent": _run(p), "change": _run(c)} for p, c in zip(parent, change)]
    block = bench_pair.claim_block(pairs, "selects_per_s", better)
    assert block["pairs_won"] == won and block["pairs"] == 10
    assert block["parent_median"] == 14.5
    assert block["parent_quartiles"] == [12.25, 16.75]
    assert block["change_median"] == 29
    assert block["gain"] == pytest.approx(gain, abs=0.001)
    assert block["all_runs_correct"]
    pairs[0]["change"] = _run(20.0, correct=False)
    assert not bench_pair.claim_block(pairs, "selects_per_s", better)["all_runs_correct"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_meets_rule_needs_nine_in_ten_pairs_and_a_gap_beyond_the_quartiles(better):
    parent = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # quartiles 12.25 and 16.75
    step = 1.0 if better == "higher" else -1.0

    def block(change):
        pairs = [{"parent": _run(p), "change": _run(c)} for p, c in zip(parent, change)]
        return bench_pair.claim_block(pairs, "selects_per_s", better)

    # Every pair won by 5: the median moves by 5, more than the spread 4.5.
    assert block([p + 5 * step for p in parent])["meets_rule"]
    # Every pair won by 4: the median moves by less than the spread.
    assert not block([p + 4 * step for p in parent])["meets_rule"]
    # A wide gap, but two pairs lost: 8 of 10 is below nine tenths.
    change = [p + 10 * step for p in parent]
    change[0] = change[1] = parent[0] - step
    assert block(change)["pairs_won"] == 8
    assert not block(change)["meets_rule"]
    # One pair tied still leaves nine won.
    change = [p + 10 * step for p in parent]
    change[0] = parent[0]
    assert block(change)["meets_rule"]
