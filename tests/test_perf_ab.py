"""The paired A/B summary of ``tools/perf_ab.py`` on synthetic run
documents: no benchmark runs, only the medians, quartiles, pairs won and
the gain rule."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "perf_ab.py"

DECLARED = [{"name": "first_result_s", "unit": "s", "better": "lower",
             "bound": 0.2},
            {"name": "accept_ratio", "unit": "ratio", "better": "higher",
             "bound": 0.2}]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(base: list, new: list, name: str = "first_result_s") -> list:
    return [({name: before, "accept_ratio": 1.0},
             {name: after, "accept_ratio": 1.0})
            for before, after in zip(base, new)]


def row(tool, pairs, name="first_result_s") -> dict:
    (found,) = [r for r in tool.summarise(pairs, DECLARED)
                if r["name"] == name]
    return found


def test_medians_quartiles_and_wins(tool):
    base = [2.8, 2.7, 2.9, 2.75, 2.85, 2.6, 3.0, 2.7, 2.8, 2.9]
    new = [2.0, 2.1, 2.05, 1.9, 2.9, 2.0, 2.1, 2.0, 2.2, 2.0]
    found = row(tool, pairs_of(base, new))
    assert found["base_median"] == pytest.approx(2.8)
    assert found["new_median"] == pytest.approx(2.025)
    # statistics.quantiles, exclusive method: (n + 1) * p positions.
    assert found["base_q1"] == pytest.approx(2.7)
    assert found["base_q3"] == pytest.approx(2.9)
    assert found["new_q1"] == pytest.approx(2.0)
    assert found["new_q3"] == pytest.approx(2.125)
    assert found["change"] == pytest.approx(2.025 / 2.8 - 1.0)
    # Pair 5 reads 2.85 -> 2.9: a loss; every other pair is won.
    assert found["won"] == 9 and found["pairs"] == 10
    assert found["gain"]


def test_no_gain_below_nine_of_ten(tool):
    base = [2.8] * 10
    new = [2.0] * 8 + [2.8, 3.0]
    found = row(tool, pairs_of(base, new))
    assert found["won"] == 8  # a tie is not a win
    assert not found["gain"]


def test_no_gain_within_the_base_spread(tool):
    base = [2.0, 3.0, 2.0, 3.0, 2.5, 2.0, 3.0, 2.0, 3.0, 2.5]
    new = [value - 0.1 for value in base]
    found = row(tool, pairs_of(base, new))
    assert found["won"] == 10
    assert found["base_q3"] - found["base_q1"] == pytest.approx(1.0)
    assert not found["gain"]


def test_higher_is_better_metrics_flip_the_sign(tool):
    pairs = [({"first_result_s": 1.0, "accept_ratio": before},
              {"first_result_s": 1.0, "accept_ratio": after})
             for before, after in zip([0.5] * 10, [0.9] * 10)]
    found = row(tool, pairs, "accept_ratio")
    assert found["won"] == 10 and found["gain"]
    assert found["change"] == pytest.approx(-0.8)
    unchanged = row(tool, pairs)
    assert unchanged["won"] == 0 and not unchanged["gain"]
    assert unchanged["change"] == 0.0


def test_one_pair_and_the_table(tool):
    rows = tool.summarise(pairs_of([2.0], [1.0]), DECLARED)
    assert rows[0]["base_q1"] == rows[0]["base_q3"] == 2.0
    table = tool.format_summary(rows).splitlines()
    assert len(table) == 1 + len(DECLARED)
    assert "1/1" in table[1] and table[1].split()[-2:] == ["yes", "s"]


def test_a_base_spread_wider_than_the_bound_is_unresolved(tool):
    """The fig. 3 ``setup_s`` case: the base's quartile distance (1.0 on
    a median of 2.5) exceeds the 0.2 bound times the median (0.5), so no
    pair count can tell a regression from noise."""
    base = [2.0, 3.0, 2.0, 3.0, 2.5, 2.0, 3.0, 2.0, 3.0, 2.5]
    found = row(tool, pairs_of(base, base))
    assert found["base_q3"] - found["base_q1"] == pytest.approx(1.0)
    assert found["unresolved"]
    steady = row(tool, pairs_of([2.5, 2.6, 2.4, 2.5] * 2 + [2.5, 2.5],
                                [2.5] * 10))
    assert not steady["unresolved"]
    table = tool.format_summary(tool.summarise(pairs_of(base, base),
                                               DECLARED)).splitlines()
    assert table[1].endswith("unresolved")
    assert not table[2].endswith("unresolved")
    assert table[-1].startswith("unresolved:")


def test_a_metric_without_a_bound_is_never_unresolved(tool):
    declared = [dict(DECLARED[0], bound=None)]
    base = [1.0, 9.0] * 5
    (found,) = tool.summarise(pairs_of(base, base), declared)
    assert not found["unresolved"]
