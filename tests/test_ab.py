"""tools/ab.py's verdict on one metric, from synthetic paired runs."""

import importlib.util
from pathlib import Path

AB = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def load_ab():
    spec = importlib.util.spec_from_file_location("tools_ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_ab()

# ten parent runs: median 1.0, q1..q3 = 0.9775..1.0225 (a spread of 0.045)
PARENT = [0.95, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.05]


def test_a_clear_gain_meets_the_claim():
    new = [a - 0.1 for a in PARENT]
    assert ab.pairs_won(PARENT, new, "lower") == (10, 0)
    assert ab.verdict(PARENT, new, "lower", 0.25) == "claim met"


def test_the_claim_needs_nine_pairs_of_ten():
    new = [a - 0.1 for a in PARENT]
    new[0] = 2.0
    assert ab.pairs_won(PARENT, new, "lower") == (9, 1)
    assert ab.verdict(PARENT, new, "lower", 0.25) == "claim met"
    new[1] = 2.0
    assert ab.pairs_won(PARENT, new, "lower") == (8, 2)
    assert ab.verdict(PARENT, new, "lower", 0.25) == "within bound"


def test_the_claim_needs_the_medians_apart_by_more_than_the_spread():
    new = [a - 0.04 for a in PARENT]  # every pair won, by less than 0.045
    assert ab.pairs_won(PARENT, new, "lower") == (10, 0)
    assert ab.verdict(PARENT, new, "lower", 0.25) == "within bound"


def test_a_loss_beyond_the_bound_is_over_bound():
    assert ab.verdict(PARENT, [a * 1.3 for a in PARENT], "lower", 0.25) == "over bound"
    assert ab.verdict(PARENT, [a * 1.2 for a in PARENT], "lower", 0.25) == "within bound"


def test_higher_is_better_turns_the_rule_round():
    assert ab.verdict(PARENT, [a + 0.1 for a in PARENT], "higher", 0.01) == "claim met"
    assert ab.verdict(PARENT, [a - 0.1 for a in PARENT], "higher", 0.01) == "over bound"
    assert ab.verdict(PARENT, [a - 0.1 for a in PARENT], "lower", 0.01) == "claim met"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # q3 - q1 = 0.045 against a bound of 0.01 of the median 1.0: a shift
    # this small cannot be told from the noise, unless the change beats
    # every parent run
    assert ab.verdict(PARENT, [a + 0.005 for a in PARENT], "lower", 0.01) == "unresolved"
    assert ab.verdict(PARENT, [a - 0.005 for a in PARENT], "lower", 0.01) == "unresolved"
    assert ab.verdict(PARENT, [a + 0.005 for a in PARENT], "lower", 0.05) == "within bound"
    # a skewed parent, q3 - q1 = 0.21: a change below its every run wins
    # by less than the spread, and is within bound
    skewed = [0.99, 0.99, 0.99, 1.0, 1.0, 1.0, 1.2, 1.2, 1.2, 1.2]
    assert ab.verdict(skewed, [0.985] * 10, "lower", 0.01) == "within bound"
    assert ab.verdict(skewed, [0.985] * 9 + [0.995], "lower", 0.01) == "unresolved"
