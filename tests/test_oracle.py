import math
from fractions import Fraction

import pytest

from helpers import reference_adoption_probabilities
from sleepcolor import _kernels
from sleepcolor.errors import TooLargeForOracle
from sleepcolor.graph import build_graph, generate, make_default_instance, make_instance
from sleepcolor.oracle import (
    ASSIGNMENT_KINDS,
    choice_space,
    exact_adoption_probabilities,
    tiny_catalog,
)


def _edge_12():
    g = build_graph([(0, 1)], [0, 1])
    return make_instance(g, {0: (1, 2), 1: (1, 2)})


def test_isolated_node_is_exactly_one_half():
    g = build_graph([], [0])
    inst = make_instance(g, {0: (1,)})
    assert exact_adoption_probabilities(inst)[0] == Fraction(1, 2)


def test_edge_with_two_color_lists():
    # enumerating the 3x3 joint space with weights (1/2, 1/4, 1/4) per node:
    # adopt <=> own draw nonzero and different from the neighbor's draw,
    # which happens with probability 2 * (1/4) * (3/4) = 3/8 per endpoint
    probs = exact_adoption_probabilities(_edge_12())
    assert probs[0] == Fraction(3, 8)
    assert probs[1] == Fraction(3, 8)


def test_triangle_default_lists():
    inst = make_default_instance(generate("clique", 3, seed=0))
    probs = exact_adoption_probabilities(inst)
    # each node: sum over c of (1/6) * (5/6)^2
    assert all(p == Fraction(25, 72) for p in probs.values())
    expected_uncolored = sum(1 - p for p in probs.values())
    assert expected_uncolored == 3 * Fraction(47, 72)
    assert expected_uncolored <= Fraction(9, 4)


def test_choice_space_weights_sum_to_twice_the_list_size():
    inst = make_default_instance(generate("clique", 4, seed=0))
    for v, outcomes in choice_space(inst).items():
        assert outcomes[0] == (0, len(inst.lists[v]))
        assert sum(w for _, w in outcomes) == 2 * len(inst.lists[v])


def test_exact_probabilities_match_fraction_product_reference():
    for name, inst in tiny_catalog():
        assert exact_adoption_probabilities(inst) == \
            reference_adoption_probabilities(inst), name
    g = build_graph([(10, 70), (70, 300)], [10, 70, 300])
    inst = make_instance(g, {10: (5, 9), 70: (5, 9, 17), 300: (9, 17)})
    assert exact_adoption_probabilities(inst) == reference_adoption_probabilities(inst)


def test_catalog_shape_and_admissibility():
    cat = tiny_catalog()
    # 1 + 2 + 4 + 11 = 18 graphs up to isomorphism, three list kinds each
    assert len(cat) == 18 * len(ASSIGNMENT_KINDS)
    names = [name for name, _ in cat]
    assert len(set(names)) == len(names)
    for _, inst in cat:
        assert inst.admissible()
        assert inst.graph.node_count <= 4
        assert all(len(lst) <= 4 for lst in inst.lists.values())


def test_catalog_probabilities_at_least_one_quarter():
    quarter = Fraction(1, 4)
    for name, inst in tiny_catalog():
        probs = exact_adoption_probabilities(inst)
        for v, p in probs.items():
            assert p >= quarter, f"{name} node {v}: {p}"


def test_enumeration_guard():
    g = generate("path", 13, seed=0)
    inst = make_default_instance(g)        # (3+1)^11 * 9 > 1e7 outcomes
    with pytest.raises(TooLargeForOracle):
        exact_adoption_probabilities(inst)


def test_monte_carlo_matches_oracle_on_edge():
    inst = _edge_12()
    trials = 40_000
    counts = _kernels.phase1_trial_counts(inst, seed_base=777, trials=trials)
    p = 3 / 8
    sigma = math.sqrt(p * (1 - p) / trials)
    for v in (0, 1):
        assert abs(counts[v] / trials - p) <= 4 * sigma
