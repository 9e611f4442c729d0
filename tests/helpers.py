"""Shared test oracles, deliberately independent of the library code paths
they check: the gradient checker evaluates only the public loss, and the
tree follower walks the heap by hand instead of reusing the reach recursion
and takes the leaf softmax with its own exp."""

import numpy as np

from spamforest.training import joint_loss, parameter_blocks


def finite_difference_check(model, X, y, h=1e-5):
    """Max relative error between analytic gradients and central differences.

    Relative error per coordinate is |ga - gn| / max(1e-8, |ga| + |gn|).
    Returns (max_rel_err, {block_name: block_max}).
    """
    from spamforest.training import gradients

    grads = gradients(X, y, model)
    per_block = {}
    worst = 0.0
    for name, arr in parameter_blocks(model):
        block_worst = 0.0
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = joint_loss(X, y, model)
            arr[idx] = orig - h
            lm = joint_loss(X, y, model)
            arr[idx] = orig
            numeric = (lp - lm) / (2 * h)
            analytic = grads[name][idx]
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            block_worst = max(block_worst, rel)
        per_block[name] = block_worst
        worst = max(worst, block_worst)
    return worst, per_block


def follow_tree(x_t, routing, leaf_logits):
    """Deterministic tree evaluator: at each node go left iff w . x_t > 0.

    ``routing`` (2^D - 1, d) and ``leaf_logits`` (2^D, C) are one tree's
    slices of the stacked forest tensors. Returns the reached leaf's class
    distribution. This is the hard-routing limit that soft routing should
    approach as weights are scaled up.
    """
    n_dec = routing.shape[0]
    node = 0
    while node < n_dec:
        go_left = float(routing[node] @ x_t) > 0
        node = 2 * node + 1 + (0 if go_left else 1)
    e = np.exp(leaf_logits[node - n_dec] - leaf_logits[node - n_dec].max())
    return e / e.sum()


def follow_forest(x_t, forest):
    """Average of follow_tree over the trees of a stacked forest."""
    dists = [follow_tree(x_t, forest.routing[k], forest.leaf_logits[k])
             for k in range(forest.n_trees)]
    return np.mean(dists, axis=0)


def rank_sum_brute_force(group_a, group_b):
    """Exact one-sided p-values by enumerating every group assignment.

    Uses mid-ranks like the implementation but enumerates subsets with
    itertools instead of dynamic programming.
    """
    from itertools import combinations

    pooled = list(group_a) + list(group_b)
    n, n_a = len(pooled), len(group_a)
    # mid-ranks by sorting with ties averaged
    order = sorted(range(n), key=lambda i: pooled[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    observed = sum(ranks[:n_a])
    sums = [sum(ranks[i] for i in combo)
            for combo in combinations(range(n), n_a)]
    total = len(sums)
    p_less = sum(s <= observed for s in sums) / total
    p_greater = sum(s >= observed for s in sums) / total
    return p_less, p_greater, min(1.0, 2.0 * min(p_less, p_greater))


def signed_rank_brute_force(diffs):
    """Exact one-sided p-values by enumerating every sign pattern."""
    from itertools import product

    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    abs_d = [abs(d) for d in diffs]
    order = sorted(range(n), key=lambda i: abs_d[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs_d[order[j + 1]] == abs_d[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    observed = sum(r for r, d in zip(ranks, diffs) if d > 0)
    sums = [sum(r for r, s in zip(ranks, signs) if s)
            for signs in product((False, True), repeat=n)]
    total = len(sums)
    p_less = sum(s <= observed for s in sums) / total
    p_greater = sum(s >= observed for s in sums) / total
    return p_less, p_greater, min(1.0, 2.0 * min(p_less, p_greater))
