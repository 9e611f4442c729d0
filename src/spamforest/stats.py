"""Nonparametric feature screening.

Continuous features are compared between the two label groups with the
Wilcoxon-Mann-Whitney rank-sum test (mid-ranks for ties); categorical
features go through the Pearson chi-squared contingency test. A paired
signed-rank test is also provided.

Both rank tests run on one engine: a statistic that sums a subset of the
ranks, of size n_a for the rank-sum and of any size for the signed-rank.
With at most ``EXACT_LIMIT`` ranks one dynamic program counts the subsets
of twice-scaled ranks (mid-ranks are halves, so doubling makes them
integers) by size and sum, and the tails are exact, the two-sided p-value
being min(1, 2 * min(one-sided)). Larger samples use the normal
approximation with tie correction and a 0.5 continuity correction. The
mid-ranks and the tie correction come from the runs of equal values in one
stable sort, so they count the same tie groups; each NaN is a run of its own.

Group convention for screening: group a holds the label-1 (spam) rows, so
a small ``p_less`` means the feature runs lower for spammers.

All functions are pure; screening may run feature-parallel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import _replace_when_written
from .errors import DegenerateInputError
from .features import FeatureMatrix
from .numerics import binary_labels, chi2_sf, norm_sf

__all__ = [
    "TestResult",
    "EXACT_LIMIT",
    "rank_sum_test",
    "signed_rank_test",
    "chi_squared_test",
    "screen_features",
    "write_screening_report",
    "write_histograms",
]

EXACT_LIMIT = 12

# Display floor for chi-squared p-values in written reports.
REPORT_P_FLOOR = 2.2e-16


@dataclass
class TestResult:
    feature_name: str
    statistic: float
    p_two_sided: float
    p_less: float | None
    p_greater: float | None
    significant_at_05: bool
    method: str = ""
    note: str = ""


def _midranks(values: np.ndarray):
    """``(ranks, ties)``: ranks 1..n with ties sharing the mean of their rank
    range, and ``ties``, sum(t^3 - t) over the tie groups of sizes t."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # Tie groups are runs of equal neighbours; NaN equals nothing, so each
    # NaN is a group of its own. A group over i..j gets (i + j) / 2 + 1.
    bounds = np.concatenate(
        ([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1, [len(values)]))
    sizes = np.diff(bounds)
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] - 1) / 2.0 + 1.0, sizes)
    return ranks, float((sizes.astype(np.float64) ** 3 - sizes).sum())


def _result(name, statistic, p_two, p_less, p_greater, method, note=""):
    return TestResult(
        feature_name=name,
        statistic=float(statistic),
        p_two_sided=float(p_two),
        p_less=None if p_less is None else float(p_less),
        p_greater=None if p_greater is None else float(p_greater),
        significant_at_05=bool(p_two < 0.05),
        method=method,
        note=note,
    )


# ---------------------------------------------------------------------------
# Rank tests


def _rank_test(name, test, statistic, ranks, size, mean, var):
    """The TestResult of a statistic summing ``size`` of the ``ranks`` (any
    number when None): exact, or N(mean, var) with var > 0."""
    if len(ranks) <= EXACT_LIMIT:
        # counts[k, s]: the number of size-k subsets of the doubled ranks
        # summing to s. The right side is read before the write, so each
        # rank joins a subset at most once.
        ranks2 = np.rint(ranks * 2).astype(np.int64)
        total = int(ranks2.sum())
        counts = np.zeros((len(ranks2) + 1, total + 1), dtype=np.int64)
        counts[0, 0] = 1
        for r in ranks2:
            counts[1:, r:] = counts[1:, r:] + counts[:-1, : total + 1 - r]
        dist = counts.sum(axis=0) if size is None else counts[size]
        w2 = int(round(statistic * 2))
        p_less = int(dist[: w2 + 1].sum()) / int(dist.sum())
        p_greater = int(dist[w2:].sum()) / int(dist.sum())
        p_two = min(1.0, 2.0 * min(p_less, p_greater))
        return _result(name, statistic, p_two, p_less, p_greater, f"{test}-exact")
    sd = var ** 0.5
    p_greater = norm_sf((statistic - 0.5 - mean) / sd)
    p_less = norm_sf(-(statistic + 0.5 - mean) / sd)
    z_abs = max(abs(statistic - mean) - 0.5, 0.0) / sd
    p_two = min(1.0, 2.0 * norm_sf(z_abs))
    return _result(name, statistic, p_two, p_less, p_greater, f"{test}-normal")


def rank_sum_test(group_a, group_b, feature_name: str = "") -> TestResult:
    """Wilcoxon-Mann-Whitney test of two independent samples.

    The statistic is the mid-rank sum of ``group_a`` in the pooled ranking.
    ``p_less`` is the probability (under exchangeability) of a rank sum at
    most the observed one, i.e. small when group a runs low. All three
    p-values are always computed.
    """
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both groups must be non-empty")

    ranks, ties = _midranks(np.concatenate([a, b]))
    n_a, n_b = a.size, b.size
    n = n_a + n_b
    statistic = float(ranks[:n_a].sum())
    var = (n_a * n_b * (n + 1) / 12.0
           - n_a * n_b * ties / (12.0 * n * (n - 1)))
    if var <= 0 and n > EXACT_LIMIT:  # every pooled value tied
        return _result(feature_name, statistic, 1.0, 1.0, 1.0, "rank-sum-normal",
                       note="degenerate: all pooled values tied")
    return _rank_test(feature_name, "rank-sum", statistic, ranks,
                      n_a, n_a * (n + 1) / 2.0, var)


def signed_rank_test(paired_diffs, feature_name: str = "") -> TestResult:
    """Wilcoxon signed-rank test on paired differences.

    Zero differences are removed first; the statistic is the positive-rank
    sum W+. ``p_greater`` is small when the differences run positive.
    """
    diffs = np.asarray(paired_diffs, dtype=np.float64)
    diffs = diffs[diffs != 0]
    if diffs.size == 0:
        raise DegenerateInputError("all paired differences are zero")

    n = diffs.size
    ranks, ties = _midranks(np.abs(diffs))
    # Zero differences are gone, so var > 0 even when every |d| is tied.
    var = n * (n + 1) * (2 * n + 1) / 24.0 - ties / 48.0
    return _rank_test(feature_name, "signed-rank", float(ranks[diffs > 0].sum()),
                      ranks, None, n * (n + 1) / 4.0, var)


# ---------------------------------------------------------------------------
# Pearson chi-squared


def chi_squared_test(table, feature_name: str = "") -> TestResult:
    """Pearson chi-squared independence test on a contingency table.

    Zero-marginal rows/columns are dropped with a warning; a table that
    collapses below 2x2 raises DegenerateInputError. One-sided p-values do
    not apply and are reported as None.
    """
    obs = np.asarray(table, dtype=np.float64)
    if obs.ndim != 2:
        raise ValueError(f"contingency table must be 2-D, got shape {obs.shape}")
    if np.any(obs < 0):
        raise ValueError("contingency counts must be nonnegative")

    row_keep = obs.sum(axis=1) > 0
    col_keep = obs.sum(axis=0) > 0
    if not row_keep.all() or not col_keep.all():
        warnings.warn(
            f"dropping {int((~row_keep).sum())} zero row(s) and "
            f"{int((~col_keep).sum())} zero column(s) from contingency table"
        )
        obs = obs[row_keep][:, col_keep]
    if obs.shape[0] < 2 or obs.shape[1] < 2:
        raise DegenerateInputError(
            f"contingency table collapsed to shape {obs.shape}; need at least 2x2"
        )

    total = obs.sum()
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / total
    stat = float(((obs - expected) ** 2 / expected).sum())
    df = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    p = chi2_sf(stat, df)
    return _result(feature_name, stat, p, None, None, "chi-squared",
                   note=f"df={df}")


# ---------------------------------------------------------------------------
# Screening


def screen_features(features: FeatureMatrix, labels) -> list[TestResult]:
    """One TestResult per feature column, in feature order.

    Continuous columns: rank-sum between label-1 and label-0 rows.
    Categorical columns: chi-squared on the value-by-label table. Constant
    columns are reported with p = 1 and a degenerate note, never an error.
    """
    labels = np.asarray(labels)
    if labels.shape != (features.n_rows,):
        raise ValueError(
            f"{features.n_rows} rows but label shape {labels.shape}"
        )
    labels = binary_labels(labels)

    spam = features.values[labels == 1]
    genuine = features.values[labels == 0]
    results = []
    for j, name in enumerate(features.names):
        col = features.values[:, j]
        try:
            if np.all(col == col[0]):
                raise DegenerateInputError("constant feature")
            if features.kinds[j] == "categorical":
                table = np.array([
                    [(genuine[:, j] == v).sum(), (spam[:, j] == v).sum()]
                    for v in np.unique(col)
                ])
                results.append(chi_squared_test(table, feature_name=name))
            else:
                results.append(rank_sum_test(spam[:, j], genuine[:, j],
                                             feature_name=name))
        except DegenerateInputError as exc:
            results.append(_result(name, 0.0, 1.0, 1.0, 1.0, "degenerate",
                                   note=f"degenerate: {exc}"))
    return results


def _fmt_p(p: float | None, floor: float | None = None) -> str:
    if p is None:
        return "-"
    if floor is not None:
        p = max(p, floor)
    return f"{p:.4g}"


def write_screening_report(results: list[TestResult], path):
    """Tab-separated screening report, one row per feature.

    Chi-squared p-values are floored at 2.2e-16 for display.
    """
    with _replace_when_written(path) as fh:
        fh.write("feature\tmethod\tstatistic\tp_two_sided\tp_less\tp_greater"
                 "\tsignificant_at_05\tnote\n")
        for r in results:
            floor = REPORT_P_FLOOR if r.method == "chi-squared" else None
            fh.write("\t".join([
                r.feature_name,
                r.method,
                f"{r.statistic:.6g}",
                _fmt_p(r.p_two_sided, floor),
                _fmt_p(r.p_less, floor),
                _fmt_p(r.p_greater, floor),
                "yes" if r.significant_at_05 else "no",
                r.note,
            ]) + "\n")


def write_histograms(features: FeatureMatrix, labels, out_dir):
    """Per-feature CSVs of 20 bins: edges and per-class densities.

    Feature ``name`` goes to ``hist_<quote(name)>.csv``: letters, digits and
    ``_.-~`` stay, every other character is percent-encoded, so distinct
    names never share a file. A column gets no file unless its 21 edges are
    finite and strictly increase and every density is finite: a constant
    column, or one too narrow or too wide for float64 to cut, is skipped.
    """
    import os
    from urllib.parse import quote

    labels = np.asarray(labels)
    for j, name in enumerate(features.names):
        col = features.values[:, j]
        with np.errstate(all="ignore"):
            edges = np.linspace(col.min(), col.max(), 21)
            if not (np.isfinite(edges).all() and (np.diff(edges) > 0).all()):
                continue
            dens0, _ = np.histogram(col[labels == 0], bins=edges, density=True)
            dens1, _ = np.histogram(col[labels == 1], bins=edges, density=True)
        if not (np.isfinite(dens0).all() and np.isfinite(dens1).all()):
            continue
        path = os.path.join(out_dir, f"hist_{quote(name, safe='')}.csv")
        with _replace_when_written(path) as fh:
            fh.write("bin_start,bin_end,density_genuine,density_spam\n")
            for cells in zip(edges[:-1], edges[1:], dens0, dens1):
                fh.write(",".join(repr(float(c)) for c in cells) + "\n")
