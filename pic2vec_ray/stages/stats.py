"""Grouped inferential statistics from distributed sufficient stats:
ordinary least squares (slope / intercept / R²) and Welch's unequal-
variance t-test.

Scale discipline (same as ``stages/relational.grouped_corr``): each
batch reduces to a handful of moment scalars per group — ``(n, Σx, Σy,
Σx², Σy², Σxy)`` — so the exchange is bounded by the group domain and
raw rows never shuffle.  The finishing formulas are raw-moment
closed forms evaluated on the tiny merged table; the SQL oracles
compute the SAME formulas from ``SUM()`` aggregates (never DuckDB's
``regr_*()``/``var_samp()``, whose internally-stable accumulations
differ in low-order bits) and both sides round to a fixed precision.

No reference counterpart (datarobot/pic2vec has no tabular stats
tooling); SURVEY.md §2 feature-engineering additions, round 5.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _moment_partials(ds, keys: list[str], x: str, y: str | None):
    """Per-batch (n, Σx, Σx², [Σy, Σy², Σxy]) partials per group →
    one bounded Ray groupby().sum().  The partial rows per batch are
    capped by the group domain, so the shuffle moves O(groups) scalars
    per batch regardless of corpus size."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vx = b[x].to_numpy(dtype=np.float64)
        g = b[keys].copy()
        g["n"] = 1
        g["sx"], g["sxx"] = vx, vx * vx
        if y is not None:
            vy = b[y].to_numpy(dtype=np.float64)
            g["sy"], g["syy"], g["sxy"] = vy, vy * vy, vx * vy
        return g.groupby(keys, as_index=False).sum()

    cols = ["n", "sx", "sxx"] + (["sy", "syy", "sxy"] if y else [])
    return (ds.map_batches(partial, batch_format="pandas")
            .groupby(keys).sum(cols))


def grouped_ols(ds, *, keys, x: str, y: str, decimals: int = 6):
    """Per-group simple linear regression of ``y`` on ``x`` via the
    raw-moment normal equations::

        slope     = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²)
        intercept = (Σy − slope·Σx) / n
        r²        = (nΣxy − ΣxΣy)² / ((nΣx² − (Σx)²)(nΣy² − (Σy)²))

    Output: keys, ``slope``, ``intercept``, ``r2``, ``n_rows``.
    Degenerate groups (zero x-variance) raise — a constant regressor
    is a caller bug, not a NaN to propagate silently. A group with zero
    y-variance is fit exactly: ``r2 = 1``, as DuckDB's ``REGR_R2``
    returns, not the 0/0 of the closed form. A variance counts as zero
    when it is within the rounding of its raw moments: ``nΣv² − (Σv)²``
    of ``n`` equal values stays within ``4n·ε·nΣv²`` of 0."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    agg = _moment_partials(ds, keys, x, y)

    def flat(n, s, ss):
        v = n * ss - s * s
        return v, v <= 4 * n * np.finfo(np.float64).eps * n * ss

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["sum(n)"].to_numpy(dtype=np.float64)
        sx, sy = df["sum(sx)"].to_numpy(), df["sum(sy)"].to_numpy()
        sxx, syy, sxy = (df["sum(sxx)"].to_numpy(), df["sum(syy)"].to_numpy(),
                         df["sum(sxy)"].to_numpy())
        vx, flat_x = flat(n, sx, sxx)
        if np.any(flat_x):
            raise ValueError(f"grouped_ols: zero variance in {x!r} "
                             "for at least one group")
        vy, flat_y = flat(n, sy, syy)
        cov = n * sxy - sx * sy
        slope = cov / vx
        out = df[keys].copy()
        out["slope"] = np.round(slope, decimals)
        out["intercept"] = np.round((sy - slope * sx) / n, decimals)
        vy[flat_y] = 1.0  # the fit is exact: r2 is pinned to 1 below
        out["r2"] = np.round(np.where(flat_y, 1.0, cov * cov / (vx * vy)), decimals)
        out["n_rows"] = df["sum(n)"].astype("int64")
        return out

    return agg.map_batches(finish, batch_format="pandas")


def welch_ttest(ds, *, group_col: str, a: str, b: str, value: str,
                decimals: int = 6):
    """Welch's unequal-variance t-test between the ``a`` and ``b``
    levels of ``group_col`` over ``value``::

        t   = (x̄_a − x̄_b) / sqrt(s²_a/n_a + s²_b/n_b)
        dof = (s²_a/n_a + s²_b/n_b)² /
              ((s²_a/n_a)²/(n_a−1) + (s²_b/n_b)²/(n_b−1))

    with the SAMPLE variance ``s² = (Σx² − (Σx)²/n) / (n−1)`` computed
    from the same moment partials.  Rows outside the two levels are
    filtered batch-side with a vectorized ``isin`` (never interpolated
    into a filter-expression string — the ks_drift lesson).  Returns a
    ONE-ROW pandas DataFrame ``(mean_a, mean_b, t_stat, dof, n_a,
    n_b)``; either side empty (or a singleton, dof undefined) raises."""
    sides = [a, b]

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch[group_col].isin(sides)]

    agg = _moment_partials(ds.map_batches(keep, batch_format="pandas"),
                           [group_col], value, None).to_pandas()
    agg = agg.set_index(group_col)
    for side in sides:
        if side not in agg.index or agg.loc[side, "sum(n)"] < 2:
            raise ValueError(
                f"welch_ttest: need >= 2 rows for {group_col}={side!r}")

    def stats(side: str):
        n = float(agg.loc[side, "sum(n)"])
        sx, sxx = float(agg.loc[side, "sum(sx)"]), float(agg.loc[side, "sum(sxx)"])
        mean = sx / n
        var = (sxx - sx * sx / n) / (n - 1.0)
        return n, mean, var

    na, ma, va = stats(a)
    nb, mb, vb = stats(b)
    se_a, se_b = va / na, vb / nb
    t = (ma - mb) / np.sqrt(se_a + se_b)
    dof = (se_a + se_b) ** 2 / (se_a ** 2 / (na - 1.0)
                                + se_b ** 2 / (nb - 1.0))
    return pd.DataFrame({
        "mean_a": [round(ma, decimals)], "mean_b": [round(mb, decimals)],
        "t_stat": [round(float(t), decimals)],
        "dof": [round(float(dof), decimals)],
        "n_a": [np.int64(na)], "n_b": [np.int64(nb)],
    })
