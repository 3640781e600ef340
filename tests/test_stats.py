"""Round-5 inferential-stats additions: grouped OLS, Welch's t-test,
chi-square association — all verified against scipy-free closed forms
computed with numpy/pandas on the driver."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


def _xy(n=600, seed=11):
    rng = np.random.default_rng(seed)
    g = rng.choice(["r", "s", "t"], n)
    x = rng.uniform(1.0, 50.0, n).round(2)
    slope = np.where(g == "r", 2.0, np.where(g == "s", -1.5, 0.7))
    y = (slope * x + 5.0 + rng.normal(0, 3.0, n)).round(3)
    return pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                         "g": g, "x": x, "y": y})


def test_grouped_ols_matches_polyfit(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.stats import grouped_ols

    df = _xy()
    out = (grouped_ols(rd.from_pandas(df).repartition(7), keys="g",
                       x="x", y="y")
           .to_pandas().sort_values("g").reset_index(drop=True))
    for _, row in out.iterrows():
        sub = df[df.g == row.g]
        slope, intercept = np.polyfit(sub.x, sub.y, 1)
        r = np.corrcoef(sub.x, sub.y)[0, 1]
        assert row.slope == pytest.approx(slope, abs=1e-5)
        assert row.intercept == pytest.approx(intercept, abs=1e-5)
        assert row.r2 == pytest.approx(r * r, abs=1e-5)
        assert row.n_rows == len(sub)


def test_grouped_ols_partition_invariant(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.stats import grouped_ols

    df = _xy(n=300, seed=5)
    outs = []
    for parts in (1, 9):
        outs.append(grouped_ols(rd.from_pandas(df).repartition(parts),
                                keys="g", x="x", y="y")
                    .to_pandas().sort_values("g").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_grouped_ols_rejects_constant_regressor(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.stats import grouped_ols

    df = _xy(n=50, seed=1)
    df["x"] = 3.0
    # the ValueError raises inside a Ray task -> surfaces wrapped in
    # RayTaskError; match on the message, not the concrete type
    with pytest.raises(Exception, match="zero variance"):
        grouped_ols(rd.from_pandas(df), keys="g", x="x", y="y").to_pandas()


def test_grouped_ols_constant_response_has_r2_one(ray_session):
    """Constant y over varying x: the fit is exact, and DuckDB's
    REGR_R2 returns 1 for it, not the 0/0 of the closed form."""
    import duckdb
    import ray.data as rd
    from pic2vec_ray.stages.stats import grouped_ols

    df = _xy(n=300, seed=3)
    df.loc[df.g == "r", "y"] = 0.1  # Σy² and (Σy)²/n round apart
    df.loc[df.g == "s", "y"] = -2.5
    out = (grouped_ols(rd.from_pandas(df).repartition(5), keys="g", x="x", y="y")
           .to_pandas().set_index("g"))
    con = duckdb.connect()
    con.register("df", df)
    want = con.execute("SELECT g, regr_r2(y, x) AS r2 FROM df GROUP BY g").df().set_index("g")
    assert want.r2["r"] == want.r2["s"] == 1.0
    assert out.r2["r"] == out.r2["s"] == 1.0
    assert out.slope["r"] == 0 and out.intercept["r"] == pytest.approx(0.1)
    assert out.r2["t"] == pytest.approx(want.r2["t"], abs=1e-6)


def test_welch_ttest_matches_closed_form(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.stats import welch_ttest

    rng = np.random.default_rng(7)
    na, nb = 220, 180
    df = pd.DataFrame({
        "grp": ["a"] * na + ["b"] * nb + ["noise"] * 40,
        "v": np.concatenate([rng.normal(10, 2, na), rng.normal(11, 3, nb),
                             rng.normal(0, 1, 40)]).round(4),
    })
    out = welch_ttest(rd.from_pandas(df).repartition(6), group_col="grp",
                      a="a", b="b", value="v")
    va = df[df.grp == "a"].v
    vb = df[df.grp == "b"].v
    se = va.var(ddof=1) / na + vb.var(ddof=1) / nb
    t = (va.mean() - vb.mean()) / np.sqrt(se)
    dof = se ** 2 / ((va.var(ddof=1) / na) ** 2 / (na - 1)
                     + (vb.var(ddof=1) / nb) ** 2 / (nb - 1))
    assert out.t_stat[0] == pytest.approx(t, abs=1e-5)
    assert out.dof[0] == pytest.approx(dof, abs=1e-4)
    assert out.n_a[0] == na and out.n_b[0] == nb
    assert out.mean_a[0] == pytest.approx(va.mean(), abs=1e-5)


def test_welch_ttest_rejects_missing_side(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.stats import welch_ttest

    df = pd.DataFrame({"grp": ["a"] * 10, "v": np.arange(10.0)})
    with pytest.raises(ValueError, match="need >= 2 rows"):
        welch_ttest(rd.from_pandas(df), group_col="grp", a="a", b="b",
                    value="v")


def test_chi2_association_matches_closed_form(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.featsel import chi2_association

    rng = np.random.default_rng(13)
    n = 800
    x = rng.choice(["u", "v", "w"], n)
    # y depends on x so chi2 is large and stable
    y = np.where((x == "u") & (rng.random(n) < 0.7), "p",
                 rng.choice(["p", "q"], n))
    df = pd.DataFrame({"x": x, "y": y})
    out = chi2_association(rd.from_pandas(df).repartition(5), x="x", y="y")

    obs = pd.crosstab(df.x, df.y).to_numpy(np.float64)
    e = np.outer(obs.sum(1), obs.sum(0)) / n
    chi2 = ((obs - e) ** 2 / e).sum()
    assert out.chi2[0] == pytest.approx(chi2, abs=1e-5)
    assert out.cramers_v[0] == pytest.approx(
        np.sqrt(chi2 / (n * (min(obs.shape) - 1))), abs=1e-6)
    assert out.dof[0] == (obs.shape[0] - 1) * (obs.shape[1] - 1)
    assert out.n_rows[0] == n


def test_chi2_counts_absent_cells(ray_session):
    """A (x,y) cell with zero observed count still contributes its
    expected mass — the full-grid rule."""
    import ray.data as rd
    from pic2vec_ray.stages.featsel import chi2_association

    df = pd.DataFrame({"x": ["a", "a", "b", "b", "b"],
                       "y": ["p", "p", "q", "q", "p"]})
    out = chi2_association(rd.from_pandas(df), x="x", y="y")
    obs = pd.crosstab(df.x, df.y).to_numpy(np.float64)  # a-q cell is 0
    e = np.outer(obs.sum(1), obs.sum(0)) / 5.0
    assert out.chi2[0] == pytest.approx(((obs - e) ** 2 / e).sum(), abs=1e-6)


def test_target_encode_oof_excludes_own_fold(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.encode import target_encode_oof
    from pic2vec_ray.stages.split import _KFOLD_MULT, _MOD32

    rng = np.random.default_rng(3)
    n = 400
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "cat": rng.choice(["a", "b", "c"], n),
        "y": rng.uniform(0, 100, n).round(2),
    })
    out = (target_encode_oof(rd.from_pandas(df).repartition(6), key="cat",
                             target="y", id_col="id", k=5)
           .to_pandas().sort_values("id").reset_index(drop=True))
    folds = ((df.id.to_numpy().astype(np.uint64) * _KFOLD_MULT) & _MOD32) \
        % np.uint64(5)
    df["fold"] = folds.astype(np.int64)
    for _, r in out.sample(40, random_state=1).iterrows():
        other = df[(df.cat == r["cat"]) & (df.fold != r["fold"])]
        assert r.cat_te_oof == pytest.approx(round(other.y.mean(), 6),
                                             abs=1e-9)
        assert r.fold == df.loc[df.id == r.id, "fold"].iloc[0]


def test_target_encode_oof_single_fold_category_falls_back(ray_session):
    import ray.data as rd
    from pic2vec_ray.stages.encode import target_encode_oof
    from pic2vec_ray.stages.split import _KFOLD_MULT, _MOD32

    df = pd.DataFrame({
        "id": np.arange(60, dtype=np.int64),
        "cat": ["common"] * 59 + ["rare"],
        "y": np.linspace(1, 60, 60),
    })
    out = target_encode_oof(
        rd.from_pandas(df), key="cat", target="y", id_col="id", k=5) \
        .to_pandas()
    row = out[out.cat == "rare"].iloc[0]
    folds = ((df.id.to_numpy().astype(np.uint64) * _KFOLD_MULT) & _MOD32) \
        % np.uint64(5)
    other = df[folds.astype(np.int64) != row.fold]
    # rare category only exists in its own fold -> fold-excluded
    # GLOBAL mean fallback
    assert row.cat_te_oof == pytest.approx(round(other.y.mean(), 6),
                                           abs=1e-9)
    assert not out.cat_te_oof.isna().any()
