"""Round-3 semantic fixes (ADVICE r02):

- progressive JPEG per-SOS Huffman-table snapshots (tested in
  tests/test_jpeg.py::test_progressive_dht_redefined_between_scans);
- hash_join treats NULL keys per SQL (never match), not per pandas
  (NaN == NaN matches);
- UrlFetcher rejects non-http(s) schemes (file:///etc/passwd must not
  become a dataset row);
- LSH projection planes are built once per worker process, not per
  batch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


@pytest.fixture()
def null_key_frames():
    left = pd.DataFrame({
        "k": pd.array([1, 2, None, None], dtype="Int64"),
        "lv": [10, 20, 30, 40],
    })
    right = pd.DataFrame({
        "k": pd.array([1, None], dtype="Int64"),
        "rv": [100, 200],
    })
    return left, right


def test_hash_join_null_keys_follow_sql(ray_session, null_key_frames):
    """DuckDB: SELECT ... JOIN ON l.k = r.k — NULL never equals NULL.
    inner: only k=1 matches. left: null-key left rows survive unmatched.
    semi (EXISTS): null-key left rows excluded. anti (NOT EXISTS):
    null-key left rows included."""
    import ray.data as rd

    from pic2vec_ray.temporal.join import hash_join

    left, right = null_key_frames
    l, r = rd.from_pandas(left), rd.from_pandas(right)

    inner = hash_join(l, r, on="k", how="inner", num_partitions=4).to_pandas()
    assert sorted(inner.lv) == [10]

    lj = hash_join(l, r, on="k", how="left", num_partitions=4).to_pandas()
    assert sorted(lj.lv) == [10, 20, 30, 40]
    matched = lj.set_index("lv").rv
    assert matched[10] == 100
    assert matched[[20, 30, 40]].isna().all()

    semi = hash_join(l, r, on="k", how="semi", num_partitions=4).to_pandas()
    assert sorted(semi.lv) == [10]

    anti = hash_join(l, r, on="k", how="anti", num_partitions=4).to_pandas()
    assert sorted(anti.lv) == [20, 30, 40]


def test_hash_join_null_keys_match_duckdb(ray_session, null_key_frames):
    import duckdb
    import ray.data as rd

    from pic2vec_ray.temporal.join import hash_join

    left, right = null_key_frames
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    sqls = {
        "inner": "SELECT l.lv FROM l JOIN r ON l.k = r.k",
        "left": "SELECT l.lv FROM l LEFT JOIN r ON l.k = r.k",
        "semi": "SELECT l.lv FROM l WHERE EXISTS (SELECT 1 FROM r WHERE l.k = r.k)",
        "anti": "SELECT l.lv FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE l.k = r.k)",
    }
    for how, sql in sqls.items():
        got = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                        on="k", how=how, num_partitions=4).to_pandas()
        want = con.execute(sql).df()
        assert sorted(got.lv) == sorted(want.lv), how

    # right/outer: null-key rows on the preserved side(s) survive
    # unmatched, and never match each other (SQL FULL/RIGHT JOIN)
    pairs = lambda d: sorted(
        (pd.isna(a), -1 if pd.isna(a) else int(a),
         pd.isna(b), -1 if pd.isna(b) else int(b))
        for a, b in d[["lv", "rv"]].itertuples(index=False))
    for how, sql in {
        "right": "SELECT l.lv, r.rv FROM l RIGHT JOIN r ON l.k = r.k",
        "outer": "SELECT l.lv, r.rv FROM l FULL JOIN r ON l.k = r.k",
    }.items():
        got = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                        on="k", how=how, num_partitions=4).to_pandas()
        want = con.execute(sql).df()
        assert pairs(got) == pairs(want), how
        if how == "outer":  # the null-key right row survives, key stays null
            assert int(got.loc[got.rv == 200, "k"].isna().sum()) == 1


def test_url_fetcher_rejects_non_http_schemes(tmp_path):
    from pic2vec_ray.sources.fetch import UrlFetcher

    secret = tmp_path / "secret.txt"
    secret.write_text("do not exfiltrate")
    f = UrlFetcher(max_retries=0)
    assert f._fetch_one(f"file://{secret}") == b""
    assert f._fetch_one("ftp://example.invalid/x") == b""
    assert f.failed == 2


def test_lsh_planes_cached_per_process():
    from pic2vec_ray.stages.dedup import _lsh_planes

    a = _lsh_planes(42, 64, 128)
    b = _lsh_planes(42, 64, 128)
    assert a is b  # same object: built once, not per batch
    c = _lsh_planes(43, 64, 128)
    assert not np.array_equal(a, c)


# --------------------------------- streaming conformance sink + max_rows


@pytest.fixture()
def image_dir(tmp_path):
    from pic2vec_ray.codecs.png import encode_png

    rng = np.random.default_rng(12)
    d = tmp_path / "imgs"
    d.mkdir()
    for i in range(6):
        img = rng.integers(0, 256, (10 + i, 12, 3), dtype=np.uint8)
        (d / f"im{i}.png").write_bytes(encode_png(img))
    return str(d)


def test_streaming_csv_byte_identical_to_facade(ray_session, image_dir, tmp_path):
    """featurize_to_csv (distributed sort → batch-streamed append) must
    write byte-identical output to the materializing save_csv path."""
    from pic2vec_ray.featurizer import ImageFeaturizer

    kw = dict(omit_time=False, timestamp="T0")  # pin the robust name
    f1 = ImageFeaturizer(depth=1, model="tinynet")
    f1.featurize("images", image_path=image_dir)
    p1 = f1.save_csv(str(tmp_path / "a" / "out.csv"), save_features=True, **kw)

    f2 = ImageFeaturizer(depth=1, model="tinynet")
    f2.load_data("images", image_path=image_dir)
    p2 = f2.featurize_to_csv(str(tmp_path / "b" / "out.csv"),
                             batch_size=2, save_features=True, **kw)

    with open(p1, "rb") as a, open(p2, "rb") as b:
        assert a.read() == b.read()
    fa = p1.replace(".csv", "_features_only.csv")
    fb = p2.replace(".csv", "_features_only.csv")
    with open(fa, "rb") as a, open(fb, "rb") as b:
        assert a.read() == b.read()


def test_featurize_to_parquet_streams(ray_session, image_dir, tmp_path):
    import pyarrow.parquet as pq

    from pic2vec_ray.featurizer import ImageFeaturizer

    f = ImageFeaturizer(depth=1, model="tinynet")
    f.load_data("images", image_path=image_dir)
    out = f.featurize_to_parquet(str(tmp_path / "feats"))
    t = pq.read_table(out)
    assert t.num_rows == 6
    assert "features" in t.column_names and "missing" in t.column_names


def test_max_rows_guard_refuses_materialization(ray_session, image_dir):
    from pic2vec_ray.featurizer import ImageFeaturizer

    f = ImageFeaturizer(depth=1, model="tinynet", max_rows=3)
    f.load_data("images", image_path=image_dir)
    with pytest.raises(ValueError, match="max_rows"):
        f.featurize_preloaded_data()
    # the streaming sinks are NOT bounded by max_rows
    f.featurize_to_parquet("/tmp/maxrows_guard_feats")


def test_sink_registry_format_agnostic(ray_session, tmp_path):
    """write_table/read_table round-trip through the registry; unknown
    formats fail loudly."""
    import pandas as pd
    import ray.data as rd

    from pic2vec_ray.sources.sinks import (available_formats, detect_format,
                                           read_table, write_table)

    assert "parquet" in available_formats()
    df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    out = str(tmp_path / "t")
    write_table(rd.from_pandas(df), out)
    assert detect_format(out) == "parquet"
    back = read_table(out).to_pandas().sort_values("a").reset_index(drop=True)
    assert back.equals(df)
    with pytest.raises(ValueError, match="unknown sink format"):
        write_table(rd.from_pandas(df), out, format="orc")


# ------------------------------------------- custom-weight injection (T1)


def test_weights_npz_roundtrip_bit_identical(tmp_path):
    """Save → reload through the loaded_weights hook → features must be
    bit-identical (reference build_featurizer.py:90-97 parity)."""
    from pic2vec_ray.model.zoo import build_featurizer, save_weights_npz

    rng = np.random.default_rng(3)
    x = rng.random((2, 64, 64, 3)).astype(np.float32)
    base = build_featurizer("tinynet", depth=1)
    path = str(tmp_path / "w.npz")
    save_weights_npz(base, path)
    reloaded = build_featurizer("tinynet", depth=1, loaded_weights=path)
    assert np.array_equal(base(x), reloaded(x))


def test_custom_weights_actually_used(tmp_path):
    from pic2vec_ray.model.zoo import build_featurizer, save_weights_npz

    base = build_featurizer("tinynet", depth=1)
    custom = {k: v * 0.5 for k, v in base._weights.items()}
    path = str(tmp_path / "half.npz")
    np.savez(path, **custom)
    half = build_featurizer("tinynet", depth=1, loaded_weights=path)
    x = np.random.default_rng(4).random((1, 64, 64, 3)).astype(np.float32)
    assert not np.allclose(base(x), half(x))


def test_mismatched_weights_rejected(tmp_path):
    """Shape-mismatched / incomplete weight files must raise at build
    time (reference tests/test_build_featurizer.py:187-223 analog)."""
    from pic2vec_ray.model.zoo import build_featurizer

    good = build_featurizer("tinynet", depth=1)._weights
    bad_shape = dict(good)
    bad_shape["conv1/w"] = np.zeros((5, 5, 3, 32), np.float32)
    p1 = str(tmp_path / "bad_shape.npz")
    np.savez(p1, **bad_shape)
    with pytest.raises(ValueError, match="shape"):
        build_featurizer("tinynet", depth=1, loaded_weights=p1)

    incomplete = {k: v for k, v in good.items() if k != "conv3/w"}
    p2 = str(tmp_path / "incomplete.npz")
    np.savez(p2, **incomplete)
    with pytest.raises(ValueError, match="missing"):
        build_featurizer("tinynet", depth=1, loaded_weights=p2)

    with pytest.raises(IOError):
        build_featurizer("tinynet", depth=1,
                         loaded_weights=str(tmp_path / "nope.npz"))


def test_loaded_model_redecapitated():
    """A pre-built model passed via loaded_model is reused (weights
    shared) while the requested depth is applied — the reference
    re-decapitates the supplied model (build_featurizer.py:306,340)."""
    from pic2vec_ray.model.zoo import build_featurizer

    d1 = build_featurizer("tinynet", depth=1)
    d2_via_loaded = build_featurizer("tinynet", depth=2, loaded_model=d1)
    d2_fresh = build_featurizer("tinynet", depth=2)
    x = np.random.default_rng(5).random((1, 64, 64, 3)).astype(np.float32)
    assert d2_via_loaded.num_features == d2_fresh.num_features == 64
    assert np.array_equal(d2_via_loaded(x), d2_fresh(x))
    with pytest.raises(TypeError):
        build_featurizer("tinynet", depth=1, loaded_model="not a model")


def test_featurize_images_with_custom_weights(ray_session, tmp_path):
    """The distributed actor path loads the npz once per actor and its
    features match the local model with the same weights."""
    import ray.data as rd

    from pic2vec_ray.codecs.png import encode_png
    from pic2vec_ray.functions.image_ops import NORMALIZERS, resize_nearest
    from pic2vec_ray.model.zoo import build_featurizer
    from pic2vec_ray.pipelines.featurize import featurize_images

    base = build_featurizer("tinynet", depth=1)
    custom = {k: v * -0.25 for k, v in base._weights.items()}
    path = str(tmp_path / "c.npz")
    np.savez(path, **custom)

    rng = np.random.default_rng(6)
    imgs = [rng.integers(0, 256, (16, 16, 3), dtype=np.uint8) for _ in range(3)]
    t = __import__("pyarrow").table({
        "image_id": [f"i{k}" for k in range(3)],
        "bytes": [encode_png(im) for im in imgs],
    })
    out = featurize_images(rd.from_arrow(t), model_str="tinynet", depth=1,
                           concurrency=1, loaded_weights=path).to_pandas()
    local = build_featurizer("tinynet", depth=1, loaded_weights=path)
    th, tw = local.target_size
    stack = np.stack([resize_nearest(im, (th, tw)) for im in imgs]).astype(np.float32)
    want = local(NORMALIZERS[local.preprocessing](stack))
    got = np.stack([np.asarray(f) for f in
                    out.sort_values("image_id").features])
    assert np.allclose(got, want, atol=1e-6)


def test_distributed_ingest_relative_directory(ray_session, tmp_path, monkeypatch):
    """image_id must be the directory-relative name even when the input
    directory is given as a relative path (Ray echoes absolutized
    paths)."""
    from pic2vec_ray.codecs.png import encode_png
    from pic2vec_ray.sources.ingest import ingest_images, ingest_images_distributed

    rng = np.random.default_rng(7)
    for name in ("a1.png", "a2.png"):
        img = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        (tmp_path / name).write_bytes(encode_png(img))
    monkeypatch.chdir(tmp_path.parent)
    rel = tmp_path.name
    got = ingest_images_distributed(rel).to_pandas().sort_values("image_id")
    want = ingest_images(rel).to_pandas().sort_values("image_id")
    assert list(got.image_id) == ["a1.png", "a2.png"]
    assert list(got.image_id) == list(want.image_id)
    assert list(got.phash) == list(want.phash)
