"""The plan rule of ``temporal.core.partitioned_apply``: a small input
whose rows and bytes metadata already knows runs the kernel once, in one
task (local plan); anything else is tagged, sorted and run per sorted
block (shuffle plan). The rule must read metadata only."""

from __future__ import annotations

import logging
from unittest import mock

import numpy as np
import pandas as pd
import pytest

LOGGER = "pic2vec_ray.temporal.core"
GAP = pd.Timedelta(minutes=90)


def _events(n: int = 600) -> pd.DataFrame:
    rng = np.random.default_rng(7)
    return pd.DataFrame({
        "eid": np.arange(n, dtype=np.int64),
        "user": rng.integers(0, 9, n).astype(np.int64),
        "ts": (pd.Timestamp("2024-01-01")
               + pd.to_timedelta(rng.integers(0, 200, n) * 900, unit="s")
               ).astype("datetime64[us]"),
        "v": rng.uniform(0, 10, n).round(3),
    })


def _write_parts(df: pd.DataFrame, path, parts: int = 3) -> str:
    path.mkdir()
    for i, chunk in enumerate(np.array_split(df, parts)):
        chunk.to_parquet(path / f"part-{i}.parquet", index=False)
    return str(path)


def _sessions(ds):
    from pic2vec_ray.temporal.windows import sessionize

    return sessionize(ds, by="user", order="ts", gap=GAP, tiebreak="eid",
                      num_partitions=7)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("eid").reset_index(drop=True)[sorted(df.columns)]


def _no_lazy_probe(monkeypatch):
    """Make ``schema``, ``count`` and ``size_bytes`` raise on any
    dataset that is not materialized."""
    from ray.data.dataset import Dataset, MaterializedDataset

    for name in ("schema", "count", "size_bytes"):
        real = getattr(Dataset, name)

        def guarded(self, *a, _real=real, _name=name, **kw):
            if not isinstance(self, MaterializedDataset):
                raise AssertionError(f"{_name}() called on a lazy plan")
            return _real(self, *a, **kw)

        monkeypatch.setattr(Dataset, name, guarded)


def test_lazy_input_is_not_executed_to_pick_a_plan(ray_session, monkeypatch, caplog):
    import ray.data as rd

    def boom(batch):
        raise RuntimeError("input executed")

    lazy = rd.from_pandas(_events()).map_batches(boom, batch_format="pandas")
    _no_lazy_probe(monkeypatch)
    caplog.set_level(logging.INFO, logger=LOGGER)
    out = _sessions(lazy)  # building the plan runs nothing
    assert "partitioned_apply plan=shuffle partitions=7" in caplog.text
    monkeypatch.undo()
    with pytest.raises(Exception, match="input executed"):
        out.materialize()


def test_bare_read_runs_local_in_one_block(ray_session, tmp_path, monkeypatch, caplog):
    import ray
    import ray.data as rd

    from pic2vec_ray.temporal import core, windows

    ev = _events()
    path = _write_parts(ev, tmp_path / "events")
    with mock.patch.object(windows, "partitioned_apply",
                           lambda ds, by, f, n: f(ds.copy())):
        exp = _sessions(ev)

    _no_lazy_probe(monkeypatch)
    caplog.set_level(logging.INFO, logger=LOGGER)
    local = _sessions(rd.read_parquet(path))
    assert f"partitioned_apply plan=local rows={len(ev)} bytes=" in caplog.text
    monkeypatch.undo()
    blocks = ray.get(local.to_arrow_refs())
    assert len(blocks) == 1
    assert blocks[0].column_names == list(exp.columns)
    got = blocks[0].to_pandas()
    pd.testing.assert_frame_equal(_canon(got), _canon(exp), check_dtype=False)

    caplog.clear()
    monkeypatch.setattr(core, "BROADCAST_MAX_BYTES", 0)
    shuffled = _sessions(rd.read_parquet(path)).to_pandas()
    assert "partitioned_apply plan=shuffle partitions=7" in caplog.text
    pd.testing.assert_frame_equal(_canon(shuffled), _canon(got))

