"""``ImageFeaturizer`` — the reference's top-level API re-expressed on
Ray Data (``/root/reference/pic2vec/image_featurizer.py:75-258``: model
config at construction, then featurize/load/featurize_preloaded/save).

A pic2vec user's workflow maps 1:1:

=================================== ======================================
pic2vec                             pic2vec_ray
=================================== ======================================
``ImageFeaturizer(depth=2, ...)``   same constructor knobs (model_str,
                                    depth, autosample/downsample_size)
``.featurize(image_columns,         ``.featurize(...)`` — directory/CSV
  image_path=..., csv_path=...)``   ingest → decode+embed tasks;
                                    returns a pandas frame with
                                    ``{col}_missing, {col}_feat_i``
``.load_data`` +                    ``.load_data`` builds the lazy input
``.featurize_preloaded_data``       Dataset; ``.featurize_preloaded_data``
                                    runs the embed stage on it
``.save_csv(...)``                  same switches (omit_model/depth/
                                    output/time, save_features)
=================================== ======================================

Differences by design: no 5-D stacked tensor (featurization is
streaming per-batch — the reference's batched path with the
memory-unsafe non-batch variant removed), and row identity is keyed,
not positional (the output frame is sorted by image_id; the original
CSV order can be restored by merging on the path column).

MEMORY BOUND (honest contract): the ENGINE streams, but ``featurize``
/ ``featurize_preloaded_data`` RETURN a full pandas DataFrame for
reference API parity — that return value materializes the whole
featurized corpus on the driver (rows × num_features × 4 bytes, plus
pandas overhead). A ``max_rows`` guard (constructor knob) refuses
corpora past the bound instead of OOM-ing mid-collect. For anything
bigger use the streaming sinks, which never materialize:
``featurize_to_parquet`` (partitioned parquet, the 100 TB path) or
``featurize_to_csv`` (distributed sort → batch-streamed conformance
CSV, byte-identical to ``save_csv`` output).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .model.zoo import validate_config
from .pipelines.conformance import explode_features, save_conformance_csv


class ImageFeaturizer:
    def __init__(self, depth: int = 1, autosample: bool = False,
                 downsample_size: int = 0, model: str = "squeezenet",
                 max_rows: int = 200_000):
        self.num_features = validate_config(model, depth, autosample, downsample_size)
        self.model_name = model
        self.depth = depth
        self.autosample = autosample
        self.downsample_size = downsample_size
        # pandas-return guard (see module docstring): 200k × 512 float32
        # ≈ 400 MB — comfortably inside one driver, far outside "oops"
        self.max_rows = max_rows
        self.image_columns: list[str] = []
        self.data: "object" = None  # lazy Dataset after load_data
        self.features: pd.DataFrame | None = None
        self.full_dataframe: pd.DataFrame | None = None

    # ------------------------------------------------------------ loading

    def load_data(self, image_columns: str | list[str] = "images",
                  image_path: str = "", csv_path: str = ""):
        """Resolve sources (S1/S2/S3 routing) into the lazy input Dataset.

        Multiple image columns ingest one binary column per listed CSV
        column (the reference featurizes every listed column,
        ``image_featurizer.py:587-593``); a directory-only source is
        inherently single-column."""
        from .sources.ingest import ingest_images, ingest_images_multi

        if not image_path and not csv_path:
            raise ValueError("must provide an image directory and/or a csv path")
        self.image_columns = [image_columns] if isinstance(image_columns, str) else list(image_columns)
        if len(self.image_columns) > 1:
            if not csv_path:
                raise ValueError("multiple image columns require a csv path "
                                 "(each column lists that row's image file)")
            self.data = ingest_images_multi(image_path or None, csv_path, self.image_columns)
        else:
            self.data = ingest_images(image_path or None, csv_path or None,
                                      self.image_columns[0])
        return self.data

    # -------------------------------------------------------- featurizing

    def featurize_preloaded_data(self, batch_size: int = 64) -> pd.DataFrame:
        if self.data is None:
            raise ValueError("must load data before featurizing (call load_data)")
        self._check_max_rows()
        from .pipelines.featurize import featurize_images

        if len(self.image_columns) > 1:
            return self._featurize_multi(batch_size)
        out = featurize_images(
            self.data, model_str=self.model_name, depth=self.depth,
            downsample=self.autosample, num_pooled_features=self.downsample_size,
            batch_size=batch_size,
        ).to_pandas().sort_values("image_id").reset_index(drop=True)
        col = self.image_columns[0] if self.image_columns else "images"
        self.features = explode_features(out, col)
        passthrough = out[["image_id", "caption"]].rename(columns={"image_id": col})
        self.full_dataframe = pd.concat([passthrough, self.features], axis=1)
        return self.full_dataframe

    def _featurize_multi(self, batch_size: int) -> pd.DataFrame:
        """Every listed column featurized by its own chained map stage;
        per-column features land side by side in the same rows (the
        reference's positional ``pd.concat(axis=1)``, M9, is implicit
        because features are computed in-line)."""
        from .pipelines.featurize import featurize_images

        out = featurize_images(
            self.data, model_str=self.model_name, depth=self.depth,
            downsample=self.autosample, num_pooled_features=self.downsample_size,
            image_columns=self.image_columns, batch_size=batch_size,
        ).to_pandas().sort_values("row_id").reset_index(drop=True)
        feats = [
            explode_features(out, col, features_col=f"{col}_features",
                             missing_col=f"{col}_missing")
            for col in self.image_columns
        ]
        self.features = pd.concat(feats, axis=1)
        passthrough = out[[f"{c}_path" for c in self.image_columns]].rename(
            columns={f"{c}_path": c for c in self.image_columns}
        )
        self.full_dataframe = pd.concat([passthrough, self.features], axis=1)
        return self.full_dataframe

    def _check_max_rows(self):
        """Refuse to materialize a corpus past the pandas-return bound
        (count() is metadata-cheap on the ingest table)."""
        n = self.data.count()
        if n > self.max_rows:
            raise ValueError(
                f"corpus has {n} rows > max_rows={self.max_rows}: the pandas "
                "return would materialize it on the driver. Use "
                "featurize_to_parquet()/featurize_to_csv() (streaming), or "
                "raise max_rows if the driver really has the memory.")

    def featurize_to_parquet(self, out_dir: str, batch_size: int = 64,
                             format: str = "parquet") -> str:
        """STREAMING scale sink: featurize the loaded data and write a
        table — no driver-side materialization anywhere (the 100 TB
        path; resume via ``state.checkpoint`` if needed). ``format``
        dispatches through ``sources.sinks`` (parquet is built in)."""
        if self.data is None:
            raise ValueError("must load data before featurizing (call load_data)")
        from .pipelines.featurize import featurize_images
        from .sources.sinks import write_table

        ds = featurize_images(
            self.data, model_str=self.model_name, depth=self.depth,
            downsample=self.autosample, num_pooled_features=self.downsample_size,
            image_columns=self.image_columns if len(self.image_columns) > 1 else "bytes",
            batch_size=batch_size,
        )
        write_table(ds, out_dir, format=format)
        return out_dir

    def featurize_to_csv(self, new_csv_path: str = "featurized.csv",
                         batch_size: int = 64, save_features: bool = False,
                         **naming_kwargs) -> str:
        """STREAMING conformance CSV: distributed sort by image_id, then
        batch-streamed append — byte-identical to ``save_csv`` output
        without ever holding the featurized corpus on the driver
        (single-column sources; multi-column exports use save_csv)."""
        if self.data is None:
            raise ValueError("must load data before featurizing (call load_data)")
        if len(self.image_columns) > 1:
            raise ValueError("featurize_to_csv supports single-column sources; "
                             "use featurize() + save_csv() for multi-column")
        from .pipelines.conformance import stream_conformance_csv
        from .pipelines.featurize import featurize_images

        ds = featurize_images(
            self.data, model_str=self.model_name, depth=self.depth,
            downsample=self.autosample, num_pooled_features=self.downsample_size,
            batch_size=batch_size,
        )
        col = self.image_columns[0] if self.image_columns else "images"
        return stream_conformance_csv(
            ds, new_csv_path, image_column_header=col,
            model_str=self.model_name, depth=self.depth,
            save_features=save_features,
            original_cols=["image_id", "caption"],  # the save_csv layout
            **naming_kwargs)

    def featurize(self, image_columns: str | list[str] = "images",
                  image_path: str = "", csv_path: str = "",
                  batch_size: int = 64, save_csv: bool = False,
                  **csv_kwargs) -> pd.DataFrame:
        """One-shot path (reference ``featurize``,
        image_featurizer.py:362-482): load → embed → (optional CSV)."""
        self.load_data(image_columns, image_path, csv_path)
        df = self.featurize_preloaded_data(batch_size=batch_size)
        if save_csv:
            self.save_csv(**csv_kwargs)
        return df

    # ------------------------------------------------------------- saving

    def save_csv(self, new_csv_path: str = "featurized.csv",
                 save_features: bool = False, **naming_kwargs) -> str:
        if self.full_dataframe is None:
            raise ValueError("must featurize before saving")
        if len(self.image_columns) > 1:
            import os

            from .pipelines.conformance import robust_name

            path = robust_name(new_csv_path, model_str=self.model_name,
                               depth=self.depth, num_features=self.num_features,
                               **naming_kwargs)
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            full = self.full_dataframe.sort_values(self.image_columns[0]).reset_index(drop=True)
            full.to_csv(path, index=False)
            if save_features:
                feat_cols = [c for c in full.columns
                             if "_feat_" in c or c.endswith("_missing")]
                full[[self.image_columns[0]] + feat_cols].to_csv(
                    path.replace(".csv", "_features_only.csv"), index=False)
            return path
        col = self.image_columns[0] if self.image_columns else "images"
        # full_dataframe already holds exploded features; rebuild the
        # compact frame the writer expects
        compact = pd.DataFrame({
            "image_id": self.full_dataframe[col],
            "caption": self.full_dataframe["caption"],
            "missing": self.full_dataframe[f"{col}_missing"],
            "features": list(
                self.full_dataframe[[c for c in self.full_dataframe.columns
                                     if c.startswith(f"{col}_feat_")]].to_numpy(dtype=np.float32)
            ),
        })
        return save_conformance_csv(
            compact, new_csv_path, image_column_header=col,
            model_str=self.model_name, depth=self.depth,
            save_features=save_features, **naming_kwargs,
        )
