"""Format-agnostic table sink/source registry.

Parquet is the table contract: ``Dataset.write_parquet`` /
``ray.data.read_parquet`` — streaming, partitioned, resumable. Every
pipeline-facing write goes through :func:`write_table` and reads
through :func:`read_table`, which dispatch on a format registry, so a
further format is one :func:`register_format` call, not a pipeline
edit.
"""

from __future__ import annotations

from typing import Callable

_WRITERS: dict[str, Callable] = {}
_READERS: dict[str, Callable] = {}


def register_format(name: str, writer: Callable, reader: Callable) -> None:
    _WRITERS[name] = writer
    _READERS[name] = reader


def available_formats() -> list[str]:
    return sorted(_WRITERS)


def _write_parquet(ds, path: str, **kwargs):
    return ds.write_parquet(path, **kwargs)


def _read_parquet(path: str, **kwargs):
    import ray.data as rd

    return rd.read_parquet(path, **kwargs)


register_format("parquet", _write_parquet, _read_parquet)


def write_table(ds, path: str, *, format: str = "parquet", **kwargs):
    """Write a Dataset through the registered sink for ``format``."""
    if format not in _WRITERS:
        raise ValueError(f"unknown sink format {format!r}; available: "
                         f"{available_formats()}")
    return _WRITERS[format](ds, path, **kwargs)


def read_table(path: str, *, format: str | None = None, **kwargs):
    """Read a table written by :func:`write_table` (parquet unless
    ``format`` names another registered source)."""
    fmt = format or detect_format(path)
    if fmt not in _READERS:
        raise ValueError(f"unknown source format {fmt!r}; available: "
                         f"{available_formats()}")
    return _READERS[fmt](path, **kwargs)


def detect_format(path: str) -> str:
    """The layout of an existing table path: always parquet, the only
    built-in format."""
    return "parquet"
