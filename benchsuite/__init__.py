"""Seeded end-to-end and per-layer benchmark of ``pic2vec_ray``.

Run ``python3 benchsuite/run.py --workload headline --seed 1 --seconds 12
--trace 0`` from the repository root; see ``benchsuite/README.md``.
"""
