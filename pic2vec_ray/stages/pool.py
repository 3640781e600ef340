"""The one sizing rule for fixed actor pools."""

from __future__ import annotations


def fixed_pool(n: int = 4) -> int:
    """Size of a fixed actor pool: ``n`` actors, but at least one cluster
    CPU left for the tasks around the pool. A pool holding every CPU
    starves them and never finishes (a pool of 4 on a 4-CPU session
    hangs ``quality_filter`` and ``bpe_tokenize``)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", n + 1)) if ray.is_initialized() else n + 1
    return max(1, min(n, cpus - 1))
