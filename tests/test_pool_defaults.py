"""Library actor-pool stages at their default ``concurrency`` leave a CPU
free for the tasks around the pool, so they finish on a 2-CPU session."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from test_warm_featurize import REPO, _session_members

DRIVER = r"""
import sys

import ray
import ray.data as rd

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
rd.DataContext.get_current().enable_progress_bars = False
from pic2vec_ray.stages.pool import fixed_pool
from pic2vec_ray.stages.text import quality_filter
from pic2vec_ray.stages.tokenizer import PINNED_MERGES, bpe_tokenize

assert fixed_pool() == 1, fixed_pool()
docs = rd.read_parquet(sys.argv[1] + "/documents.parquet", columns=["doc_id", "text"])
kept = quality_filter(docs, cutoff=0.0).count()
counted = bpe_tokenize(docs, PINNED_MERGES).to_pandas()
assert len(counted) == docs.count() and kept > 0, (kept, len(counted))
print("ok", kept, len(counted))
ray.shutdown()
"""


def test_pool_defaults_finish_on_two_cpus(sf_dir, tmp_path):
    env = {**os.environ, "PYTHONPATH": REPO}
    env.pop("RAY_ADDRESS", None)
    with open(tmp_path / "driver.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, "-c", DRIVER, sf_dir], cwd=REPO, env=env,
                                start_new_session=True, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    text = (tmp_path / "driver.log").read_text(errors="replace")[-3000:]
    deadline = time.time() + 20
    while (left := _session_members(proc.pid)) and time.time() < deadline:
        time.sleep(0.2)
    for pid, _ in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, f"exit {proc.returncode} (killed after 120 s?):\n{text}"
    assert "ok" in text, text
    assert not left, f"processes still alive 20 s after ray.shutdown(): {left}"
