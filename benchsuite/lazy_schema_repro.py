"""Standalone reproduction of the lazy-schema abort.

    python3 benchsuite/lazy_schema_repro.py [--calls 600] [--mode lazy]

Calls ``Dataset.schema()`` on a fresh, unexecuted ``read_parquet ->
map_batches`` plan in a loop: the probe ``temporal/asof.py:_arrow_schema``
makes on every side handed to ``asof_join`` (and ``hash_join``). On Ray
2.49.2 this sometimes aborts the driving process with a failed check in
``task_manager.cc`` ("Tried to complete task that was not pending") or
``reference_count.cc`` ("submitted_task_ref_count > 0"). ``--mode
materialized`` and ``--mode read`` run the same loop on a materialized
dataset and on a bare ``read_parquet``, the two controls.

The loop runs in a child process in its own process group, so an abort
cannot take this process down: afterwards every process left in that
group (the aborted session's Ray daemons) is killed and the work
directory, made under the current directory, is removed. Exit code 0: no
abort; 1: the child aborted (its exit status is printed).
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time


def child(args) -> int:
    import ray
    import ray.data as rd

    ray.init(num_cpus=len(os.sched_getaffinity(0)), include_dashboard=False,
             log_to_driver=False, _temp_dir=os.path.join(args.work, "ray"))
    rd.DataContext.get_current().enable_progress_bars = False
    path = os.path.join(args.work, "t.parquet")
    t = time.perf_counter()
    for i in range(args.calls):
        ds = rd.read_parquet(path)
        if args.mode == "lazy":
            ds = ds.map_batches(lambda b: b, batch_format="pyarrow")
        elif args.mode == "materialized":
            ds = ds.map_batches(lambda b: b, batch_format="pyarrow").materialize()
        ds.schema()
        if (i + 1) % 50 == 0:
            print(f"{i + 1} calls, {time.perf_counter() - t:.1f}s", flush=True)
    ray.shutdown()
    return 0


def _group_alive(pgid: int) -> bool:
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    raw = f.read()
            except OSError:
                continue
            fields = raw[raw.rindex(")") + 2:].split()
            if fields[0] != "Z" and int(fields[2]) == pgid:
                return True
    return False


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--calls", type=int, default=600)
    p.add_argument("--mode", choices=["lazy", "materialized", "read"], default="lazy")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.child:
        return child(args)

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    work = os.path.abspath(".lazy_schema_repro")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        pq.write_table(pa.table({"k": np.arange(1000),
                                 "v": np.random.default_rng(0).random(1000)}),
                       os.path.join(work, "t.parquet"))
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", "--work", work,
             "--calls", str(args.calls), "--mode", args.mode],
            start_new_session=True)
        rc = proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.time() + 10
        while _group_alive(proc.pid) and time.time() < deadline:
            time.sleep(0.1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc == 0:
        print(f"{args.calls} schema() calls in mode {args.mode}: no abort")
        return 0
    print(f"mode {args.mode}: the process driving Ray aborted (exit status {rc})")
    return 1


if __name__ == "__main__":
    sys.exit(main())
