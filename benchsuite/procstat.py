"""Read-only ``/proc`` accounting for the benchmark process and its Ray session.

Every Ray process of a local session (GCS, raylet, workers) descends from
the process that called ``ray.init``, so CPU time and resident memory are
summed over that process tree. CPU time is kept per process as last
sampled: the raylet ignores SIGCHLD, so the workers it ends are reaped
without their CPU time reaching its ``cutime``, and a sum over the live
tree alone drops every actor pool that ended during a round (about 4 s of
a featurize's 5 s here).
"""

from __future__ import annotations

import os
import platform
import threading

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name may hold spaces and parentheses: split after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int, zombies: bool = False) -> list[int]:
    """``root`` and every descendant of it, exited but unreaped ones
    (zombies) only if ``zombies``."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None and (zombies or fields[0] != "Z"):
            children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


class TreeSampler:
    """Samples the tree on a thread every ``interval_s``: the peak of its
    summed RSS, and the user + system CPU seconds of every process it has
    held. A process counts up to its last sample, so one that exits between
    samples loses at most what it ran since. ``cpu_s`` samples the CPU too;
    it is called right after every timed step, while the step's actors are
    still alive."""

    def __init__(self, root: int, interval_s: float = 0.5):
        self.root = root
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._ticks: dict[tuple[int, str], int] = {}  # (pid, start time) -> CPU
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self, rss: bool = True):
        pages = 0
        with self._lock:
            for pid in process_tree(self.root, zombies=True):
                fields = _stat_fields(pid)
                if fields is None:
                    continue
                # stat(5) fields 14-15 utime, stime; 22 start time; 24 rss
                self._ticks[(pid, fields[19])] = int(fields[11]) + int(fields[12])
                pages += int(fields[21])
            if rss:
                self.peak_mb = max(self.peak_mb, pages * _PAGE / 2**20)

    def cpu_s(self) -> float:
        self._sample(rss=False)
        with self._lock:
            return sum(self._ticks.values()) / _TICK

    def _loop(self):
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()


def cpu_jiffies() -> tuple[int, int]:
    """(total, steal) jiffies of the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:]]
    return sum(vals), (vals[7] if len(vals) > 7 else 0)


def steal_pct(start: tuple[int, int], end: tuple[int, int]) -> float:
    total = end[0] - start[0]
    return 100.0 * (end[1] - start[1]) / total if total > 0 else 0.0


def host_record() -> dict:
    """CPU count and affinity, memory and library versions of this host."""
    import numpy
    import pyarrow
    import ray

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
                break
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "os_cpu_count": os.cpu_count(),
        "affinity": affinity,
        "affinity_cpus": len(affinity),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "mem_total_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "kernel": platform.release(),
    }

