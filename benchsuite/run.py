"""Benchmark entry point.

    python3 benchsuite/run.py --workload {headline,temporal} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. It generates the workload's inputs from the
seed (outside all timing), sets up a Ray session sized from this process's
CPU affinity several times and reports the median set-up time, runs whole
rounds of the workload for ``--seconds``, checks the last round's outputs
and prints one JSON object as the last line of stdout. With ``--trace 1``
the JSON carries the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 2           # set-ups per run; setup_s is their median
# Ray's AF_UNIX socket paths must fit in 107 bytes; under its temp dir they
# take "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store": 64 more
RAY_TEMP_MAX = 107 - 64
OBJECT_STORE_MB = 512

END_TO_END = {"setup_s": "s", "task_cpu_ms_per_item": "ms", "cpu_s_per_round": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "wall.round_items_per_s": "items/s",
    "wall.asof_rows_per_s": "rows/s",
    "cpu.asof_us_per_row": "us",
    "pipelines.featurize.featurize_s": "s",
    **{f"codecs.decode_ms.{c}": "ms" for c in ("jpeg", "png", "bmp", "reject")},
    "functions.image_ops.resize_ms": "ms",
    "functions.image_ops.normalize_ms": "ms",
    "functions.image_ops.phash_ms": "ms",
    "model.zoo.forward_ms": "ms",
    **{f"model.zoo.layer_ms.conv{i}": "ms" for i in (1, 2, 3, 4)},
    "model.zoo.build_s": "s",
    "stages.embed.call_ms": "ms",
    **{f"ray.{c}.{k}": "s" for c in ("read", "embed", "write", "exchange", "merge")
       for k in ("wall_s", "cpu_s")},
    "ray.floor_s": "s",
    "ray.settle_s": "s",
    "temporal.core.exchange_s": "s",
    **{f"temporal.asof.{p}_s": "s" for p in ("shuffle", "broadcast", "salted")},
    **{f"temporal.windows.{w}_s": "s" for w in ("rolling", "ewma", "sessionize")},
    "stages.dedup.groups_s": "s",
    "stages.dedup.cc_s": "s",
    "stages.dedup.split_components": "count",
    "trace.overhead_pct": "%",
}


T_START = time.perf_counter()


def log(msg: str):
    print(f"[{time.perf_counter() - T_START:7.2f}s] {msg}", flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["headline", "temporal"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args()


def ray_temp_dir() -> str:
    """A fresh directory for the Ray session, removed at exit. It lies in
    the checkout unless the checkout's path is too long for the session's
    socket names; then in the system temp dir."""
    inside = len(os.path.join(ROOT, ".brXXXXXXXX")) <= RAY_TEMP_MAX
    return tempfile.mkdtemp(prefix=".br", dir=ROOT if inside else None)


class Session:
    """One Ray session sized from this process's CPU affinity."""

    def __init__(self, temp_dir: str):
        self.temp_dir = temp_dir
        self.cpus = len(os.sched_getaffinity(0))

    def start(self):
        import ray
        from ray.data import DataContext

        ray.init(num_cpus=self.cpus, include_dashboard=False,
                 logging_level=logging.ERROR, log_to_driver=False,
                 object_store_memory=OBJECT_STORE_MB << 20,
                 _temp_dir=self.temp_dir)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        for name in ("ray", "ray.data"):
            logging.getLogger(name).setLevel(logging.ERROR)

    def stop(self):
        import ray

        from benchsuite.procstat import process_tree

        if ray.is_initialized():
            ray.shutdown()
        deadline = time.time() + 20
        while time.time() < deadline:
            _reap()
            rest = [p for p in process_tree(os.getpid()) if p != os.getpid()]
            if not rest:
                return
            time.sleep(0.1)
        for pid in rest:  # anything Ray left behind
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.time() + 10
        while time.time() < deadline and _reap() is not None:
            time.sleep(0.1)


def _reap():
    """Collect exited children; None once no child process is left."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        return None
    return True


def warm_up(warm_images: str, work: str):
    """Spawn workers and actors, build the model, run one tiny exchange."""
    import ray.data as rd

    from pic2vec_ray.model.zoo import build_featurizer
    from pic2vec_ray.pipelines.featurize import featurize_images
    from pic2vec_ray.temporal.core import partitioned_apply

    build_featurizer("tinynet", 1)
    featurize_images(warm_images).write_parquet(os.path.join(work, "warm", "f"))
    partitioned_apply(rd.read_parquet(warm_images, columns=["image_id"]),
                      "image_id", lambda df: df, num_partitions=4).materialize()
    shutil.rmtree(os.path.join(work, "warm"), ignore_errors=True)


def make_inputs(name: str, seed: int, cache: str, work: str) -> dict:
    from benchsuite import inputs

    if name == "headline":
        return inputs.headline(seed, cache, os.path.join(work, "in"))
    return inputs.temporal(seed, os.path.join(work, "in"))


# ------------------------------------------------------------ checks

def _read(path: str):
    import pyarrow.parquet as pq

    return pq.read_table(path).to_pandas()


def in_process_hashes(table) -> tuple:
    """(keys, hashes) of every decodable row, hashed in this process."""
    import numpy as np

    from pic2vec_ray.codecs.registry import DecodeError, decode_image
    from pic2vec_ray.functions.image_ops import average_hash

    keys, hashes = [], []
    for key, data in zip(table["img_key"].to_pylist(), table["bytes"].to_pylist()):
        try:
            img = decode_image(data)
        except DecodeError:
            continue
        keys.append(key)
        hashes.append(average_hash(img))
    return np.array(keys, dtype=np.int64), np.array(hashes, dtype=np.int64)


def refeaturize_sample(images, seed: int, per_class: int = 6) -> dict:
    """image_id -> vector from EmbedActor called on one row at a time, for a
    seeded sample holding every codec and the undecodable rows."""
    import numpy as np

    from benchsuite.probes import codec_class
    from pic2vec_ray.stages.embed import EmbedActor

    rng = np.random.default_rng([seed, 9])
    cls = np.array([codec_class(b) for b in images["bytes"].to_pylist()])
    pick = np.concatenate([rng.choice(np.flatnonzero(cls == c),
                                      min(per_class, int((cls == c).sum())),
                                      replace=False)
                           for c in ("jpeg", "png", "bmp", "reject")])
    actor = EmbedActor()
    out = {}
    for i in sorted(pick.tolist()):
        row = images.slice(i, 1)
        out[row["image_id"][0].as_py()] = np.asarray(
            actor(row)["features"][0].as_py(), dtype=np.float32)
    return out


def check_outputs(wl, data: dict, work: str) -> tuple[list[str], dict[str, list[str]]]:
    """Errors on the last round's outputs; and, by step, the errors of the
    one call of that step whose output is wrong on every seed because of a
    known fault. Such a call counts as failed in every round that ran the
    step, not the run as incorrect: ``ewma_range``, whose input holds a
    fixed witness of its rounding fault (``inputs.WITNESS_USER``;
    CHANGES.md, FOUND)."""
    from benchsuite import checks, inputs
    from benchsuite.workloads import SESSION_GAP
    from pic2vec_ray.pipelines.queries import SQL_EWMA

    out = lambda name: os.path.join(work, "out", name)  # noqa: E731
    if wl.name == "headline":
        images = data["images"].select(["image_id", "bytes"]).to_pandas()
        feats = _read(out("features"))
        errs = checks.check_features(images, feats,
                                     refeaturize_sample(data["images"], data["seed"]))
        versions = inputs.feature_versions(data["keys"], data["seed"])
        versions["feature_ts"] = versions["feature_ts"].astype("datetime64[us]")
        errs += checks.check_asof(data["obs"].to_pandas(), versions, feats,
                                  _read(out("asof")))
        return errs, {}
    p = data["paths"]
    obs, events = _read(p["obs"]), _read(p["events"])
    errs = checks.check_pit(obs, _read(p["eng"]), _read(out("pit_eng")), strict=True)
    errs += checks.check_pit(obs, _read(p["buy"]), _read(out("pit_buy")), strict=True)
    errs += checks.check_pit(obs, _read(p["allev"]), _read(out("salted")), strict=False)
    errs += checks.check_rolling(events, _read(out("roll_sum")), _read(out("roll_cnt")))
    errs += checks.check_sessions(events, _read(out("sessions")),
                                  int(SESSION_GAP.total_seconds() // 60))
    ewma = checks.check_ewma(events, _read(out("ewma")), SQL_EWMA)
    return errs, ({"windows": [f"ewma_range: {e}" for e in ewma]} if ewma else {})


def check_imagedup(data: dict, groups) -> tuple[list[str], dict]:
    """Near-duplicate groups of the image-dedup corpus against the exact graph."""
    from benchsuite import checks

    table = data["table"]
    keys, hashes = in_process_hashes(table)
    t = table.to_pandas()
    lossless = t[t.variant.isin(["png", "bmp", "edit2_png"])]
    errs, split = checks.check_groups(
        keys, hashes, dict(zip(lossless.img_key, lossless.phash)), groups)
    return errs, {"split_components": split, "keys": keys, "hashes": hashes}


def input_makeup(name: str, data: dict) -> dict:
    """Measured make-up of the generated input, printed with every run."""
    import pandas as pd

    if name == "temporal":
        ev = data["events"]
        counts = ev.user_id.value_counts()
        return {"events": len(ev), "observations": len(data["obs"]),
                "users": int(counts.size),
                "top3_user_share": round(float(counts.iloc[:3].sum() / len(ev)), 4),
                "users_over_1pct": int((counts / len(ev) > 0.01).sum()),
                "event_types": ev.event_type.value_counts(normalize=True).round(3).to_dict(),
                "tied_ts_share": round(float(ev.duplicated(["user_id", "ts"]).mean()), 4)}
    if name == "headline":
        table = data["images"]
        roles = table["image_id"].to_pandas().str[4:].astype(int) % 20
        undecodable = roles.isin([17, 18, 19]).to_numpy()
    else:
        table = data["table"]
        undecodable = (table["variant"].to_pandas() == "garbage").to_numpy()
    payloads = table["bytes"].to_pylist()
    fmts = pd.Series(table["fmt"].to_pylist())[~undecodable]
    n = len(payloads)
    rec = {"images": n,
           **{f"{c}_share": round(float((fmts == c).sum()) / n, 4)
              for c in ("jpeg", "png", "bmp")},
           "undecodable_share": round(float(undecodable.mean()), 4),
           "byte_duplicate_share": round(1 - len(set(payloads)) / n, 4)}
    if name == "imagedup":
        t = table.to_pandas()
        same_px = t[t.variant.isin(["png", "bmp"])].groupby("source").bytes.nunique()
        rec["same_pixel_share"] = round(float((same_px > 1).sum() * 2) / n, 4)
        rec["near_dup_chains"] = int((t.variant == "edit1_jpeg").sum())
    else:
        rec["observations"] = len(data["obs"])
        rec["obs_per_image"] = round(len(data["obs"]) / n, 1)
    return rec


# ------------------------------------------------------------ traced probes

def traced_layers(wl, data: dict, tracer, cache: str,
                  work: str, seed: int) -> tuple[dict, list[str], list[str]]:
    """Every per-layer metric, notes on where each was measured, and the
    errors of the image-dedup check. A layer the workload does not run is
    probed on the same seed's input of the workload that runs it; the
    image-dedup layers run on their own seeded corpus."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from benchsuite import inputs, probes
    from pic2vec_ray.temporal.skew import detect_hot_keys

    notes = []
    m: dict[str, float] = {}
    rounds = sorted(r for r in tracer.ray if r >= 0)
    for cat in ("read", "embed", "write", "exchange", "merge"):
        m[f"ray.{cat}.wall_s"] = statistics.median(tracer.ray[r][cat][0] for r in rounds)
        m[f"ray.{cat}.cpu_s"] = statistics.median(tracer.ray[r][cat][1] for r in rounds)
    walls = [sum(w) for w in tracer.round_walls]
    m["trace.overhead_pct"] = 100 * sum(tracer.overhead_s[r] for r in rounds) / sum(walls)
    tracer.round = -1  # probes below are not part of any timed round
    m["ray.floor_s"] = probes.floor_s(wl.step_inputs())
    m["temporal.core.exchange_s"] = probes.exchange_s(wl.exchange_inputs())

    if wl.name == "headline":
        images = data["images"]
        right, right_vec = (os.path.join(work, f"probe_{n}.parquet")
                            for n in ("right", "right_vec"))
        feats = pq.read_table(os.path.join(work, "out", "features")).combine_chunks()
        versions = inputs.add_feature_ts(seed)
        pq.write_table(versions(feats), right_vec)
        pq.write_table(versions(feats.drop(["features"])), right)
        hot = data["obs"]["image_id"].to_pandas().value_counts().index[:4].tolist()
        asof = (data["paths"]["obs"], right, "image_id", hot)
        windows = (data["paths"]["obs"], "image_id", "value", "obs_id")
        notes.append("as-of plans: this run's observations against feature versions "
                     "without the vectors, salted on the 4 most observed images; "
                     "windows: observations by image_id")
        notes.append("salted as-of with the feature vectors on the right side: "
                     + probes.salted_with_vectors(data["paths"]["obs"], right_vec,
                                                  "image_id", hot)
                     + " (CHANGES.md, FOUND), so the plans are timed without them")
    else:
        head = inputs.headline(seed, cache, os.path.join(work, "probe_h"))
        images = head["images"]
        p = data["paths"]
        hot = detect_hot_keys(rd.read_parquet(p["events"]), "user_id")
        asof = (p["obs"], p["allev"], "user_id", hot)
        windows = (p["events"], "user_id", "amount", "event_id")
        notes.append("image and model layers: headline corpus of this seed "
                     "(temporal has no images)")
    m["pipelines.featurize.featurize_s"] = probes.featurize_s(
        (data if wl.name == "headline" else head)["paths"]["images"],
        os.path.join(work, "probe_features"))
    m.update(probes.image_layers(images["bytes"].to_pylist(),
                                 images.select(["image_id", "bytes"])))
    m.update(probes.model_layers())
    m.update(probes.asof_plans(*asof))
    m.update(probes.window_ops(*windows))

    ddata = inputs.imagedup(seed, cache, os.path.join(work, "probe_d"))
    log(f"image-dedup corpus: {json.dumps(input_makeup('imagedup', ddata))}")
    m["stages.dedup.groups_s"], groups = probes.groups(ddata["paths"]["images"])
    errs, side = check_imagedup(ddata, groups)
    m["stages.dedup.split_components"] = side["split_components"]
    m["stages.dedup.cc_s"] = probes.cc_s(side["keys"], side["hashes"])
    return m, notes, errs


# ------------------------------------------------------------ main

def main() -> int:
    args = parse_args()
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    t_import = time.perf_counter()
    try:
        import ray  # noqa: F401

        from benchsuite import workloads  # imports the engine's modules
    except ImportError as err:
        print(f"cannot import the engine from {ROOT}: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import

    from benchsuite import inputs, probes, procstat
    from benchsuite.trace import Tracer

    cache = os.path.join(ROOT, ".bench_cache")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    session = Session(ray_temp_dir())
    host = procstat.host_record()
    host["ray_cpus"] = session.cpus
    host["ray_temp_dir"] = session.temp_dir
    log(f"host: {json.dumps(host)}")
    try:
        data = make_inputs(args.workload, args.seed, cache, work)
        warm_images = os.path.join(work, "in", "warm.parquet")
        inputs.warm_images(cache, warm_images)
        log(f"input: {json.dumps(input_makeup(args.workload, data))}")

        setups = []
        for i in range(SETUPS):
            t = time.perf_counter()
            session.start()
            warm_up(warm_images, work)
            setups.append(import_s + time.perf_counter() - t)
            if i < SETUPS - 1:
                session.stop()
        log(f"setup_s: {[round(s, 3) for s in setups]}")

        tracer = Tracer(bool(args.trace))
        wl = workloads.WORKLOADS[args.workload](data, work, tracer)
        attempted = failed = 0
        last_ok = -1
        settles, round_cpu = [], []
        step_ok = dict.fromkeys(wl.steps, 0)  # rounds each step ran without raising
        jif0 = procstat.cpu_jiffies()
        t_start = time.perf_counter()
        with procstat.TreeSampler(os.getpid()) as tree:
            while True:
                tracer.round = len(tracer.round_walls)
                walls, ok = [], True
                settles.append(0.0)
                cpu0 = tree.cpu_s()
                for step, ops in zip(wl.steps, wl.step_ops):
                    attempted += ops
                    tracer.step = step
                    # the wait for the previous step's CPUs is the caller's
                    # too: it is part of the step's wall
                    t = time.perf_counter()
                    settles[-1] += probes.settle()
                    try:
                        wl.run_step(step)
                        step_ok[step] += 1
                    except Exception:  # count it and keep measuring
                        traceback.print_exc()
                        failed += ops
                        ok = False
                    walls.append(time.perf_counter() - t)
                    cpu1 = tree.cpu_s()
                round_cpu.append(cpu1 - cpu0)
                tracer.round_walls.append(walls)
                if ok:
                    last_ok = tracer.round
                log(f"round {tracer.round}: " + ", ".join(
                    f"{s} {w:.3f}s" for s, w in zip(wl.steps, walls))
                    + f"; settle {settles[-1]:.3f}s, CPU {round_cpu[-1]:.2f}s")
                if time.perf_counter() - t_start >= args.seconds:
                    break
        n_rounds = len(tracer.round_walls)
        steal = procstat.steal_pct(jif0, procstat.cpu_jiffies())
        log(f"timed window: {time.perf_counter() - t_start:.2f}s, {n_rounds} rounds, "
            f"steal {steal:.2f}%, settle (gc and wait for free CPUs) per round: "
            f"median {statistics.median(settles):.3f}s, max {max(settles):.3f}s")

        errs, op_errs = (check_outputs(wl, data, work) if last_ok == n_rounds - 1
                         else (["the last round failed"], {}))
        for e in errs:
            log(f"CHECK FAILED: {e}")
        for step, e in op_errs.items():
            # the same call on the same input in every round that ran the step
            failed += step_ok[step]
            log(f"CALL FAILED in every round of step {step}: " + "; ".join(e))
        log(f"checks: {'pass' if not errs else 'FAIL'}")

        walls = tracer.round_walls
        k = wl.steps.index(wl.asof_step)
        log("step medians: " + ", ".join(
            f"{s} {statistics.median(w[i] for w in walls):.3f}s"
            for i, s in enumerate(wl.steps)))
        rounds = range(n_rounds)
        e2e = {
            "setup_s": statistics.median(setups),
            "task_cpu_ms_per_item": statistics.median(
                1e3 * sum(tracer.step_cpu[r].values()) / wl.round_items for r in rounds),
            "cpu_s_per_round": statistics.median(round_cpu),
            "peak_rss_mb": tree.peak_mb,
        }
        wall = {  # printed by every run; per-layer metrics of a traced run
            "wall.round_items_per_s": statistics.median(wl.round_items / sum(w) for w in walls),
            "wall.asof_rows_per_s": statistics.median(wl.asof_rows / w[k] for w in walls),
            "cpu.asof_us_per_row": statistics.median(
                1e6 * tracer.step_cpu[r][wl.asof_step] / wl.asof_rows for r in rounds),
            "ray.settle_s": statistics.median(settles),
        }
        for k, v in e2e.items():
            log(f"  {k:24s} {v:12.4f} {END_TO_END[k]}")
        for k, v in wall.items():
            log(f"  {k:24s} {v:12.4f} {PER_LAYER[k]}")
        if args.trace:
            layer, notes, dedup_errs = traced_layers(wl, data, tracer, cache, work,
                                                     args.seed)
            layer.update(wall)
            for e in dedup_errs:
                log(f"CHECK FAILED: {e}")
            errs += dedup_errs
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            tracer.dump(os.path.join(ROOT, ".bench_out",
                                     f"spans-{args.workload}-seed{args.seed}.json"))
            for name in sorted({sp["name"] for sp in tracer.spans}):
                log(f"span {name}: median per round "
                    f"{statistics.median(tracer.span_totals(name)):.3f}s")
            over = layer["trace.overhead_pct"]
            log(f"per-layer ({args.workload}; tracing overhead {over:.3f}% of the "
                "round wall, measured around the spans and stats calls):")
            for k in PER_LAYER:
                log(f"  {k:36s} {layer[k]:12.4f} {PER_LAYER[k]:5s} overhead {over:.3f}%")
            for n in notes:
                log(f"  note: {n}")
            metrics = {k: {"value": float(layer[k]), "unit": u} for k, u in PER_LAYER.items()}
        else:
            metrics = {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in e2e.items()}
        bad = [k for k, v in metrics.items() if v["value"] != v["value"]]
        if bad:
            errs.append(f"metrics not measured: {bad}")
        result = {"correct": not errs, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
    finally:
        log("stopping the Ray session")
        session.stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(session.temp_dir, ignore_errors=True)
    log("done")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
