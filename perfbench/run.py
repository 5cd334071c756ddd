"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload beam-insitu --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the run record,
which is also stored under ``.perfbench/records/``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SETUPS = 3


def _bootstrap() -> None:
    """Put the checkout's ``src`` and the benchmark package on the path,
    refusing to run against anything but the checkout's own sources."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}/repro; run from a checkout root")
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent.parent)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


WORKLOADS = ("beam-insitu", "beam-outofcore", "remote-explore", "fieldlines")


def make_workload(name: str, seed: int, work_dir: Path, size: str):
    from perfbench.beam import BeamInsitu, BeamOutOfCore
    from perfbench.fieldlines import FieldLines
    from perfbench.remote import RemoteExplore

    cls = {
        "beam-insitu": BeamInsitu,
        "beam-outofcore": BeamOutOfCore,
        "remote-explore": RemoteExplore,
        "fieldlines": FieldLines,
    }[name]
    return cls(seed, work_dir, size=size)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def set_up(name, seed, work_dir, size):
    """Set up ``SETUPS`` times (inputs plus one untimed, checked warm-up
    item) and keep the last; returns the workload and the set-up times."""
    from perfbench.harness import LayerClock

    times = []
    workload = None
    for i in range(SETUPS):
        if workload is not None:
            workload.close()
        workload = make_workload(name, seed, work_dir, size)
        t0 = time.perf_counter()
        workload.setup()
        item = workload.round_items()[0]
        workload.check(item, workload.run(item, LayerClock()))
        times.append(time.perf_counter() - t0)
    return workload, times


def end_to_end(phase, workload, setup_times):
    """The end-to-end metrics, and what the run record adds to them."""
    from perfbench import harness as h

    lat = [r.latency_ms for r in phase.items]
    pct = workload.TAIL_PERCENTILE
    if workload.name == "remote-explore":
        first = [r.marks["first_image"] for r in phase.items if r.kind == "stream"]
    else:
        first = [r.marks["first_image"] for r in phase.items]
    return {
        "setup_s": (h.median(setup_times), "s"),
        "throughput_per_s": (h.throughput(phase), "1/s"),
        "latency_ms_p50": (h.median(lat), "ms"),
        "latency_ms_tail": (h.tail(lat, pct), "ms"),
        "first_image_ms_p50": (h.median(first), "ms"),
        "peak_rss_mb": (h.read_peak_rss_mb(), "MB"),
        "bytes_per_item": (sum(r.nbytes for r in phase.items) / len(phase.items), "B"),
    }, {"tail_percentile": pct, "samples": len(lat),
        "samples_beyond_tail": sum(v > h.tail(lat, pct) for v in lat),
        "first_image_samples": len(first)}


def _layer_median(items, layer) -> float:
    from perfbench.harness import median

    return median(r.layers[layer] for r in items if layer in r.layers)


def _rate(items, count, layer) -> float:
    """Total work over total layer time, per second."""
    ms = sum(r.layers.get(layer, 0.0) for r in items)
    return sum(r.counts.get(count, 0) for r in items) / (ms / 1e3) if ms > 0 else 0.0


def per_layer(traced, untraced, snapshot, service_delta, workload):
    """The per-layer metrics of the traced phase, and what the run
    record adds to them."""
    from perfbench import harness as h

    items = traced.items
    n = len(items)
    counters = snapshot.get("counters", {})
    partition_layer = ("octree.stream_partition" if workload.name == "beam-outofcore"
                       else "octree.partition")
    particles_total = sum(r.counts.get("particles", 0) for r in items)
    shard_bytes = max((r.counts.get("shard_bytes", 0) for r in items), default=0)
    fc_hit = counters.get("frame_cache_hit", 0)
    fc_miss = counters.get("frame_cache_miss", 0)
    extract_spans = [s for path, s in snapshot.get("spans", {}).items()
                     if path.rsplit("/", 1)[-1] == "service_extract"]
    extract_count = sum(s["count"] for s in extract_spans)
    extract_wall = sum(s["wall"] for s in extract_spans)
    hits = service_delta.get("cache_hits", 0)
    misses = service_delta.get("cache_misses", 0)
    untraced_rate = h.throughput(untraced)
    traced_rate = h.throughput(traced)

    def kind_median(kind, layer):
        return h.median(r.layers[layer] for r in items if r.kind == kind)

    metrics = {
        "beams.simulate_ms": (_layer_median(items, "beams.simulate"), "ms"),
        "beams.particle_steps_per_s": (_rate(items, "particle_steps", "beams.simulate"), "1/s"),
        "octree.partition_ms": (_layer_median(items, "octree.partition"), "ms"),
        "octree.stream_partition_ms": (_layer_median(items, "octree.stream_partition"), "ms"),
        "octree.partition_particles_per_s": (_rate(items, "particles", partition_layer), "1/s"),
        "octree.lod_build_ms": (_layer_median(items, "octree.lod_build"), "ms"),
        "octree.extract_ms": (_layer_median(items, "octree.extract"), "ms"),
        "octree.points_per_item": (h.median(r.counts.get("points", 0) for r in items)
                                   if workload.name.startswith("beam") else 0.0, "count"),
        "core.store_write_ms": (_layer_median(items, "core.store_write"), "ms"),
        # computed: shards opened times the full shard size
        "core.read_bytes_per_particle": (
            counters.get("store_shard_read", 0) * shard_bytes / particles_total
            if particles_total and shard_bytes else 0.0, "B"),
        "core.written_bytes_per_particle": (
            sum(r.counts.get("written_bytes", 0) for r in items) / particles_total
            if particles_total else 0.0, "B"),
        "hybrid.render_ms": (_layer_median(items, "hybrid.render"), "ms"),
        "render.geometry_cache_hit_ratio": (
            fc_hit / (fc_hit + fc_miss) if fc_hit + fc_miss else 0.0, "ratio"),
        "remote.miss_fetch_ms_p50": (kind_median("miss", "remote.fetch"), "ms"),
        "remote.hit_fetch_ms_p50": (kind_median("hit", "remote.fetch"), "ms"),
        "remote.stream_ms_p50": (kind_median("stream", "remote.stream"), "ms"),
        "remote.service_extract_ms": (
            extract_wall / extract_count * 1e3 if extract_count else 0.0, "ms"),
        "remote.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "remote.extractions": (service_delta.get("extractions", 0) / n, "count"),
        "remote.coalesced": (service_delta.get("coalesced", 0) / n, "count"),
        "fields.solve_ms": (_layer_median(items, "fields.solve"), "ms"),
        "fields.cell_updates_per_s": (_rate(items, "cell_updates", "fields.solve"), "1/s"),
        "fieldlines.seed_ms": (_layer_median(items, "fieldlines.seed"), "ms"),
        "fieldlines.integrated_points_per_s": (_rate(items, "points", "fieldlines.seed")
                                               if workload.name == "fieldlines" else 0.0,
                                               "1/s"),
        "fieldlines.strip_ms": (_layer_median(items, "fieldlines.strip"), "ms"),
        "fieldlines.raster_ms": (_layer_median(items, "fieldlines.raster"), "ms"),
        "fieldlines.strip_triangles": (h.median(r.counts.get("triangles", 0) for r in items),
                                       "count"),
        "cpu_ms_per_item": (h.median(r.cpu_ms for r in items), "ms"),
        "unattributed_ms": (h.median(r.latency_ms - sum(r.layers.values()) for r in items),
                            "ms"),
        "trace_overhead_pct": ((untraced_rate / traced_rate - 1.0) * 100.0
                               if traced_rate else 0.0, "%"),
    }
    accounted = [sum(r.layers.values()) / r.latency_ms for r in items if r.latency_ms > 0]
    return metrics, {"accounted_share_min": min(accounted, default=0.0),
                     "accounted_share_p50": h.median(accounted)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    _bootstrap()

    import numpy
    import scipy

    from perfbench.harness import run_phase
    from repro.api import capture

    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workload = None
    try:
        workload, setup_times = set_up(args.workload, args.seed, work_dir, args.size)
        if args.trace:
            untraced = run_phase(workload, args.seconds / 2)
            stats0 = workload.service_stats() if hasattr(workload, "service_stats") else {}
            with capture(enabled=True) as tracer:
                phase = run_phase(workload, args.seconds / 2)
            stats1 = workload.service_stats() if hasattr(workload, "service_stats") else {}
            delta = {k: stats1[k] - stats0[k] for k in stats1
                     if isinstance(stats1[k], (int, float))}
            metrics, extra = per_layer(phase, untraced, tracer.snapshot(), delta, workload)
            phases = (untraced, phase)
        else:
            phase = run_phase(workload, args.seconds)
            metrics, extra = end_to_end(phase, workload, setup_times)
            phases = (phase,)
        describe = workload.describe()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(p.items) + p.failed for p in phases)
    failed = sum(p.failed for p in phases)
    correct = all(p.correct for p in phases)
    errors = [e for p in phases for e in p.errors]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "inputs": describe["inputs"],
        "reads": describe["reads"],
        "attempted": attempted,
        "failed": failed,
        "setup_times_s": setup_times,
        **extra,
        "errors": errors[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for key, value in record.items():
        print(f"# {key}: {json.dumps(value)}")
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (records / name).write_text(json.dumps(record, indent=2) + "\n")
    result = {
        "correct": correct and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
