"""The remote-explore workload: views fetched through the service."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from perfbench import checks
from perfbench.beam import SIGMAS, density_gap

SIZES = {
    "full": dict(frames=2, particles=200_000, shard_rows=16_384, max_level=6,
                 capacity=64, lod_levels=2, mip_base=32, mip_levels=2, resolution=32,
                 revisits=6, unit_points=8192, cache_mb=8),
    "tiny": dict(frames=2, particles=4_000, shard_rows=1_024, max_level=4,
                 capacity=32, lod_levels=2, mip_base=8, mip_levels=2, resolution=8,
                 revisits=2, unit_points=512, cache_mb=1),
}
# the share of a frame's particles that a view stores as points; flat
# fetches and progressive streams differ, so a stream never reuses a
# flat fetch's cache entry
FLAT_SHARE = 0.3
STREAM_SHARE = 0.01
MAX_ROUNDS = 1 << 20


def round_threshold(gap, round_index: int) -> float:
    """A threshold strictly inside a density gap (see
    :func:`perfbench.beam.density_gap`), different in every round.
    Every round's threshold selects the same nodes, so the work and the
    bytes repeat exactly, while the service sees a new cache key: the
    round's first fetch is a real miss."""
    lo, hi = gap
    return lo + (hi - lo) * (round_index + 1) / (MAX_ROUNDS + 2)


class RemoteExplore:
    """Views fetched through :class:`VisualizationService` by one
    closed-loop :class:`VisualizationClient` over frames that set-up
    partitioned and gave an LOD hierarchy.

    Per frame, a round asks for one new flat fetch (a cache miss that
    runs an extraction), ``revisits`` repeats of it (cache hits) and
    one progressive stream, in a seeded order of frames.  No bandwidth
    throttle and no client degradation, and a single connection, so
    the work done does not depend on timing.
    """

    name = "remote-explore"
    TAIL_PERCENTILE = 99.0   # about 2500 views per 20 s run

    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.p = SIZES[size]
        self.service = None
        self.client = None
        self.round_index = 0
        self.last_miss = {}

    def setup(self) -> None:
        from repro.api import (
            PartitionedStore,
            VisualizationClient,
            VisualizationService,
            build_lod,
            create_store,
            extract,
            partition_store,
        )
        from repro.beams.distributions import make_distribution

        p = self.p
        self.work_dir.mkdir(parents=True, exist_ok=True)
        stores = []
        for f in range(p["frames"]):
            raw = make_distribution("semi_gaussian", p["particles"], sigmas=SIGMAS,
                                    rng=np.random.default_rng([self.seed, f]),
                                    mismatch=1.5 + 0.25 * f)
            store = create_store(self.work_dir / f"raw{f}", raw, shard_rows=p["shard_rows"])
            ps = partition_store(store, self.work_dir / f"part{f}", "xyz",
                                 max_level=p["max_level"], capacity=p["capacity"])
            build_lod(ps, levels=p["lod_levels"], mip_base=p["mip_base"],
                      mip_levels=p["mip_levels"])
            stores.append(PartitionedStore.open(self.work_dir / f"part{f}"))
        self.gaps = {
            (kind, f): density_gap(ps.nodes, share)
            for f, ps in enumerate(stores)
            for kind, share in (("flat", FLAT_SHARE), ("stream", STREAM_SHARE))
        }
        # the independent reference: a direct extract of the same store
        # (any round's threshold selects the same nodes as round 0's)
        self.expected = {
            (kind, f): extract(stores[f], round_threshold(gap, 0),
                               volume_resolution=p["resolution"])
            for (kind, f), gap in self.gaps.items()
        }
        # a result cache a few rounds deep: it fills within the first
        # seconds, so peak memory does not grow with the run's length
        self.service = VisualizationService(stores, unit_points=p["unit_points"],
                                            cache_bytes=p["cache_mb"] << 20).start()
        self.client = VisualizationClient(self.service.address, retries=0)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.service is not None:
            self.service.stop()
            self.service = None
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def service_stats(self) -> dict:
        return dict(self.service.stats)

    def describe(self) -> dict:
        p = self.p
        return {
            "inputs": (f"{p['frames']} frames of {p['particles']} particles (seeded "
                       f"semi-Gaussian, mismatch 1.5 + 0.25 f), {p['shard_rows']}-row "
                       f"shards, octree max level {p['max_level']}, LOD {p['lod_levels']} "
                       f"levels with mip base {p['mip_base']}; {p['cache_mb']} MB result cache; "
                       f"one client; each round per "
                       f"frame: 1 new flat fetch storing {FLAT_SHARE:g} of the particles as "
                       f"points, {p['revisits']} revisits, 1 progressive stream storing "
                       f"{STREAM_SHARE:g}, at resolution {p['resolution']}"),
            "reads": {"store shards and LOD files": "warm: written by set-up in the "
                                                    "same process, in the page cache"},
        }

    # ------------------------------------------------------------------
    def round_items(self):
        r = self.round_index
        self.round_index += 1
        items = []
        for f in np.random.default_rng([self.seed, r]).permutation(self.p["frames"]):
            items.append(("miss", r, int(f)))
            items.extend(("hit", r, int(f)) for _ in range(self.p["revisits"]))
            items.append(("stream", r, int(f)))
        return items

    def kind(self, item) -> str:
        return item[0]

    def run(self, item, clock):
        kind, r, f = item
        res = self.p["resolution"]
        before = self.client.stats["bytes_received"]
        if kind == "stream":
            thr = round_threshold(self.gaps[("stream", f)], r)
            with clock("remote.stream"):
                frames = self.client.iter_hybrid(f, thr, resolution=res)
                last = next(frames)
                clock.mark("first_image")
                for last in frames:
                    pass
        else:
            thr = round_threshold(self.gaps[("flat", f)], r)
            with clock("remote.fetch"):
                last = self.client.get_hybrid(f, thr, resolution=res)
        return last, self.client.stats["bytes_received"] - before

    def check(self, item, out):
        frame, nbytes = out
        kind, _, f = item
        expected = self.expected[("stream" if kind == "stream" else "flat", f)]
        checks.same_frame(frame, expected, f"{kind} view of frame {f} vs direct extract")
        if kind == "miss":
            self.last_miss[f] = frame
        elif kind == "hit":
            checks.same_frame(frame, self.last_miss[f], f"cache hit of frame {f} vs its miss")
        return nbytes, {}
