"""The two beam-chain workloads: in-situ and out-of-core."""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np

from perfbench import checks

# Sizes of each workload's inputs.  "full" is what the benchmark runs;
# "tiny" is for the benchmark's own tests.
INSITU_SIZES = {
    "full": dict(particles=30_000, sc_grid=32, frame_every=2, frames=8,
                 max_level=6, capacity=64, resolution=32, image=96, slices=24),
    "tiny": dict(particles=3_000, sc_grid=8, frame_every=1, frames=2,
                 max_level=4, capacity=32, resolution=8, image=24, slices=6),
}
OUTOFCORE_SIZES = {
    "full": dict(particles=30_000, shard_rows=4096, max_level=6, capacity=64,
                 lod_levels=2, mip_base=16, mip_levels=2, resolution=32,
                 image=96, slices=24),
    "tiny": dict(particles=3_000, shard_rows=512, max_level=4, capacity=32,
                 lod_levels=2, mip_base=8, mip_levels=2, resolution=8,
                 image=24, slices=6),
}
SIGMAS = (1.0, 1.0, 4.0, 0.35, 0.35, 0.08)
# the extraction threshold stores about this share of the particles as
# points: a share, not a density percentile, so the work per item is
# nearly the same whatever the seed
POINT_SHARE = 0.3


def density_gap(nodes: np.ndarray, share: float):
    """Two consecutive distinct node densities ``(lo, hi)``: every
    threshold strictly between them stores the same points, the
    fewest that make up at least ``share`` of the particles."""
    dens = nodes["density"]
    cum = np.cumsum(nodes["count"].astype(np.int64))
    distinct = np.unique(dens)
    points_upto = cum[np.searchsorted(dens, distinct, side="right") - 1]
    k = min(int(np.searchsorted(points_upto, share * cum[-1])), len(distinct) - 2)
    return float(distinct[k]), float(distinct[k + 1])


def _camera(hybrid, size, margin):
    from repro.api import Camera

    center = 0.5 * (hybrid.lo + hybrid.hi)
    half = 0.5 * (hybrid.hi - hybrid.lo) * margin
    return Camera.fit_bounds(center - half, center + half, width=size, height=size)


def dir_bytes(path) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class BeamInsitu:
    """One kept frame of the space-charge beam run per item:
    simulate a frame interval, partition in core, extract at a fixed
    threshold, render with a fixed camera.

    A round replays the same ``frames`` kept frames from the seeded
    initial beam, so every run repeats the same operations.  Each round
    renders with a fresh geometry cache: a real in-situ run never sees
    a frame's volume bounds twice, so a replayed round must not either.
    """

    name = "beam-insitu"
    TAIL_PERCENTILE = 90.0   # about 180 items per 20 s run

    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        self.seed = int(seed)
        self.p = INSITU_SIZES[size]
        self.round_index = 0

    def setup(self) -> None:
        from repro.api import BeamConfig, BeamSimulation, as_dataset, extract, partition

        p = self.p
        self.config = BeamConfig(
            n_particles=p["particles"], sc_grid=(p["sc_grid"],) * 3,
            n_cells=p["frames"] * p["frame_every"], seed=self.seed,
        ).resolved()
        first = BeamSimulation(self.config).particles
        pf = partition(as_dataset(first), "xyz", max_level=p["max_level"],
                       capacity=p["capacity"])
        self.threshold = float(np.mean(density_gap(pf.nodes, POINT_SHARE)))
        hybrid = extract(pf, self.threshold, volume_resolution=p["resolution"])
        # the beam breathes as it travels: leave room around frame 0
        self.camera = _camera(hybrid, p["image"], margin=2.0)

    def close(self) -> None:
        pass

    def describe(self) -> dict:
        p = self.p
        return {
            "inputs": (f"{p['particles']} particles, seeded semi-Gaussian beam, "
                       f"mismatch 1.5, space charge on a {p['sc_grid']}^3 grid; "
                       f"{p['frames']} kept frames per round, one every "
                       f"{p['frame_every']} lattice elements; octree max level "
                       f"{p['max_level']}, capacity {p['capacity']}; threshold fixed where "
                       f"frame 0 stores {POINT_SHARE:g} of its particles as points; "
                       f"{p['resolution']}^3 volume; {p['image']}^2 image, "
                       f"{p['slices']} slices"),
            "reads": {"none": "every input is in RAM; nothing is read from disk"},
        }

    # ------------------------------------------------------------------
    def round_items(self):
        r = self.round_index
        self.round_index += 1
        return [(r, k) for k in range(self.p["frames"])]

    def kind(self, item) -> str:
        return "frame"

    def run(self, item, clock):
        from repro.api import (
            BeamSimulation,
            FrameGeometryCache,
            HybridRenderer,
            as_dataset,
            extract,
            partition,
        )

        p = self.p
        _, k = item
        if k == 0:
            with clock("beams.simulate"):
                self.sim = BeamSimulation(self.config)
                self.frames = self.sim.frames(frame_every=p["frame_every"])
                next(self.frames)  # frame 0 is the initial beam
            self.renderer = HybridRenderer(n_slices=p["slices"], cache=FrameGeometryCache())
        with clock("beams.simulate"):
            step, particles = next(self.frames)
        with clock("octree.partition"):
            pf = partition(as_dataset(particles), "xyz", max_level=p["max_level"],
                           capacity=p["capacity"], step=step)
        with clock("octree.extract"):
            hybrid = extract(pf, self.threshold, volume_resolution=p["resolution"])
        with clock("hybrid.render"):
            rgb = self.renderer.render(hybrid, camera=self.camera).to_rgb8()
        clock.mark("first_image")
        # the simulation's live buffer still holds this frame's input
        return particles, pf, hybrid, rgb

    def check(self, item, out):
        particles, pf, hybrid, rgb = out
        checks.partition(particles, pf.particles, pf.nodes, pf.columns, pf.lo, pf.hi)
        checks.extraction(hybrid, pf.nodes, pf.particles, pf.columns, self.threshold,
                          self.p["resolution"])
        checks.image(rgb)
        return len(hybrid.to_bytes()), {
            "points": hybrid.n_points,
            "particles": len(particles),
            "particle_steps": len(particles) * self.p["frame_every"],
        }


class BeamOutOfCore:
    """One seeded raw frame, held in RAM, ingested per item: write a
    sharded store, partition it streamed, build the LOD hierarchy,
    extract from the partitioned store, render.

    Every store read is warm: the files were written earlier in the
    same item and are still in the page cache.
    """

    name = "beam-outofcore"
    TAIL_PERCENTILE = 75.0   # about 80 items per 20 s run

    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.p = OUTOFCORE_SIZES[size]
        self.round_index = 0

    def setup(self) -> None:
        from repro.api import HybridRenderer, as_dataset, extract, partition
        from repro.beams.distributions import make_distribution

        p = self.p
        self.raw = make_distribution("semi_gaussian", p["particles"], sigmas=SIGMAS,
                                     rng=np.random.default_rng(self.seed), mismatch=1.5)
        pf = partition(as_dataset(self.raw), "xyz", max_level=p["max_level"],
                       capacity=p["capacity"])
        self.threshold = float(np.mean(density_gap(pf.nodes, POINT_SHARE)))
        hybrid = extract(pf, self.threshold, volume_resolution=p["resolution"])
        self.camera = _camera(hybrid, p["image"], margin=1.0)
        self.renderer = HybridRenderer(n_slices=p["slices"])
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def describe(self) -> dict:
        p = self.p
        return {
            "inputs": (f"{p['particles']} particles, seeded semi-Gaussian frame in RAM; "
                       f"{p['shard_rows']}-row shards; octree max level {p['max_level']}, "
                       f"capacity {p['capacity']}; LOD {p['lod_levels']} levels, mip base "
                       f"{p['mip_base']}; threshold storing {POINT_SHARE:g} of the "
                       f"particles as points; {p['resolution']}^3 volume; "
                       f"{p['image']}^2 image, {p['slices']} slices"),
            "reads": {"store shards": "warm: written earlier in the same item, "
                                      "read back from the page cache"},
        }

    def round_items(self):
        r = self.round_index
        self.round_index += 1
        return [(r, 0)]

    def kind(self, item) -> str:
        return "ingest"

    def run(self, item, clock):
        from repro.api import build_lod, create_store, extract, partition_store

        p = self.p
        item_dir = self.work_dir / f"item-{item[0]}"
        with clock("core.store_write"):
            store = create_store(item_dir / "raw", self.raw, shard_rows=p["shard_rows"])
        with clock("octree.stream_partition"):
            ps = partition_store(store, item_dir / "part", "xyz",
                                 max_level=p["max_level"], capacity=p["capacity"])
        with clock("octree.lod_build"):
            lod = build_lod(ps, levels=p["lod_levels"], mip_base=p["mip_base"],
                            mip_levels=p["mip_levels"])
        with clock("octree.extract"):
            hybrid = extract(ps, self.threshold, volume_resolution=p["resolution"])
        with clock("hybrid.render"):
            rgb = self.renderer.render(hybrid, camera=self.camera).to_rgb8()
        clock.mark("first_image")
        return item_dir, ps, lod, hybrid, rgb

    def check(self, item, out):
        item_dir, ps, lod, hybrid, rgb = out
        try:
            particles = ps.store.to_array()
            checks.partition(self.raw, particles, ps.nodes, ps.columns, ps.lo, ps.hi)
            checks.extraction(hybrid, ps.nodes, particles, ps.columns, self.threshold,
                              self.p["resolution"])
            checks.lod_mass(lod, len(self.raw))
            checks.image(rgb)
            written = dir_bytes(item_dir)
        finally:
            shutil.rmtree(item_dir, ignore_errors=True)
        return written, {
            "points": hybrid.n_points,
            "particles": len(self.raw),
            "shard_bytes": self.p["shard_rows"] * self.raw.shape[1] * 8,
            "written_bytes": written,
        }
