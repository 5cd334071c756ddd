"""The field-line workload: solve, seed, pack, strip, raster."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from perfbench import checks

SIZES = {
    "full": dict(cells=12, n_xy=6, n_z_per_unit=6.0, cells_per_unit=8.0,
                 warm_duration=6.0, steps=10, snapshots=24, lines=8, views=3,
                 image=128, width=0.1),
    "tiny": dict(cells=2, n_xy=4, n_z_per_unit=4.0, cells_per_unit=4.0,
                 warm_duration=2.0, steps=2, snapshots=2, lines=4, views=2,
                 image=32, width=0.2),
}
FIELD = "E"


class FieldLines:
    """One field snapshot of the multi-cell structure per item: the
    time-domain solver advances a fixed interval, greedy
    density-proportional seeding integrates a fixed line count, the
    lines are packed, and strips are built and rasterized from a fixed
    ring of viewpoints.

    A round replays ``snapshots`` snapshots from the solver state that
    set-up reached, so every run repeats the same operations.
    """

    name = "fieldlines"
    TAIL_PERCENTILE = 75.0   # 3 rounds of 24 items per 20 s run

    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        self.seed = int(seed)
        self.p = SIZES[size]
        self.round_index = 0

    def setup(self) -> None:
        from repro.api import Camera
        from repro.fields.geometry import make_multicell_structure
        from repro.fields.solver import TimeDomainSolver

        p = self.p
        self.structure = make_multicell_structure(
            p["cells"], n_xy=p["n_xy"], n_z_per_unit=p["n_z_per_unit"])
        self.solver = TimeDomainSolver(self.structure, cells_per_unit=p["cells_per_unit"])
        self.solver.run(self.solver.steps_for(p["warm_duration"]))
        self.start_state = self._state()
        lo, hi = self.structure.bounds()
        angles = np.linspace(0.0, 2.0 * np.pi, p["views"], endpoint=False)
        self.cameras = [
            Camera.fit_bounds(lo, hi, direction=(np.cos(a), 0.35, np.sin(a)),
                              width=p["image"], height=p["image"])
            for a in angles
        ]

    _FIELDS = ("ex", "ey", "ez", "hx", "hy", "hz")

    def _state(self):
        s = self.solver
        return {name: getattr(s, name).copy() for name in self._FIELDS}, s.time, s.step_count

    def _restore(self) -> None:
        arrays, t, n = self.start_state
        for name in self._FIELDS:
            getattr(self.solver, name)[...] = arrays[name]
        self.solver.time, self.solver.step_count = t, n

    def close(self) -> None:
        pass

    def describe(self) -> dict:
        p = self.p
        shape = "x".join(str(n) for n in self.solver.shape)
        return {
            "inputs": (f"{p['cells']}-cell structure, hex mesh n_xy {p['n_xy']}, "
                       f"{p['n_z_per_unit']:g} per unit; Yee grid {shape}, warmed "
                       f"{p['warm_duration']:g} time units; per item {p['steps']} solver "
                       f"steps, {p['lines']} greedy {FIELD} lines (rng seeded by the "
                       f"workload seed and the snapshot), {p['views']} viewpoints of "
                       f"{p['image']}^2; {p['snapshots']} snapshots per round"),
            "reads": {"none": "every input is in RAM; nothing is read from disk"},
        }

    def round_items(self):
        r = self.round_index
        self.round_index += 1
        return [(r, k) for k in range(self.p["snapshots"])]

    def kind(self, item) -> str:
        return "snapshot"

    def run(self, item, clock):
        from repro.api import build_strips, render_strips, seed_density_proportional
        from repro.fieldlines.compact import pack_lines
        from repro.fields.sampling import YeeSampler

        p = self.p
        _, k = item
        with clock("fields.solve"):
            if k == 0:
                self._restore()
            self.solver.run(p["steps"])
            self.solver.fields_on_mesh()
            sampler = YeeSampler(self.solver, FIELD)
        with clock("fieldlines.seed"):
            ordered = seed_density_proportional(
                self.structure.mesh, sampler, total_lines=p["lines"], field_name=FIELD,
                rng=np.random.default_rng([self.seed, k]))
        with clock("fieldlines.pack"):
            blob = pack_lines(ordered.lines)
        images, strips = [], None
        for cam in self.cameras:
            with clock("fieldlines.strip"):
                strips = build_strips(ordered.lines, cam, width=p["width"])
            with clock("fieldlines.raster"):
                images.append(render_strips(cam, strips).to_rgb8())
            clock.mark("first_image")
        return ordered.lines, sampler, blob, strips, images

    def check(self, item, out):
        from repro.fieldlines.compact import unpack_lines

        lines, sampler, blob, strips, images = out
        checks.tangents(lines, sampler)
        checks.inside(lines, self.structure)
        checks.packed_roundtrip(lines, blob, unpack_lines)
        checks.strip_triangles(lines, strips)
        for rgb in images:
            checks.image(rgb)
        return len(blob), {
            "points": sum(line.n_points for line in lines),
            "triangles": strips.n_triangles,
            "cell_updates": int(np.prod(self.solver.shape)) * self.p["steps"],
        }
