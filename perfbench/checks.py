"""Output checks made apart from the program.

Each check recomputes a property with plain numpy from the inputs, or
tests a property the method must have; none compares with a stored
copy of an earlier output.  A failed check raises
:class:`perfbench.harness.CheckFailed`.
"""

from __future__ import annotations

import numpy as np

from perfbench.harness import expect


def permutation(original: np.ndarray, reordered: np.ndarray) -> None:
    """``reordered`` holds the rows of ``original`` in some order:
    same row count, and the same per-column sums and sums of squares
    up to floating-point reordering error."""
    expect(reordered.shape == original.shape,
           f"row count {reordered.shape} != input {original.shape}")
    for power in (1, 2):
        a = (original ** power).sum(axis=0)
        b = (reordered ** power).sum(axis=0)
        scale = (np.abs(original) ** power).sum(axis=0) + 1.0
        expect(np.all(np.abs(a - b) <= 1e-10 * scale),
               f"per-column sums of power {power} differ: {a} vs {b}")


def node_table(nodes: np.ndarray, n_particles: int) -> None:
    """Node counts sum to N, nodes tile the particle file in order,
    and node densities are non-decreasing along it."""
    counts = nodes["count"].astype(np.int64)
    expect(int(counts.sum()) == n_particles,
           f"node counts sum to {int(counts.sum())}, expected {n_particles}")
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    expect(np.array_equal(nodes["start"].astype(np.int64), starts),
           "nodes do not tile the particle file contiguously")
    expect(np.all(np.diff(nodes["density"]) >= 0),
           "node densities decrease along the particle order")


def node_boxes(nodes: np.ndarray, lo, hi):
    """World-space (lo, hi) of every node, decoded from its level and
    Morton key (axis 0 in the lowest bit of each 3-bit group)."""
    level = nodes["level"].astype(np.int64)
    key = nodes["key"].astype(np.uint64)
    ijk = np.zeros((len(nodes), 3), dtype=np.int64)
    for b in range(int(level.max(initial=0))):
        for axis in range(3):
            bit = (key >> np.uint64(3 * b + axis)) & np.uint64(1)
            ijk[:, axis] |= bit.astype(np.int64) << b
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    size = (hi - lo)[None, :] / (2.0 ** level)[:, None]
    box_lo = lo + ijk * size
    return box_lo, box_lo + size


def particles_in_boxes(coords: np.ndarray, nodes: np.ndarray, lo, hi) -> None:
    """Every particle lies inside the box of the node that holds it."""
    box_lo, box_hi = node_boxes(nodes, lo, hi)
    counts = nodes["count"].astype(np.int64)
    tol = 1e-9 * (np.asarray(hi) - np.asarray(lo))
    plo = np.repeat(box_lo, counts, axis=0)
    phi = np.repeat(box_hi, counts, axis=0)
    outside = np.any((coords < plo - tol) | (coords > phi + tol), axis=1)
    expect(not outside.any(),
           f"{int(outside.sum())} particle(s) outside their node's box")


def partition(original: np.ndarray, particles: np.ndarray, nodes: np.ndarray,
              columns, lo, hi) -> None:
    """All partition properties, in-core or streamed alike."""
    permutation(original, particles)
    node_table(nodes, len(original))
    particles_in_boxes(particles[:, list(columns)], nodes, lo, hi)


def extraction(hybrid, nodes: np.ndarray, particles: np.ndarray, columns,
               threshold: float, resolution: int) -> None:
    """The point set is the prefix of nodes below the threshold, and
    the CIC volume conserves the particle count."""
    below = nodes["density"] < threshold
    cutoff = int(nodes["count"][below].astype(np.int64).sum())
    expect(hybrid.n_points == cutoff,
           f"{hybrid.n_points} points, nodes below the threshold hold {cutoff}")
    expect(np.array_equal(hybrid.points,
                          particles[:cutoff][:, list(columns)].astype(np.float32)),
           "extracted points differ from the particle-file prefix")
    expect(bool(np.all(hybrid.point_densities.astype(np.float64)
                       <= threshold * (1 + 1e-6))),
           "a point carries a density above the threshold")
    volume_mass(hybrid, resolution, len(particles))


def volume_mass(hybrid, resolution: int, n_particles: int) -> None:
    """Density volume times the cell volume sums to N (float32 data)."""
    cell = float(np.prod((np.asarray(hybrid.hi) - np.asarray(hybrid.lo))
                         / (resolution - 1)))
    mass = float(hybrid.volume.sum(dtype=np.float64)) * cell
    expect(abs(mass - n_particles) <= 1e-5 * n_particles,
           f"volume holds {mass:.3f} particles, expected {n_particles}")


def lod_mass(lod, n_particles: int) -> None:
    """The finest density mip holds every particle exactly once."""
    mass = float(lod.mip(0).sum())
    expect(abs(mass - n_particles) <= 1e-9 * n_particles,
           f"mip 0 holds {mass} particles, expected {n_particles}")


def image(rgb: np.ndarray) -> None:
    """A rendered image shows something: not one flat colour."""
    expect(rgb.ndim == 3 and rgb.shape[2] == 3, f"image shape {rgb.shape}")
    expect(bool(np.any(rgb != rgb[0, 0])), "image is a single flat colour")


def same_frame(got, want, what: str) -> None:
    """Bitwise equality of the arrays two hybrid frames carry."""
    for name in ("points", "point_densities", "volume"):
        expect(np.array_equal(getattr(got, name), getattr(want, name)),
               f"{what}: {name} differ")


# ----------------------------------------------------------------------
# field lines
def tangents(lines, sampler, min_cos: float = 0.9, min_share: float = 0.95) -> None:
    """Each polyline segment runs along the sampled field: |cos| of the
    angle between the segment and the field at its midpoint is near 1
    on nearly every segment."""
    seg = np.vstack([np.diff(line.points, axis=0) for line in lines if line.n_points > 1])
    mid = np.vstack([0.5 * (line.points[1:] + line.points[:-1])
                     for line in lines if line.n_points > 1])
    field = sampler(mid)
    norm = np.linalg.norm(seg, axis=1) * np.linalg.norm(field, axis=1)
    cos = np.abs(np.einsum("ij,ij->i", seg, field)) / np.where(norm > 0, norm, np.inf)
    share = float(np.mean(cos >= min_cos))
    expect(share >= min_share,
           f"only {share:.3f} of segments align with the field (|cos| >= {min_cos})")


def inside(lines, structure, min_share: float = 0.99) -> None:
    """Line points stay inside the structure's walls."""
    pts = np.vstack([line.points for line in lines])
    share = float(np.mean(structure.inside(pts)))
    expect(share >= min_share, f"only {share:.4f} of line points lie inside the structure")


def packed_roundtrip(lines, blob: bytes, unpack) -> None:
    """``unpack(pack(lines))`` gives back every line, in order, with
    float32 points and magnitudes."""
    back = unpack(blob)
    expect(len(back) == len(lines), f"{len(back)} lines unpacked, {len(lines)} packed")
    for i, (a, b) in enumerate(zip(lines, back)):
        expect(np.array_equal(b.points, a.points.astype(np.float32).astype(np.float64))
               and np.array_equal(b.magnitudes,
                                  a.magnitudes.astype(np.float32).astype(np.float64)),
               f"line {i} does not round-trip")


def strip_triangles(lines, strips) -> None:
    """Each line's strip has 2 * (points - 1) triangles."""
    want = np.array([2 * (line.n_points - 1) if line.n_points > 1 else 0
                     for line in lines], dtype=np.int64)
    tri_line = strips.line_id[strips.triangles[:, 0]].astype(np.int64)
    got = np.bincount(tri_line, minlength=len(lines))
    expect(len(got) == len(want) and np.array_equal(got, want),
           "per-line strip triangle counts are not 2 * (points - 1)")
