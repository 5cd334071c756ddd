"""The benchmark's own tests.

A tiny-size run of every workload passes all its checks; and every
check fails once its output is damaged on purpose, which shows the
checks catch errors.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks
from perfbench.harness import CheckFailed, LayerClock

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("beam-insitu", "beam-outofcore", "remote-explore", "fieldlines")


def _bench(*args):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT, capture_output=True,
        text=True, timeout=300,
    )
    return out


def _declared(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_every_check(workload):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", "0", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = _bench("--workload", "beam-insitu", "--seed", "3", "--seconds", "0.6",
                 "--trace", "1", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == _declared("per_layer")
    assert result["metrics"]["beams.simulate_ms"]["value"] > 0


def test_same_inputs_give_the_same_bytes():
    a, b = (json.loads(_bench("--workload", "remote-explore", "--seed", "5", "--seconds",
                              str(s), "--size", "tiny").stdout.strip().splitlines()[-1])
            for s in (0.2, 0.6))
    assert a["metrics"]["bytes_per_item"] == b["metrics"]["bytes_per_item"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fieldlines", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


# ----------------------------------------------------------------------
# each check fails on damaged output
def _first_item(cls, tmp_path):
    workload = cls(seed=3, work_dir=tmp_path / "work", size="tiny")
    workload.setup()
    item = workload.round_items()[0]
    return workload, item, workload.run(item, LayerClock())


@pytest.fixture(scope="module")
def insitu(tmp_path_factory):
    from perfbench.beam import BeamInsitu

    workload, item, out = _first_item(BeamInsitu, tmp_path_factory.mktemp("insitu"))
    workload.check(item, out)
    return workload, out


def test_partition_catches_a_dropped_particle(insitu):
    _, (particles, pf, _, _) = insitu
    with pytest.raises(CheckFailed, match="row count"):
        checks.partition(particles, pf.particles[1:], pf.nodes, pf.columns, pf.lo, pf.hi)


def test_partition_catches_a_changed_particle(insitu):
    _, (particles, pf, _, _) = insitu
    damaged = pf.particles.copy()
    damaged[5, 3] += 0.5
    with pytest.raises(CheckFailed, match="sums"):
        checks.partition(particles, damaged, pf.nodes, pf.columns, pf.lo, pf.hi)


def test_partition_catches_particles_in_the_wrong_node(insitu):
    _, (particles, pf, _, _) = insitu
    damaged = pf.particles.copy()
    damaged[[0, -1]] = damaged[[-1, 0]]  # same rows, swapped between nodes
    with pytest.raises(CheckFailed, match="box"):
        checks.partition(particles, damaged, pf.nodes, pf.columns, pf.lo, pf.hi)


def test_partition_catches_unsorted_densities(insitu):
    _, (particles, pf, _, _) = insitu
    nodes = pf.nodes.copy()
    nodes["density"][[0, -1]] = nodes["density"][[-1, 0]]
    with pytest.raises(CheckFailed, match="decrease"):
        checks.node_table(nodes, len(particles))


def test_extraction_catches_a_changed_point(insitu):
    workload, (_, pf, hybrid, _) = insitu
    damaged = copy.copy(hybrid)
    damaged.points = hybrid.points.copy()
    damaged.points[0, 0] += 1.0
    with pytest.raises(CheckFailed, match="prefix"):
        checks.extraction(damaged, pf.nodes, pf.particles, pf.columns, workload.threshold,
                          workload.p["resolution"])


def test_extraction_catches_a_dropped_point(insitu):
    workload, (_, pf, hybrid, _) = insitu
    damaged = copy.copy(hybrid)
    damaged.points = hybrid.points[1:]
    with pytest.raises(CheckFailed, match="points"):
        checks.extraction(damaged, pf.nodes, pf.particles, pf.columns, workload.threshold,
                          workload.p["resolution"])


def test_volume_mass_catches_a_lost_particle(insitu):
    workload, (particles, _, hybrid, _) = insitu
    with pytest.raises(CheckFailed, match="volume holds"):
        checks.volume_mass(hybrid, workload.p["resolution"], len(particles) + 1)


def test_image_catches_a_blank_image(insitu):
    _, (_, _, _, rgb) = insitu
    with pytest.raises(CheckFailed, match="flat"):
        checks.image(np.zeros_like(rgb))


def test_outofcore_item_and_lod_mass(tmp_path):
    from perfbench.beam import BeamOutOfCore

    workload, item, out = _first_item(BeamOutOfCore, tmp_path)
    _, ps, lod, _, _ = out
    particles = ps.store.to_array()
    workload.check(item, out)  # removes the item's files
    with pytest.raises(CheckFailed, match="row count"):
        checks.partition(workload.raw, particles[:-1], ps.nodes, ps.columns, ps.lo, ps.hi)
    mip0 = lod.mip(0).copy()
    mip0[0, 0, 0] += 1.0

    class DamagedLod:
        def mip(self, k):
            return mip0

    with pytest.raises(CheckFailed, match="mip 0"):
        checks.lod_mass(DamagedLod(), len(workload.raw))
    workload.close()


def test_remote_views_and_damaged_frames(tmp_path):
    from perfbench.remote import RemoteExplore

    workload = RemoteExplore(seed=3, work_dir=tmp_path / "work", size="tiny")
    workload.setup()
    try:
        for item in workload.round_items():
            frame, _ = workload.run(item, LayerClock())
            workload.check(item, (frame, 0))
        damaged = copy.copy(frame)
        damaged.points = frame.points.copy()
        damaged.points[-1, 1] += 1.0
        with pytest.raises(CheckFailed, match="points differ"):
            workload.check(item, (damaged, 0))
    finally:
        workload.close()


@pytest.fixture(scope="module")
def lines(tmp_path_factory):
    from perfbench.fieldlines import FieldLines

    workload, item, out = _first_item(FieldLines, tmp_path_factory.mktemp("fl"))
    workload.check(item, out)
    return workload, out


def _swapped(lines):
    counts = [line.n_points for line in lines]
    i, j = int(np.argmin(counts)), int(np.argmax(counts))
    assert counts[i] != counts[j]
    out = list(lines)
    out[i], out[j] = out[j], out[i]
    return out


def test_roundtrip_catches_a_reordered_line(lines):
    from repro.fieldlines.compact import unpack_lines

    _, (ls, _, blob, _, _) = lines
    with pytest.raises(CheckFailed, match="round-trip"):
        checks.packed_roundtrip(_swapped(ls), blob, unpack_lines)


def test_strips_catch_a_reordered_line(lines):
    _, (ls, _, _, strips, _) = lines
    with pytest.raises(CheckFailed, match="triangle"):
        checks.strip_triangles(_swapped(ls), strips)


def test_tangents_catch_lines_off_the_field(lines):
    _, (ls, sampler, _, _, _) = lines
    turned = [copy.copy(line) for line in ls]
    for line in turned:
        # the same start and spacing, but heading at right angles to
        # the line's own direction: across the field it traced
        p = line.points
        d = (p[-1] - p[0]) / np.linalg.norm(p[-1] - p[0])
        n = np.cross(d, np.eye(3)[np.argmin(np.abs(d))])
        n /= np.linalg.norm(n)
        step = np.linalg.norm(np.diff(p, axis=0), axis=1).mean()
        line.points = p[0] + np.arange(len(p))[:, None] * step * n
    with pytest.raises(CheckFailed, match="align"):
        checks.tangents(turned, sampler)


def test_inside_catches_a_line_through_the_wall(lines):
    workload, (ls, _, _, _, _) = lines
    moved = [copy.copy(line) for line in ls]
    moved[0].points = moved[0].points + np.array([5.0, 0.0, 0.0])
    with pytest.raises(CheckFailed, match="inside"):
        checks.inside(moved, workload.structure)
