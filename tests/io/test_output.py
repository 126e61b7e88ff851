"""Tests for VTK and SVG output."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.io.svg import draw_forest_svg
from repro.io.vtk import write_vtk
from repro.mangll.geometry import MoebiusGeometry, MultilinearGeometry, ShellGeometry
from repro.p4est.builders import moebius, shell, unit_square
from repro.p4est.forest import Forest
from repro.parallel import SerialComm
from tests.parallel.helpers import run as spmd


def test_vtk_2d(tmp_path):
    conn = unit_square()
    forest = Forest.new(conn, SerialComm(), level=2)
    path = str(tmp_path / "square.vtk")
    out = write_vtk(path, forest, MultilinearGeometry(conn))
    assert out == path
    text = Path(path).read_text()
    assert "UNSTRUCTURED_GRID" in text
    assert f"CELLS {forest.global_count}" in text
    assert "SCALARS level" in text
    assert "SCALARS mpirank" in text


def test_vtk_3d_shell_with_data(tmp_path):
    conn = shell()
    forest = Forest.new(conn, SerialComm(), level=1)
    path = str(tmp_path / "shell.vtk")
    write_vtk(
        path,
        forest,
        ShellGeometry(),
        cell_data={"radius": np.linspace(0, 1, forest.local_count)},
    )
    text = Path(path).read_text()
    assert "SCALARS radius" in text
    assert "CELL_TYPES 192" in text


def test_vtk_parallel_gather(tmp_path):
    conn = unit_square()
    path = str(tmp_path / "par.vtk")

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        return write_vtk(path, forest, MultilinearGeometry(conn))

    out = spmd(3, prog)
    assert out[0] == path and out[1] is None
    assert "CELLS 16" in Path(path).read_text()


def test_vtk_per_rank_files(tmp_path):
    conn = unit_square()
    base = str(tmp_path / "pieces.vtk")

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        return write_vtk(base, forest, MultilinearGeometry(conn), gather=False)

    outs = spmd(2, prog)
    assert all(os.path.exists(o) for o in outs)
    assert outs[0] != outs[1]


def test_svg_moebius(tmp_path):
    conn = moebius()
    path = str(tmp_path / "moebius.svg")

    def prog(comm):
        forest = Forest.new(conn, comm, level=2)
        return draw_forest_svg(path, forest, MoebiusGeometry())

    out = spmd(3, prog)
    assert out[0] == path
    text = Path(path).read_text()
    assert text.count("<polygon") == 5 * 16
    assert "<path" in text  # the space-filling curve overlay


def test_svg_rejects_3d(tmp_path):
    conn = shell()
    forest = Forest.new(conn, SerialComm(), level=0)
    with pytest.raises(ValueError):
        draw_forest_svg(str(tmp_path / "x.svg"), forest, ShellGeometry())
