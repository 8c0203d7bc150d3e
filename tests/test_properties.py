"""Property tests: invariances of the path metric and exact JSON round trips.

Hypothesis runs derandomized with a handful of examples, so the suite
stays deterministic and fast.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvespace import (
    euclidean3d,
    make_path,
    path_energy,
    path_from_dict,
    path_speed,
    path_to_dict,
    plane,
    solve_helix_geodesic,
    sphere,
)

PROPERTY = settings(derandomize=True, max_examples=8, deadline=None, database=None)
REL = 1e-10

angles = st.floats(-np.pi, np.pi, allow_nan=False)
offsets = st.floats(-5.0, 5.0, allow_nan=False)
wobbles = st.floats(0.0, 0.2, allow_nan=False)


def rotation(a, b, c):
    """Rotation matrix Rz(a) Ry(b) Rz(c)."""

    def rz(x):
        return np.array([[np.cos(x), -np.sin(x), 0.0], [np.sin(x), np.cos(x), 0.0], [0.0, 0.0, 1.0]])

    ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0], [-np.sin(b), 0.0, np.cos(b)]])
    return rz(a) @ ry @ rz(c)


def plane_points(wobble, m=7, n=96):
    """Closed curves with no rotational symmetry, growing along the path."""
    t = 2 * np.pi * np.arange(n) / n
    s = np.linspace(0.0, 1.0, m)[:, None]
    r = 1.0 + 0.5 * s + wobble * np.cos(2 * t + s) + 0.1 * np.sin(3 * t)
    return np.stack([r * np.cos(t), (1.0 + 0.3 * s) * r * np.sin(t)], axis=2)


def sphere_points(wobble, m=7, n=96):
    """Closed curves around the north pole of the unit sphere."""
    t = 2 * np.pi * np.arange(n) / n
    s = np.linspace(0.0, 1.0, m)[:, None]
    r = 0.5 + 0.4 * s**2 + wobble * np.sin(2 * t + 3 * s)
    return np.stack([np.sin(r) * np.cos(t), np.sin(r) * np.sin(t), np.cos(r)], axis=2)


def assert_same_speed(moved, path):
    nu, nu_moved = path_speed(path), path_speed(moved)
    assert np.max(np.abs(nu_moved - nu)) <= REL * np.max(nu)
    assert path_energy(moved) == pytest.approx(path_energy(path), rel=REL)


class TestRigidMotions:
    @PROPERTY
    @given(angle=angles, dx=offsets, dy=offsets, wobble=wobbles)
    def test_plane(self, angle, dx, dy, wobble):
        pts = plane_points(wobble)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        moved = make_path(plane(), pts @ rot.T + np.array([dx, dy]), closed=True)
        assert_same_speed(moved, make_path(plane(), pts, closed=True))

    @PROPERTY
    @given(a=angles, b=angles, c=angles, shift=st.tuples(offsets, offsets, offsets),
           pitch=st.floats(0.2, 1.0))
    def test_space_screw_helices(self, a, b, c, shift, pitch):
        _, path = solve_helix_geodesic(1.0, 1.6, pitch, m=7, n=96)
        rot = rotation(a, b, c)
        moved = make_path(
            euclidean3d(), path.points @ rot.T + np.array(shift), closed=False,
            screw_shift=rot @ path.batch.screw_shift,
        )
        assert_same_speed(moved, path)

    @PROPERTY
    @given(a=angles, b=angles, c=angles, wobble=wobbles)
    def test_sphere_rotations(self, a, b, c, wobble):
        pts = sphere_points(wobble)
        moved = make_path(sphere(1.0), pts @ rotation(a, b, c).T, closed=True)
        assert_same_speed(moved, make_path(sphere(1.0), pts, closed=True))


class TestClosedGridShift:
    @PROPERTY
    @given(shift=st.integers(1, 95), wobble=wobbles, on_sphere=st.booleans())
    def test_cyclic_shift_keeps_speed(self, shift, wobble, on_sphere):
        space, pts = (sphere(1.0), sphere_points(wobble)) if on_sphere else (plane(), plane_points(wobble))
        path = make_path(space, pts, closed=True)
        rolled = make_path(space, np.roll(pts, shift, axis=1), closed=True)
        assert np.max(np.abs(path_speed(rolled) - path_speed(path))) <= REL * np.max(path_speed(path))


class TestJsonRoundTrip:
    @PROPERTY
    @given(wobble=wobbles, scale=st.floats(1e-3, 1e3), on_sphere=st.booleans())
    def test_closed_paths_bitwise(self, wobble, scale, on_sphere):
        if on_sphere:
            path = make_path(sphere(1.0), sphere_points(wobble), closed=True)
        else:
            path = make_path(plane(), scale * plane_points(wobble), closed=True)
        back = path_from_dict(json.loads(json.dumps(path_to_dict(path))))
        assert np.array_equal(back.points, path.points)
        assert np.array_equal(path_speed(back), path_speed(path))

    @PROPERTY
    @given(pitch=st.floats(0.05, 2.0), r1=st.floats(1.2, 3.0))
    def test_helix_paths_bitwise(self, pitch, r1):
        _, path = solve_helix_geodesic(1.0, r1, pitch, m=5, n=64)
        back = path_from_dict(json.loads(json.dumps(path_to_dict(path, pitch=pitch))))
        assert np.array_equal(back.points, path.points)
        assert np.array_equal(back.curves[0].screw_shift, path.curves[0].screw_shift)
        assert np.array_equal(path_speed(back), path_speed(path))
