import numpy as np
import pytest

from d8span.delaunay import triangulation_from_triangles
from d8span.geometry import PointSet


def random_points(seed: int, n: int, box: float = 1000.0) -> PointSet:
    rng = np.random.default_rng(seed)
    return PointSet.from_pairs(rng.uniform(0.0, box, size=(n, 2)))


def arc_fan(k, jagged=False, scale=1.0, seed=0):
    """Apex (0, 0) plus k points at angles in (62, 118) degrees drawn with
    ``default_rng(seed)``, all in cone 0 of the apex: on the arc of radius
    ``scale``, where every wedge angle passes, or at radii in (0.5, 1.5)
    times ``scale``."""
    rng = np.random.default_rng(seed)
    t = np.sort(np.radians(rng.uniform(62, 118, k)))
    r = scale * (rng.uniform(0.5, 1.5, k) if jagged else np.ones(k))
    pts = [(0.0, 0.0)] + list(zip(r * np.cos(t), r * np.sin(t)))
    fan = [(0, j, j + 1) for j in range(1, k)]
    return triangulation_from_triangles(PointSet.from_pairs(pts), fan)


def converging_rows(m: int) -> PointSet:
    """Two curved rows of m points each that converge into a zig-zag.  The
    greedy rounds of ``add_incident`` accept few edges apiece along the
    zig-zag, so this set reaches the scalar scan that finishes them."""
    top = [
        (k, 100 - 90 * k / m - (k - m / 2.3) ** 2 * 1e-4 + 1e-7 * k) for k in range(m)
    ]
    bot = [(k + 0.5, (k - m / 2.3) ** 2 * 1e-4 + 1e-7 * k) for k in range(m)]
    return PointSet.from_pairs(top + bot)


@pytest.fixture
def small_instance():
    from d8span.builder import construct_d8

    ps = random_points(11, 40)
    T, sel = construct_d8(ps)
    return ps, T, sel
