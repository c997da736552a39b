import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d8span.geometry import (
    METRIC_RTOL,
    CONE_BISECTORS,
    DegeneratePairError,
    Point,
    PointSet,
    bisector_distance,
    canonical_triangle,
    check_general_position,
    cone_index,
    cone_index_dir,
    euclid,
    in_circle,
    orient,
)

P = lambda x, y: Point(0, x, y)

coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
int_coord = st.integers(min_value=-1000, max_value=1000)


# ---------------------------------------------------------------------------
# orient / in_circle


def test_orient_left_turn():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1


def test_orient_collinear():
    assert orient(P(0, 0), P(1, 0), P(2, 0)) == 0


def test_orient_right_turn():
    assert orient(P(0, 0), P(0, 1), P(1, 0)) == -1


def test_orient_nearly_collinear_is_exact():
    # doubles that are collinear exactly but not obviously in floats
    a = P(0.1, 0.1)
    b = P(0.2, 0.2)
    c = P(0.3, 0.3)
    assert orient(a, b, c) == 0


def test_in_circle_center_inside():
    assert in_circle(P(1, 0), P(0, 1), P(-1, 0), P(0, 0)) == 1


def test_in_circle_cocircular():
    assert in_circle(P(1, 0), P(0, 1), P(-1, 0), P(0, -1)) == 0


def test_in_circle_outside():
    assert in_circle(P(1, 0), P(0, 1), P(-1, 0), P(2, 0)) == -1


@given(int_coord, int_coord, int_coord, int_coord, int_coord, int_coord,
       st.integers(min_value=1, max_value=1000), int_coord, int_coord)
@settings(max_examples=200)
def test_orient_invariant_under_scaling_and_translation(
    ax, ay, bx, by, cx, cy, s, tx, ty
):
    a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
    s0 = orient(a, b, c)
    a2 = P(s * ax + tx, s * ay + ty)
    b2 = P(s * bx + tx, s * by + ty)
    c2 = P(s * cx + tx, s * cy + ty)
    assert orient(a2, b2, c2) == s0


# ---------------------------------------------------------------------------
# cones


def test_cone_index_topmost():
    assert cone_index(P(0, 0), P(0, 1)) == 0


def test_cone_index_45deg():
    assert cone_index(P(0, 0), P(1, 1)) == 1


def test_cone_index_southwest():
    assert cone_index(P(0, 0), P(-1, -1)) == 4


def test_cone_index_degenerate():
    with pytest.raises(DegeneratePairError):
        cone_index(P(1, 2), P(1, 2))


def test_cone_boundary_convention_horizontal():
    # horizontal directions lie on cone boundaries; the counter-clockwise
    # boundary ray belongs to the cone
    assert cone_index_dir(1.0, 0.0) == 2
    assert cone_index_dir(-1.0, 0.0) == 5


def test_cone_boundary_convention_vertical_down():
    assert cone_index_dir(0.0, -1.0) == 3
    assert cone_index_dir(0.0, 1.0) == 0


@given(coord, coord, coord, coord)
@settings(max_examples=300)
def test_opposite_cone_property(px, py, qx, qy):
    p, q = P(px, py), P(qx, qy)
    if px == qx and py == qy:
        return
    assert cone_index(q, p) == (cone_index(p, q) + 3) % 6


def test_cone_matches_atan2_oracle():
    # independent classification by angle, away from boundaries
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(500):
        dx, dy = rng.uniform(-10, 10, size=2)
        if dx == 0 and dy == 0:
            continue
        ang = math.degrees(math.atan2(dy, dx))  # ccw from +x
        cw_from_north = (90.0 - ang) % 360.0
        if min(cw_from_north % 60.0, 60.0 - cw_from_north % 60.0) < 1e-6:
            continue  # too close to a boundary for the float oracle
        assert cone_index_dir(dx, dy) == int((cw_from_north + 30.0) // 60.0) % 6


# ---------------------------------------------------------------------------
# bisector distance


def test_bisector_on_axis():
    assert bisector_distance(P(0, 0), P(0, 2)) == 2.0


def test_bisector_45deg_value():
    # oracle: project (1,1) onto the unit ray at 30 degrees elevation
    expected = 1.0 * math.cos(math.radians(30)) + 1.0 * math.sin(math.radians(30))
    got = bisector_distance(P(0, 0), P(1, 1))
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(math.sqrt(2) * math.cos(math.radians(15)), rel=1e-12)


@given(coord, coord, coord, coord)
@settings(max_examples=300)
def test_bisector_symmetric_and_bounded(px, py, qx, qy):
    p, q = P(px, py), P(qx, qy)
    if px == qx and py == qy:
        return
    d = euclid(p, q)
    b1 = bisector_distance(p, q)
    b2 = bisector_distance(q, p)
    assert b1 == b2  # antiparallel bisectors negate exactly in floats
    assert b1 <= d * (1 + METRIC_RTOL)
    assert b1 >= d * math.cos(math.radians(30)) * (1 - METRIC_RTOL)


def test_bisector_table_antiparallel_exact():
    for i in range(6):
        ux, uy = CONE_BISECTORS[i]
        vx, vy = CONE_BISECTORS[(i + 3) % 6]
        assert ux == -vx and uy == -vy


# ---------------------------------------------------------------------------
# canonical triangle


def test_canonical_triangle_up():
    tri = canonical_triangle(P(0, 0), P(0, 1))
    t = math.tan(math.radians(30))
    assert tri.cone == 0 and tri.height == 1.0
    assert tri.a == pytest.approx((-t, 1.0))
    assert tri.b == pytest.approx((t, 1.0))


@given(coord, coord, coord, coord)
@settings(max_examples=300)
def test_canonical_triangle_geometry(px, py, qx, qy):
    p, q = P(px, py), P(qx, qy)
    if px == qx and py == qy:
        return
    tri = canonical_triangle(p, q)
    h = tri.height
    if h == 0:
        return
    side = h / math.cos(math.radians(30))
    pa = math.hypot(tri.a[0] - px, tri.a[1] - py)
    pb = math.hypot(tri.b[0] - px, tri.b[1] - py)
    ab = math.hypot(tri.a[0] - tri.b[0], tri.a[1] - tri.b[1])
    scale = max(abs(px), abs(py), h, 1.0)
    tol = 1e-9 * scale
    assert abs(pa - side) <= tol and abs(pb - side) <= tol
    assert abs(ab - side) <= tol  # equilateral
    # q lies on segment (a, b): distance from q to the line is ~0
    aq = (qx - tri.a[0], qy - tri.a[1])
    abv = (tri.b[0] - tri.a[0], tri.b[1] - tri.a[1])
    cross = aq[0] * abv[1] - aq[1] * abv[0]
    assert abs(cross) <= 1e-9 * scale * scale


# ---------------------------------------------------------------------------
# general position


def test_gp_slope_zero_pair():
    r = check_general_position(PointSet.from_pairs([(0, 0), (1, 0)]))
    assert [v.kind for v in r.violations] == ["slope"]


def test_gp_clean_triple():
    r = check_general_position(PointSet.from_pairs([(0, 0), (1, 2), (2, 5)]))
    assert r.ok


def test_gp_collinear_triple():
    r = check_general_position(PointSet.from_pairs([(0, 0), (1, 1), (2, 2)]))
    assert [v.kind for v in r.violations] == ["collinear"]


def test_gp_coincident():
    r = check_general_position(PointSet.from_pairs([(1, 2), (1, 2)]))
    assert [v.kind for v in r.violations] == ["coincident"]


def test_gp_cocircular_quadruple():
    pts = [(3, 4), (4, 3), (-3, -4), (0, 5)]  # all on the circle r=5
    r = check_general_position(PointSet.from_pairs(pts))
    cocirc = [v for v in r.violations if v.kind == "cocircular"]
    assert len(cocirc) == 1 and cocirc[0].ids == (0, 1, 2, 3)


def test_gp_sqrt3_slope_not_representable_but_checked():
    # doubles are rational, and sqrt(3) is not, so dy^2 = 3 dx^2 has no
    # solution with dx != 0: no pair lies on a +-sqrt(3) cone boundary and
    # the screen need not look for one; a clean set passes
    r = check_general_position(PointSet.from_pairs([(0, 0), (1, 3), (5, 2)]))
    assert r.ok
