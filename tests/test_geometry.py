import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonical_corners
from d8span import geometry
from d8span.delaunay import build_dt
from d8span.geometry import (
    CONE_BISECTORS,
    DegeneratePairError,
    GeneralPositionError,
    Point,
    PointSet,
    bisector_distance,
    check_general_position,
    cone_index,
    cone_index_dir,
    cone_indices,
    euclid,
    in_circle,
    in_circle_signs,
    orient,
    orient_signs,
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
# batch cone classification


def _scalar_cones(dx, dy):
    return [cone_index_dir(a, b) for a, b in zip(dx.tolist(), dy.tolist())]


component = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -5e-324]),
)


@given(
    st.lists(
        st.tuples(component, component).filter(lambda d: d != (0.0, 0.0)),
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_cone_indices_matches_cone_index_dir(dirs):
    dx = np.array([a for a, _ in dirs], dtype=np.float64)
    dy = np.array([b for _, b in dirs], dtype=np.float64)
    got = cone_indices(dx, dy)
    assert got.dtype == np.int8 and got.shape == dx.shape
    assert got.tolist() == _scalar_cones(dx, dy)


def test_cone_indices_signed_zeros_and_empty():
    dx = np.array([0.0, -0.0, 0.0, -0.0, 2.0, -2.0, 3.0, -3.0])
    dy = np.array([1.0, 1.0, -1.0, -1.0, 0.0, 0.0, -0.0, -0.0])
    assert cone_indices(dx, dy).tolist() == [0, 0, 3, 3, 2, 5, 2, 5]
    assert cone_indices(dx, dy).tolist() == _scalar_cones(dx, dy)
    assert cone_indices(np.array([]), np.array([])).tolist() == []
    with pytest.raises(DegeneratePairError):
        cone_indices(np.array([1.0, -0.0]), np.array([1.0, 0.0]))


def test_cone_indices_overflow_is_silent():
    # dy^2 and 3 dx^2 overflow to inf; the filter then leaves the entry to
    # the exact comparison, which sees the finite doubles
    dx = np.array([1e200, 1e-200, 1e200, 1.7e308, 1e160, -1e155])
    dy = np.array([1e200, 1e200, -1e160, -1.7e308, 1e200, 1.8e155])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cone_indices(dx, dy)
    assert got.tolist() == _scalar_cones(dx, dy)


def _sqrt3_convergents():
    """Convergents P/Q of sqrt(3) = [1; 1, 2, 1, 2, ...] with Q in [10^5,
    2^26]: P^2 - 3 Q^2 is -2 or 1, far inside the float filter's margin."""
    out = []
    p0, q0, p1, q1 = 1, 0, 1, 1
    for k in range(60):
        a = 2 if k % 2 else 1
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if 10**5 <= q1 <= 2**26:
            out.append((p1, q1))
    return out


@given(
    st.sampled_from(_sqrt3_convergents()),
    st.integers(min_value=-560, max_value=560),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=200, deadline=None)
def test_cone_indices_near_sqrt3_falls_back_to_exact(pq, k, sx, sy):
    P, Q = pq
    near = (sx * math.ldexp(Q, k), sy * math.ldexp(P, k))
    # a near-boundary direction among ones the filter decides
    dx = np.array([near[0], 1.0, 0.0, 1.0])
    dy = np.array([near[1], 0.5, 1.0, 0.0])
    spy = mock.patch.object(
        geometry, "_cmp_sq3_exact", wraps=geometry._cmp_sq3_exact
    )
    with spy as exact:
        got = cone_indices(dx, dy)
    assert exact.call_count == 1
    assert got.tolist() == _scalar_cones(dx, dy)
    steep = P * P > 3 * Q * Q  # exact, in integers
    if sy > 0:
        expected = 0 if steep else (1 if sx > 0 else 5)
    else:
        expected = 3 if steep else (2 if sx > 0 else 4)
    assert got[0] == expected


# ---------------------------------------------------------------------------
# array predicates


def _predicate_cases():
    """Coordinates and index tuples: random points; a cocircular square with
    its fourth corner moved by one ulp each way; collinear lattice triples
    and lattice triples one ulp off their line."""
    rng = np.random.default_rng(5)
    pts = [tuple(p) for p in rng.uniform(-10, 10, (30, 2)).tolist()]
    square = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]
    step = lambda v, s: math.nextafter(v, s * math.inf) if s else v
    bottoms = [(step(0.0, s), step(-1.0, t)) for s in (-1, 0, 1) for t in (-1, 0, 1)]
    lattice = [(float(i), float(2 * i + 1)) for i in range(-3, 4)]
    off = [(x, math.nextafter(y, math.inf)) for x, y in lattice[::2]]
    base = len(pts)
    pts += square + bottoms + lattice + off
    sq = range(base, base + 3)
    lat = range(base + 3 + len(bottoms), base + 3 + len(bottoms) + len(lattice))
    triples = rng.integers(0, base, (200, 3)).tolist()
    triples += [list(t) for t in itertools.combinations(lat, 3)]
    triples += [[lat[0], lat[-1], len(pts) - 1 - k] for k in range(len(off))]
    quads = rng.integers(0, base, (200, 4)).tolist()
    quads += [[*sq, base + 3 + k] for k in range(len(bottoms))]
    return np.array(pts), np.array(triples).T, np.array(quads).T


@pytest.mark.parametrize("k", [0, -500, 240, 400])
def test_array_predicates_match_scalar(k):
    # 2**-500 underflows the in-circle products to zero and 2**400
    # overflows them: both leave the entries to the exact path
    pts, (a, b, c), quads = _predicate_cases()
    xs, ys = np.ldexp(pts[:, 0], k), np.ldexp(pts[:, 1], k)
    Q = [Point(i, x, y) for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist()))]
    want_orient = [orient(Q[i], Q[j], Q[m]) for i, j, m in zip(a, b, c)]
    want_circle = [in_circle(*(Q[i] for i in q)) for q in zip(*quads)]
    assert {0, 1, -1} <= set(want_orient) and {0, 1, -1} <= set(want_circle)
    orient_spy = mock.patch.object(geometry, "orient", wraps=geometry.orient)
    circle_spy = mock.patch.object(
        geometry, "_in_circle_exact", wraps=geometry._in_circle_exact
    )
    with orient_spy as exact_orient, circle_spy as exact_circle:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_orient = orient_signs(xs, ys, a, b, c)
            got_circle = in_circle_signs(xs, ys, *quads)
    assert got_orient.dtype == got_circle.dtype == np.int8
    assert got_orient.tolist() == want_orient
    assert got_circle.tolist() == want_circle
    # the collinear triples and the cocircular square reach the exact path
    assert exact_orient.call_count >= 1 and exact_circle.call_count >= 1


@given(
    st.lists(
        st.tuples(component, component, component, component),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_array_predicates_match_scalar_anywhere(rows):
    # any finite doubles, near overflow and subnormal included
    xs = np.array([r[0] for r in rows] + [r[2] for r in rows])
    ys = np.array([r[1] for r in rows] + [r[3] for r in rows])
    m = len(xs)
    ids = np.arange(m)
    a, b, c, d = (np.roll(ids, s) for s in range(4))
    Q = [Point(i, x, y) for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist()))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_orient = orient_signs(xs, ys, a, b, c).tolist()
        got_circle = in_circle_signs(xs, ys, a, b, c, d).tolist()
    assert got_orient == [orient(Q[i], Q[j], Q[k]) for i, j, k in zip(a, b, c)]
    assert got_circle == [
        in_circle(Q[i], Q[j], Q[k], Q[l]) for i, j, k, l in zip(a, b, c, d)
    ]


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
    assert b1 <= d * (1 + 1e-12)
    assert b1 >= d * math.cos(math.radians(30)) * (1 - 1e-12)


def test_bisector_table_antiparallel_exact():
    for i in range(6):
        ux, uy = CONE_BISECTORS[i]
        vx, vy = CONE_BISECTORS[(i + 3) % 6]
        assert ux == -vx and uy == -vy


# ---------------------------------------------------------------------------
# canonical triangle: the scalar reference of the stretch audit's bounds


def test_canonical_triangle_up():
    assert cone_index(P(0, 0), P(0, 1)) == 0
    h, a, b = canonical_corners(0.0, 0.0, 0.0, 1.0, 0)
    t = math.tan(math.radians(30))
    assert h == 1.0
    assert a == pytest.approx((-t, 1.0))
    assert b == pytest.approx((t, 1.0))


@given(coord, coord, coord, coord)
@settings(max_examples=300)
def test_canonical_triangle_geometry(px, py, qx, qy):
    p, q = P(px, py), P(qx, qy)
    if px == qx and py == qy:
        return
    h, a, b = canonical_corners(px, py, qx, qy, cone_index(p, q))
    if h == 0:
        return
    side = h / math.cos(math.radians(30))
    pa = math.hypot(a[0] - px, a[1] - py)
    pb = math.hypot(b[0] - px, b[1] - py)
    ab = math.hypot(a[0] - b[0], a[1] - b[1])
    scale = max(abs(px), abs(py), h, 1.0)
    tol = 1e-9 * scale
    assert abs(pa - side) <= tol and abs(pb - side) <= tol
    assert abs(ab - side) <= tol  # equilateral
    # q lies on segment (a, b): distance from q to the line is ~0
    aq = (qx - a[0], qy - a[1])
    abv = (b[0] - a[0], b[1] - a[1])
    cross = aq[0] * abv[1] - aq[1] * abv[0]
    assert abs(cross) <= 1e-9 * scale * scale


# ---------------------------------------------------------------------------
# PointSet


def test_point_set_arrays_read_only():
    ps = PointSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])
    for a in (ps.xs, ps.ys):
        assert a.dtype == np.float64 and a.flags.c_contiguous
        with pytest.raises(ValueError):
            a[0] = 5.0
    assert ps.xs.tolist() == [0.0, 2.0] and ps.ys.tolist() == [1.0, 3.0]


def test_point_set_from_array_and_list_bit_equal():
    xy = np.random.default_rng(3).normal(0.0, 1e3, size=(40, 2))
    a, b = PointSet.from_pairs(xy), PointSet.from_pairs(xy.tolist())
    for u, v in ((a.xs, b.xs), (a.ys, b.ys), (a.xs, xy[:, 0]), (a.ys, xy[:, 1])):
        assert np.array_equal(u.view(np.uint64), v.view(np.uint64))
    assert len(PointSet.from_pairs([])) == 0


def test_point_set_points_hold_python_floats():
    ps = PointSet.from_pairs([(0.5, -1.0), (2.0, 3.25)])
    assert ps[1] == Point(1, 2.0, 3.25) and list(ps) == [ps[0], ps[1]]
    for p in (ps[0], ps[-1], *ps):
        assert type(p.x) is float and type(p.y) is float


def test_point_set_equality_by_value():
    ps = PointSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])
    assert ps == PointSet((0.0, 2.0), (1.0, 3.0))
    assert ps == PointSet.from_pairs([(-0.0, 1.0), (2.0, 3.0)])
    assert ps != PointSet.from_pairs([(0.0, 1.0), (2.0, 4.0)])
    assert ps != PointSet.from_pairs([(0.0, 1.0)])
    assert ps != [(0.0, 1.0), (2.0, 3.0)]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_point_set_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        PointSet.from_pairs([(0.0, 1.0), (2.0, bad)])
    with pytest.raises(ValueError, match="finite"):
        PointSet((bad,), (0.0,))


def test_point_set_rejects_length_mismatch():
    with pytest.raises(ValueError, match="differ in length"):
        PointSet((0.0, 1.0), (0.0,))


# ---------------------------------------------------------------------------
# general position


def test_gp_slope_zero_pair():
    r = check_general_position(PointSet.from_pairs([(0, 0), (1, 0)]))
    assert [v.kind for v in r] == ["slope"]


def test_gp_clean_triple():
    assert check_general_position(PointSet.from_pairs([(0, 0), (1, 2), (2, 5)])) == []


def test_gp_collinear_triple():
    # a collinear triple is not screened: build_dt rejects it
    ps = PointSet.from_pairs([(0, 0), (1, 1), (2, 2)])
    assert check_general_position(ps) == []
    with pytest.raises(GeneralPositionError) as err:
        build_dt(ps)
    assert [v.kind for v in err.value.violations] == ["collinear"]


def test_gp_coincident():
    r = check_general_position(PointSet.from_pairs([(1, 2), (1, 2)]))
    assert [v.kind for v in r] == ["coincident"]


def test_gp_sqrt3_slope_not_representable_but_checked():
    # doubles are rational, and sqrt(3) is not, so dy^2 = 3 dx^2 has no
    # solution with dx != 0: no pair lies on a +-sqrt(3) cone boundary and
    # the screen need not look for one; a clean set passes
    assert check_general_position(PointSet.from_pairs([(0, 0), (1, 3), (5, 2)])) == []


def _pairwise_violations(pts):
    """Every pair sharing a y, as (ids, kind): the quadratic reference."""
    out = {}
    for i, (xi, yi) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            xj, yj = pts[j]
            if yi == yj:
                out[(i, j)] = "coincident" if xi == xj else "slope"
    return out


tiny_coord = st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.5])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(tiny_coord, tiny_coord), max_size=12))
def test_gp_matches_pairwise_oracle(pts):
    oracle = _pairwise_violations(pts)
    r = check_general_position(PointSet.from_pairs(pts))
    assert (not r) == (not oracle)
    reported = [v.ids for v in r]
    assert reported == sorted(reported)
    # k points sharing a y give k - 1 pairs
    assert len(reported) == len(pts) - len({y for _, y in pts})
    for v in r:
        assert oracle.get(v.ids) == v.kind
    # the reported pairs join every equal-y run into one component
    comp = list(range(len(pts)))

    def find(i):
        while comp[i] != i:
            i = comp[i]
        return i

    for i, j in reported:
        comp[find(i)] = find(j)
    for i, j in oracle:
        assert find(i) == find(j)
