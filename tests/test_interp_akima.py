"""Tests for the from-scratch Akima spline."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import InterpolationError
from repro.interp.akima import AkimaSpline


class TestConstruction:
    def test_needs_two_distinct_points(self):
        with pytest.raises(InterpolationError):
            AkimaSpline([(1.0, 2.0)])
        with pytest.raises(InterpolationError):
            AkimaSpline([(1.0, 2.0), (1.0, 3.0)])

    def test_two_points_is_straight_line(self):
        f = AkimaSpline([(0.0, 0.0), (10.0, 20.0)])
        assert f(5.0) == pytest.approx(10.0)
        assert f.derivative(3.0) == pytest.approx(2.0)

    def test_duplicate_x_merged(self):
        f = AkimaSpline([(0.0, 0.0), (1.0, 2.0), (1.0, 4.0)])
        assert f(1.0) == pytest.approx(3.0)

    def test_points_sorted(self):
        f = AkimaSpline([(5.0, 5.0), (1.0, 1.0), (3.0, 3.0)])
        assert f.xs == (1.0, 3.0, 5.0)

    def test_sorted_fast_path_matches_unsorted(self):
        # Pre-sorted input takes a single-scan fast path that skips the
        # merge/sort; the resulting spline must be identical to the one
        # built from the same points in scrambled order.
        pts = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 5.0), (4.0, 4.0)]
        scrambled = [pts[3], pts[0], pts[4], pts[2], pts[1]]
        fast = AkimaSpline(pts, min_y=-100.0)
        slow = AkimaSpline(scrambled, min_y=-100.0)
        assert fast.xs == slow.xs
        assert fast.ys == slow.ys
        for x in np.linspace(-0.5, 4.5, 41):
            assert fast(float(x)) == slow(float(x))
            assert fast.derivative(float(x)) == slow.derivative(float(x))

    def test_sorted_fast_path_rejects_nothing_valid(self):
        # An equal-x pair disables the fast path (merge still happens).
        f = AkimaSpline([(0.0, 0.0), (1.0, 2.0), (1.0, 4.0), (2.0, 6.0)])
        assert f.xs == (0.0, 1.0, 2.0)
        assert f(1.0) == pytest.approx(3.0)


class TestInterpolation:
    def test_passes_through_knots(self):
        pts = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 5.0), (4.0, 4.0)]
        f = AkimaSpline(pts, min_y=-100.0)
        for x, y in pts:
            assert f(x) == pytest.approx(y, abs=1e-12)

    def test_reproduces_straight_line_exactly(self):
        pts = [(float(x), 2.0 * x + 1.0) for x in range(8)]
        f = AkimaSpline(pts)
        for x in np.linspace(0.0, 7.0, 40):
            assert f(float(x)) == pytest.approx(2.0 * x + 1.0, abs=1e-9)

    def test_reproduces_quadratic_inside(self):
        # Akima reproduces polynomials up to degree 2 on interior intervals.
        pts = [(float(x), float(x * x)) for x in range(10)]
        f = AkimaSpline(pts, min_y=-1e9)
        for x in np.linspace(2.0, 7.0, 25):
            assert f(float(x)) == pytest.approx(x * x, rel=1e-9, abs=1e-9)

    def test_no_oscillation_on_step_like_data(self):
        # Classic Akima 1970 test: flat, then rising. Cubic splines
        # overshoot here; Akima must stay within a modest band.
        pts = [(0, 10.0), (1, 10.0), (2, 10.0), (3, 10.0), (4, 10.0),
               (5, 10.0), (6, 10.5), (7, 15.0), (8, 50.0), (9, 60.0), (10, 85.0)]
        f = AkimaSpline([(float(x), y) for x, y in pts], min_y=-1e9)
        for x in np.linspace(0.0, 5.0, 30):
            assert 9.5 <= f(float(x)) <= 10.6

    def test_continuity_c0(self):
        pts = [(0.0, 0.0), (1.0, 5.0), (2.0, -3.0), (3.0, 7.0), (4.0, 1.0)]
        f = AkimaSpline(pts, min_y=-1e9)
        for knot in [1.0, 2.0, 3.0]:
            left = f(knot - 1e-9)
            right = f(knot + 1e-9)
            assert left == pytest.approx(right, abs=1e-6)

    def test_continuity_c1(self):
        pts = [(0.0, 0.0), (1.0, 5.0), (2.0, -3.0), (3.0, 7.0), (4.0, 1.0)]
        f = AkimaSpline(pts, min_y=-1e9)
        for knot in [1.0, 2.0, 3.0]:
            left = f.derivative(knot - 1e-9)
            right = f.derivative(knot + 1e-9)
            assert left == pytest.approx(right, abs=1e-5)

    def test_derivative_matches_finite_difference(self):
        pts = [(float(x), math.sin(x)) for x in range(8)]
        f = AkimaSpline(pts, min_y=-1e9)
        for x in [0.7, 2.3, 4.9, 6.1]:
            h = 1e-6
            fd = (f(x + h) - f(x - h)) / (2 * h)
            assert f.derivative(x) == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_min_y_clamp(self):
        f = AkimaSpline([(0.0, 1.0), (1.0, 1.0)], min_y=0.5)
        assert f(0.5) == 1.0
        g = AkimaSpline([(0.0, -5.0), (1.0, -5.0)], min_y=0.5)
        assert g(0.5) == 0.5

    def test_with_point(self):
        f = AkimaSpline([(0.0, 0.0), (2.0, 2.0)])
        g = f.with_point(1.0, 10.0)
        assert len(g) == 3
        assert g(1.0) == pytest.approx(10.0)
        assert len(f) == 2

    def test_approximates_smooth_function_well(self):
        pts = [(x, math.exp(-x / 3.0)) for x in np.linspace(0.0, 9.0, 15)]
        f = AkimaSpline([(float(x), float(y)) for x, y in pts])
        for x in np.linspace(0.5, 8.5, 33):
            assert f(float(x)) == pytest.approx(math.exp(-x / 3.0), abs=5e-3)


@st.composite
def _spline_points(draw):
    # Abscissae are integer problem sizes -- the library's actual domain
    # (computation units); ys are arbitrary finite times/speeds.
    n = draw(st.integers(min_value=2, max_value=15))
    xs = sorted(
        float(x)
        for x in draw(
            st.lists(
                st.integers(min_value=0, max_value=100_000),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    ys = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0), min_size=n, max_size=n
        )
    )
    return list(zip(xs, ys))


class TestProperties:
    @given(_spline_points())
    @settings(max_examples=60)
    def test_interpolation_property(self, pts):
        f = AkimaSpline(pts, min_y=-1e9)
        for x, y in pts:
            assert f(x) == pytest.approx(y, rel=1e-7, abs=1e-7)

    @given(_spline_points())
    @settings(max_examples=40)
    # A steep segment ending at a large knot: a probe offset that scales
    # with the knot (|knot| * 1e-9) reads slope * offset as a jump here.
    @example(
        pts=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0),
             (5.0, 0.0), (6.0, 0.0), (64232.0, 5.0), (64234.0, 0.0),
             (64235.0, 0.0)]
    )
    def test_c0_continuity_at_interior_knots(self, pts):
        f = AkimaSpline(pts, min_y=-1e9)
        xs = sorted(x for x, _ in pts)
        for knot in xs[1:-1]:
            # One-sided limits, probed at the nearest floats either side, so
            # the comparison measures a jump and not the local slope.
            left = f(math.nextafter(knot, -math.inf))
            right = f(math.nextafter(knot, math.inf))
            assert left == pytest.approx(right, rel=1e-4, abs=1e-4)

    @given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_linear_reproduction(self, slope, intercept):
        xs = [0.0, 1.0, 2.5, 4.0, 7.0, 11.0]
        f = AkimaSpline([(x, slope * x + intercept) for x in xs], min_y=-1e9)
        for x in [0.5, 3.0, 9.0]:
            assert f(x) == pytest.approx(slope * x + intercept, rel=1e-7, abs=1e-7)
