import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orientkit.coding import (
    RegressionTarget,
    classification_loss,
    classification_loss_grad,
    decode,
    encode,
    gradient_check,
    numeric_gradient,
    orpn_loss,
    regression_loss,
    smooth_l1,
    smooth_l1_grad,
    verify_loss_gradients,
)
from orientkit.geometry import OrientedBox

finite = dict(allow_nan=False, allow_infinity=False)


def boxes():
    return st.builds(
        OrientedBox,
        cx=st.floats(-100, 100, **finite),
        cy=st.floats(-100, 100, **finite),
        w=st.floats(0.5, 50, **finite),
        h=st.floats(0.5, 50, **finite),
        theta=st.floats(-math.pi / 2 + 1e-9, math.pi / 2, **finite),
    )


class TestEncodeDecode:
    def test_identity(self):
        box = OrientedBox(3, 4, 5, 6, 0.2)
        assert encode(box, box) == RegressionTarget(0, 0, 0, 0, 0)

    def test_worked_offsets(self):
        anchor = OrientedBox(10, 20, 4, 8, 0)
        box = OrientedBox(12, 24, 8, 8, math.pi / 12)
        t = encode(box, anchor)
        assert t.tx == pytest.approx(0.5, abs=1e-12)
        assert t.ty == pytest.approx(0.5, abs=1e-12)
        assert t.tw == pytest.approx(math.log(2), abs=1e-12)
        assert t.th == pytest.approx(0.0, abs=1e-12)
        assert t.ttheta == pytest.approx(math.pi / 12, abs=1e-12)

    def test_pure_angle_offset(self):
        anchor = OrientedBox(0, 0, 2, 2, math.pi / 6)
        box = OrientedBox(0, 0, 2, 2, -math.pi / 6)
        assert encode(box, anchor).ttheta == pytest.approx(-math.pi / 3, abs=1e-12)

    def test_decode_zeros_returns_anchor(self):
        anchor = OrientedBox(7, -2, 3, 9, -0.4)
        assert decode(RegressionTarget(0, 0, 0, 0, 0), anchor) == anchor

    def test_decode_worked_example(self):
        anchor = OrientedBox(10, 20, 4, 8, 0)
        t = RegressionTarget(0.5, 0.5, math.log(2), 0.0, math.pi / 12)
        box = decode(t, anchor)
        assert (box.cx, box.cy) == (12, 24)
        assert box.w == pytest.approx(8, rel=1e-12)
        assert box.h == pytest.approx(8, rel=1e-12)
        assert box.theta == pytest.approx(math.pi / 12, abs=1e-12)

    def test_decode_overflow(self):
        with pytest.raises(OverflowError):
            decode(RegressionTarget(0, 0, 1e4, 0, 0), OrientedBox(0, 0, 2, 2, 0))

    @given(boxes(), boxes())
    @settings(max_examples=300)
    def test_round_trip(self, box, anchor):
        back = decode(encode(box, anchor), anchor)
        assert back.cx == pytest.approx(box.cx, abs=1e-9)
        assert back.cy == pytest.approx(box.cy, abs=1e-9)
        assert back.w == pytest.approx(box.w, rel=1e-9)
        assert back.h == pytest.approx(box.h, rel=1e-9)
        assert back.theta == pytest.approx(box.theta, abs=1e-9)


class TestSmoothL1:
    @pytest.mark.parametrize(
        "x,expected", [(0.0, 0.0), (0.5, 0.125), (2.0, 1.5), (-2.0, 1.5)]
    )
    def test_values(self, x, expected):
        assert smooth_l1(x) == pytest.approx(expected, abs=1e-12)

    def test_continuity_at_kink(self):
        assert 0.5 * 1.0**2 == pytest.approx(abs(1.0) - 0.5, abs=1e-12)
        assert smooth_l1(1.0) == pytest.approx(0.5, abs=1e-12)
        assert smooth_l1(math.nextafter(1.0, 0.0)) == pytest.approx(0.5, abs=1e-9)

    @given(st.floats(-50, 50, **finite))
    def test_even(self, x):
        assert smooth_l1(x) == smooth_l1(-x)

    @given(st.floats(0, 50, **finite), st.floats(0, 50, **finite))
    def test_monotone_in_magnitude(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert smooth_l1(lo) <= smooth_l1(hi) + 1e-15


ZEROS = RegressionTarget(0, 0, 0, 0, 0)


class TestLosses:
    def test_regression_gated_by_background(self):
        t = RegressionTarget(1, 2, 3, 4, 5)
        assert regression_loss(t, ZEROS, 0) == 0.0

    def test_regression_zero_for_equal_targets(self):
        t = RegressionTarget(0.1, -0.2, 0.3, 0.4, -0.5)
        assert regression_loss(t, t, 1) == 0.0

    def test_regression_worked_sum(self):
        tstar = RegressionTarget(0.5, 0.5, 2.0, 0.0, 0.2)
        assert regression_loss(ZEROS, tstar, 1) == pytest.approx(1.77, abs=1e-12)

    @given(
        st.lists(st.floats(-3, 3, **finite), min_size=5, max_size=5),
        st.lists(st.floats(-3, 3, **finite), min_size=5, max_size=5),
        st.sampled_from([0, 1]),
    )
    # 0.5 * r * r underflows to 0 for a residual this small, so a != b here.
    @example([0.0] * 5, [0.0, 0.0, 0.0, 0.0, 6.7e-294], 1)
    # One residual each, so a loss that drops any of the five terms reads 0.
    @example([0.0] * 5, [0.5, 0.0, 0.0, 0.0, 0.0], 1)
    @example([0.0] * 5, [0.0, 0.5, 0.0, 0.0, 0.0], 1)
    @example([0.0] * 5, [0.0, 0.0, 0.5, 0.0, 0.0], 1)
    @example([0.0] * 5, [0.0, 0.0, 0.0, 0.5, 0.0], 1)
    @example([0.0] * 5, [0.0, 0.0, 0.0, 0.0, 0.5], 1)
    def test_regression_nonnegative(self, a, b, u):
        loss = regression_loss(
            RegressionTarget.from_array(a), RegressionTarget.from_array(b), u
        )
        assert loss >= 0.0
        if u == 1 and loss == 0.0:
            assert all(0.5 * (y - x) * (y - x) == 0.0 for x, y in zip(a, b))

    def test_classification_values(self):
        assert classification_loss(1.0, 1) < 1e-11
        assert classification_loss(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
        assert classification_loss(0.5, 0) == pytest.approx(math.log(2), abs=1e-12)
        assert classification_loss(0.0, 1) == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_classification_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            classification_loss(1.5, 1)
        with pytest.raises(ValueError):
            classification_loss(0.5, 2)

    def test_classification_monotonicity(self):
        ps = np.linspace(0.01, 0.99, 50)
        fg = [classification_loss(p, 1) for p in ps]
        bg = [classification_loss(p, 0) for p in ps]
        assert all(a > b for a, b in zip(fg, fg[1:]))
        assert all(a < b for a, b in zip(bg, bg[1:]))

    def test_orpn_confident_background_near_zero(self):
        b = orpn_loss(1e-12, 0, ZEROS, ZEROS, 1.0)
        assert b.total == pytest.approx(0.0, abs=1e-9)
        assert b.reg == 0.0

    def test_orpn_equal_targets(self):
        t = RegressionTarget(0.1, 0.2, 0.3, 0.4, 0.5)
        b = orpn_loss(0.5, 1, t, t, 1.0)
        assert b.total == pytest.approx(math.log(2), abs=1e-12)

    def test_orpn_worked_sum(self):
        tstar = RegressionTarget(0.5, 0.5, 2.0, 0.0, 0.2)
        b = orpn_loss(0.5, 1, ZEROS, tstar, 1.0)
        assert b.total == pytest.approx(math.log(2) + 1.77, abs=1e-12)

    @given(
        st.floats(0, 1, **finite),
        st.sampled_from([0, 1]),
        st.floats(0, 5, **finite),
        st.lists(st.floats(-3, 3, **finite), min_size=5, max_size=5),
        st.lists(st.floats(-3, 3, **finite), min_size=5, max_size=5),
    )
    def test_composition_law(self, p, u, lam, a, b):
        t = RegressionTarget.from_array(a)
        tstar = RegressionTarget.from_array(b)
        breakdown = orpn_loss(p, u, t, tstar, lam)
        assert breakdown.total == pytest.approx(
            breakdown.cls + lam * breakdown.u * breakdown.reg, abs=1e-12
        )
        assert breakdown.cls == classification_loss(p, u)
        assert breakdown.reg == regression_loss(t, tstar, u)


class TestGradientCheck:
    def test_quadratic(self):
        err = gradient_check(
            lambda x: float(x[0] ** 2),
            lambda x: np.array([2.0 * x[0]]),
            np.array([3.0]),
        )
        assert err < 1e-6

    @pytest.mark.parametrize("x0", [0.3, 2.0])
    def test_smooth_l1_gradient(self, x0):
        err = gradient_check(
            lambda x: smooth_l1(float(x[0])),
            lambda x: np.array([smooth_l1_grad(float(x[0]))]),
            np.array([x0]),
        )
        assert err < 1e-5

    def test_classification_gradient_is_reciprocal(self):
        p0 = 0.7
        assert classification_loss_grad(p0, 1) == pytest.approx(-1 / p0, abs=1e-12)
        err = gradient_check(
            lambda x: classification_loss(float(x[0]), 1),
            lambda x: np.array([classification_loss_grad(float(x[0]), 1)]),
            np.array([p0]),
        )
        assert err < 1e-5

    def test_numeric_gradient_rejects_bad_step(self):
        with pytest.raises(ValueError):
            numeric_gradient(lambda x: float(x[0]), np.array([1.0]), step=0.0)

    def test_non_finite_evaluation_raises(self):
        with pytest.raises(ValueError):
            numeric_gradient(lambda x: math.inf, np.array([1.0]))

    def test_combined_loss_gradients_at_random_points(self):
        assert verify_loss_gradients(n_points=100, seed=4) < 1e-4
