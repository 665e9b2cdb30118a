"""Tests for the divergence loss family and the baseline losses."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rsdnet.divergence import (
    MIN_CONSTANT,
    PROB_CLIP,
    InvalidTuningError,
    LossSpec,
    _label_terms,
    _sigmoid,
    clip_probs,
    conditional_sd_risk,
    make_tuning,
    sd_loss,
    softmax,
)

from reference import (cce_loss, gce_loss, loss_bounds, mae_loss,
                       reference_clip_probs, same_bits, tcce_mean,
                       textbook_softmax)


def random_simplex(rng, n, J):
    """Rows drawn uniformly from the interior of the simplex."""
    g = rng.gamma(1.0, 1.0, size=(n, J))
    return g / g.sum(axis=1, keepdims=True)


def admissible_grid():
    """A spread of tuning pairs covering the admissible set."""
    pairs = []
    for beta in (0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        for lam in (-1.0, -0.8, -0.5, 0.0, 0.5, 1.0):
            try:
                pairs.append(make_tuning(beta, lam))
            except InvalidTuningError:
                continue
    return pairs


class TestTuning:
    def test_derived_constants(self):
        t = make_tuning(0.5, -0.5)
        assert t.a == pytest.approx(1.0 - 0.5 * 0.5)
        assert t.b == pytest.approx(0.5 + 0.5 * 0.5)

    def test_sum_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            beta = rng.uniform(0.0, 1.0)
            lam = rng.uniform(-2.0, 2.0)
            try:
                t = make_tuning(beta, lam)
            except InvalidTuningError:
                continue
            assert t.a + t.b == pytest.approx(1.0 + beta, abs=1e-12)

    def test_beta_one_any_lambda(self):
        for lam in (-100.0, -1.0, 0.0, 5.0, 100.0):
            t = make_tuning(1.0, lam)
            assert t.a == pytest.approx(1.0)
            assert t.b == pytest.approx(1.0)

    @pytest.mark.parametrize("beta,lam,reason", [
        (0.0, 0.0, "b_nonpositive"),
        (0.0, -1.0, "a_nonpositive"),
        (1.5, 0.0, "beta_out_of_range"),
        (-0.1, 0.0, "beta_out_of_range"),
        (0.5, 3.0, "b_nonpositive"),
        (0.5, -2.5, "a_nonpositive"),
        # B positive but subnormal: (1 + beta)/B overflows
        (1e-320, 0.0, "b_nonpositive"),
    ])
    def test_rejections(self, beta, lam, reason):
        with pytest.raises(InvalidTuningError) as err:
            make_tuning(beta, lam)
        assert err.value.reason == reason

    def test_sd_loss_finite_at_the_admissibility_floor(self):
        # at B = MIN_CONSTANT the per-example constant J*A/B and a batch
        # sum stay finite; at the smallest normal number they overflowed
        t = make_tuning(MIN_CONSTANT, 0.0)
        assert (t.a, t.b) == (1.0, MIN_CONSTANT)
        z = np.random.default_rng(0).normal(size=(64, 4))
        value, grad = LossSpec(kind="sd", tuning=t).value_and_grad_logits(
            np.arange(64) % 4, z)
        assert np.isfinite(value) and np.isfinite(grad).all()
        with pytest.raises(InvalidTuningError) as err:
            make_tuning(0.0, -float(np.finfo(np.float64).tiny))
        assert err.value.reason == "b_nonpositive"

    @given(beta=st.floats(-0.5, 1.5) | st.sampled_from([math.nan, math.inf, -math.inf]),
           lam=st.floats(-5.0, 5.0) | st.sampled_from([math.nan, math.inf, -math.inf]))
    @example(beta=0.0, lam=-1.0)   # A = 0
    @example(beta=0.5, lam=1.0)    # B = 0
    @example(beta=2.0, lam=-5.0)   # every rule fails
    @example(beta=5e-324, lam=0.0)  # B subnormal
    def test_reason_tag_is_first_failing_rule(self, beta, lam):
        a = 1.0 + lam * (1.0 - beta)
        b = beta - lam * (1.0 - beta)
        if not (math.isfinite(beta) and math.isfinite(lam) and 0.0 <= beta <= 1.0):
            expected = "beta_out_of_range"
        elif a < MIN_CONSTANT:
            expected = "a_nonpositive"
        elif b < MIN_CONSTANT:
            expected = "b_nonpositive"
        else:
            t = make_tuning(beta, lam)
            assert t.a > 0 and t.b > 0
            assert (t.a, t.b) == (a, b)
            return
        with pytest.raises(InvalidTuningError) as err:
            make_tuning(beta, lam)
        assert err.value.reason == expected


class TestSdLoss:
    # an int label with (J,) probs is a batch of one: (1,) values
    def test_one_hot_value(self):
        # at p equal to the one-hot label the loss is (J-1)/B, not 0
        t = make_tuning(0.5, 0.0)
        assert sd_loss(0, np.array([1.0, 0.0]), t) == pytest.approx([2.0])

    def test_empty_batch_gives_no_values(self):
        # per-example values of no rows are no values, unlike the batch
        # mean of LossSpec (TestLossSpec.test_empty_batch_rejected)
        val = sd_loss(np.zeros(0, dtype=np.intp), np.zeros((0, 3)),
                      make_tuning(0.5, 0.0))
        assert val.shape == (0,) and val.dtype == np.float64

    def test_uniform_value(self):
        t = make_tuning(0.5, 0.0)
        val = sd_loss(0, np.array([0.5, 0.5]), t)
        assert val == pytest.approx([2.5857864376], abs=1e-9)

    def test_beta_one_is_squared_distance_plus_offset(self):
        t = make_tuning(1.0, 0.7)
        p = np.array([[0.25, 0.75], [0.5, 0.5]])
        # ||e1 - p||^2 + (J-1)/B
        assert sd_loss([0, 0], p, t) == pytest.approx(
            [0.75**2 + 0.75**2 + 1.0, 1.5], abs=1e-12)

    def test_beta_one_grads(self):
        t = make_tuning(1.0, 0.0)
        _, gz = LossSpec(kind="sd", tuning=t).value_and_grad_logits(0, np.array([0.0, 0.0]))
        assert gz.shape == (1, 2)
        np.testing.assert_allclose(gz, [[-0.5, 0.5]])

    def test_grad_logits_finite_difference(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for t in admissible_grid():
            z = rng.normal(0.0, 2.0, (3, 4))
            labels = rng.integers(0, 4, 3)
            # LossSpec's gradient is of the batch mean: undo the 1/3
            an = LossSpec(kind="sd", tuning=t).value_and_grad_logits(labels, z)[1] * 3
            fd = np.zeros_like(z)
            for i in range(z.shape[0]):
                for j in range(z.shape[1]):
                    up, dn = z.copy(), z.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd[i, j] = (sd_loss(labels, softmax(up), t)[i]
                                - sd_loss(labels, softmax(dn), t)[i]) / (2 * h)
            np.testing.assert_allclose(fd, an, rtol=1e-5, atol=1e-7)


@st.composite
def admissible_tunings(draw, lam=st.floats(-3.0, 3.0)):
    beta = draw(st.floats(0.0, 1.0))
    lam = draw(lam)
    try:
        return make_tuning(beta, lam)
    except InvalidTuningError:
        assume(False)


@st.composite
def simplex_batches(draw):
    """(p_star, probs): one simplex row and an (n, J) batch of them."""
    J = draw(st.integers(2, 6))
    n = draw(st.integers(1, 8))
    raw = draw(st.lists(st.lists(st.floats(1e-3, 1.0), min_size=J, max_size=J),
                        min_size=n + 1, max_size=n + 1))
    rows = np.array(raw)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows[0], rows[1:]


class TestConditionalRisk:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair=simplex_batches(), t=admissible_tunings())
    def test_batch_property(self, pair, t):
        p_star, probs = pair
        # rounding error grows with the (1+beta)/(A*B) scale of the terms
        tol = 1e-12 * (1.0 + 2.0 / (t.a * t.b))
        risks = conditional_sd_risk(p_star, probs, t)
        assert risks.shape == (probs.shape[0],)
        assert np.all(risks >= -tol)
        at_ref = conditional_sd_risk(p_star, np.vstack([probs, p_star]), t)
        assert abs(at_ref[-1]) <= tol

    @pytest.mark.parametrize("p_star_shape, probs_shape", [
        ((3,), (2,)), ((3,), (4, 2)), ((2, 3), (2, 3)), ((2, 3), (3,)),
        ((3,), (1, 4, 3)), ((), ()), ((3,), (3,)),
    ])
    def test_other_shapes_rejected(self, p_star_shape, probs_shape):
        t = make_tuning(0.5, 0.0)
        with pytest.raises(ValueError):
            conditional_sd_risk(np.full(p_star_shape, 0.5),
                                np.full(probs_shape, 0.5), t)

    def test_zero_at_reference(self):
        t = make_tuning(0.5, 0.0)
        p = np.array([0.2, 0.3, 0.5])
        assert abs(conditional_sd_risk(p, p[None], t)[0]) < 1e-12

    def test_positive_off_reference(self):
        rng = np.random.default_rng(4)
        for t in admissible_grid():
            p_star = random_simplex(rng, 20, 3)
            p = random_simplex(rng, 20, 3)
            for ps, pp in zip(p_star, p):
                assert conditional_sd_risk(ps, pp[None], t)[0] > 0.0

    def test_beta_one_is_half_squared_distance_scaled(self):
        # at beta = 1 the family reduces to the squared L2 distance
        t = make_tuning(1.0, -3.0)
        p_star = np.array([0.7, 0.3])
        p = np.array([[0.4, 0.6]])
        assert conditional_sd_risk(p_star, p, t) == pytest.approx(
            [np.sum((p - p_star) ** 2)], abs=1e-12)


class TestLossBounds:
    def test_beta_one_binary_anchor(self):
        t = make_tuning(1.0, 0.0)
        lower, upper = loss_bounds(t, 2)
        assert lower == pytest.approx(3.0)
        assert upper == pytest.approx(4.0)

    def test_one_class_rejected(self):
        with pytest.raises(ValueError, match="J must be at least 2"):
            loss_bounds(make_tuning(1.0, 0.0), 1)

    def test_extremes_attained(self):
        t = make_tuning(1.0, 0.0)
        uniform = np.array([0.5, 0.5])
        corner = np.array([1.0, 0.0])
        total_uniform = sd_loss([0, 1], np.tile(uniform, (2, 1)), t).sum()
        total_corner = sd_loss([0, 1], np.tile(corner, (2, 1)), t).sum()
        assert total_uniform == pytest.approx(3.0, abs=1e-12)
        assert total_corner == pytest.approx(4.0, abs=1e-12)

    def test_random_points_inside(self):
        rng = np.random.default_rng(5)
        for t in admissible_grid():
            for J in (2, 5):
                lower, upper = loss_bounds(t, J)
                p = random_simplex(rng, 50, J)
                totals = np.zeros(50)
                for j in range(J):
                    totals += sd_loss(np.full(50, j), p, t)
                assert np.all(totals >= lower - 1e-9)
                assert np.all(totals <= upper + 1e-9)

    @given(t=admissible_tunings(),
           raw=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
    def test_bounds_bracket_sum_over_labels(self, t, raw):
        assume(sum(raw) > 1e-3)
        p = np.array(raw) / sum(raw)
        J = p.shape[0]
        lower, upper = loss_bounds(t, J)
        total = sd_loss(np.arange(J), np.tile(p, (J, 1)), t).sum()
        # rounding error of the sum scales with its largest terms
        tol = 1e-12 * (J * J / t.b + J * (1.0 + t.beta) / (t.a * t.b) + J / t.a)
        assert lower - tol <= total <= upper + tol


def kernel(spec, labels, probs):
    """spec's loss kernel on the (n, J) probability rows, as train runs it."""
    return spec._value_and_grad(probs, *_label_terms(labels, probs))


def loss_value(spec, labels, probs):
    """The batch-mean loss of spec on the given probability rows."""
    return kernel(spec, np.asarray(labels, dtype=np.intp), np.atleast_2d(probs))[0]


class TestBaselines:
    def test_cce(self):
        p = np.array([0.25, 0.75])
        assert loss_value(LossSpec(kind="cce"), [1], p) == pytest.approx(-np.log(0.75))

    def test_mae(self):
        p = np.array([0.25, 0.75])
        assert loss_value(LossSpec(kind="mae"), [0], p) == pytest.approx(1.5)

    def test_gce_limits(self):
        p = np.array([0.3, 0.7])
        assert loss_value(LossSpec(kind="gce", q=1.0), [1], p) == pytest.approx(0.3)
        # small q approaches cce
        assert loss_value(LossSpec(kind="gce", q=1e-6), [1], p) == pytest.approx(
            -np.log(0.7), abs=1e-5)
        with pytest.raises(ValueError):
            LossSpec(kind="gce", q=0.0)
        with pytest.raises(ValueError):
            LossSpec(kind="gce", q=1.5)

    def test_tcce_drops_largest(self):
        probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.01, 0.99]])
        labels = [0, 0, 0]
        # ceil(0.34*3) = 2 dropped
        trimmed = loss_value(LossSpec(kind="tcce", delta=0.34), labels, probs)
        assert trimmed == pytest.approx(-np.log(0.9))
        untrimmed = loss_value(LossSpec(kind="tcce", delta=0.0), labels, probs)
        assert untrimmed == pytest.approx(-np.log(probs[:, 0]).mean())
        with pytest.raises(ValueError):
            LossSpec(kind="tcce", delta=1.0)


LOSS_KINDS = ("sd", "cce", "mae", "gce", "tcce")
ONE_PER_KIND = [
    LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8)),
    LossSpec(kind="cce"),
    LossSpec(kind="mae"),
    LossSpec(kind="gce", q=0.7),
    LossSpec(kind="tcce", delta=0.2),
]


@st.composite
def loss_specs(draw, kind):
    if kind == "sd":
        return LossSpec(kind="sd", tuning=draw(admissible_tunings()))
    if kind == "gce":
        return LossSpec(kind="gce", q=draw(st.floats(0.05, 1.0)))
    if kind == "tcce":
        return LossSpec(kind="tcce", delta=draw(st.floats(0.0, 0.9)))
    return LossSpec(kind=kind)


@st.composite
def logit_batches(draw):
    """(labels, logits) with logits in [-3, 3], so no probability is clipped."""
    n = draw(st.integers(1, 6))
    J = draw(st.integers(2, 4))
    z = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * J, max_size=n * J))
    labels = draw(st.lists(st.integers(0, J - 1), min_size=n, max_size=n))
    return np.array(labels), np.array(z).reshape(n, J)


class TestLossSpec:
    @pytest.mark.parametrize("spec", [
        LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8)),
        LossSpec(kind="sd", tuning=make_tuning(1.0, 0.0)),
        LossSpec(kind="cce"),
        LossSpec(kind="mae"),
        LossSpec(kind="gce", q=0.7),
        LossSpec(kind="tcce", delta=0.2),
    ])
    def test_grad_matches_finite_difference(self, spec):
        rng = np.random.default_rng(6)
        z = rng.normal(0.0, 1.5, (6, 3))
        labels = rng.integers(0, 3, 6)
        val, grad = spec.value_and_grad_logits(labels, z)
        assert np.isfinite(val)
        h = 1e-6
        fd = np.zeros_like(z)
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                up, dn = z.copy(), z.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (spec.value_and_grad_logits(labels, up)[0]
                            - spec.value_and_grad_logits(labels, dn)[0]) / (2 * h)
        np.testing.assert_allclose(fd, grad, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @given(data=st.data(), batch=logit_batches())
    def test_grad_matches_central_differences(self, kind, data, batch):
        spec = data.draw(loss_specs(kind))
        labels, z = batch
        n = z.shape[0]
        per = -np.log(softmax(z)[np.arange(n), labels])
        if kind == "tcce":
            n_drop = int(np.ceil(spec.delta * n))
            assume(n_drop < n)
            if n_drop > 0:
                # a step of h moves each cce by at most 2h: keep the
                # trimming cut well clear of a tie
                cut = np.sort(per)[n - n_drop - 1:n - n_drop + 1]
                assume(cut[1] - cut[0] > 1e-3)
        val, grad = spec.value_and_grad_logits(labels, z)
        h = 1e-6
        fd = np.zeros_like(z)
        for i in range(n):
            for j in range(z.shape[1]):
                up, dn = z.copy(), z.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (spec.value_and_grad_logits(labels, up)[0]
                            - spec.value_and_grad_logits(labels, dn)[0]) / (2 * h)
        # cancellation in the difference grows with the size of the value
        atol = 1e-7 + 1e-9 * abs(val)
        np.testing.assert_allclose(fd, grad, rtol=1e-5, atol=atol)

    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.9])
    def test_tcce_never_trims_the_whole_batch(self, delta):
        z = np.array([[0.3, -1.2, 2.0], [1.5, 0.1, -0.4]])
        labels = np.array([2, 1])
        tcce = LossSpec(kind="tcce", delta=delta)
        # a batch of one is kept whole: tcce is cce
        val, grad = tcce.value_and_grad_logits(labels[:1], z[:1])
        cce_val, cce_grad = LossSpec(kind="cce").value_and_grad_logits(labels[:1], z[:1])
        assert val == cce_val and np.array_equal(grad, cce_grad)
        # of two, the smaller loss is kept whatever delta asks
        val, grad = tcce.value_and_grad_logits(labels, z)
        per = -np.log(softmax(z)[[0, 1], labels])
        assert val == per.min()
        assert np.isfinite(grad).all() and not grad[np.argmax(per)].any()

    @pytest.mark.parametrize("spec", ONE_PER_KIND, ids=LossSpec.describe)
    def test_agrees_with_per_kind_functions_bit_for_bit(self, spec):
        rng = np.random.default_rng(7)
        z = rng.normal(0.0, 2.0, (9, 4))
        labels = rng.integers(0, 4, 9)
        p = softmax(z)
        val, grad = spec.value_and_grad_logits(labels, z)
        p_val, p_grad = kernel(spec, labels, p)
        assert val == p_val and np.array_equal(grad, p_grad)
        if spec.kind == "sd":
            assert val == float(np.mean(sd_loss(labels, p, spec.tuning)))
        elif spec.kind == "tcce":
            assert val == tcce_mean(labels, p, spec.delta)
        elif spec.kind == "gce":
            assert val == float(np.mean(gce_loss(labels, p, spec.q)))
        else:
            per_kind = {"cce": cce_loss, "mae": mae_loss}[spec.kind]
            assert val == float(np.mean(per_kind(labels, p)))

    def test_bad_labels_rejected(self):
        z = np.zeros((3, 2))
        for labels in ([0, 1, 2], [0, -1, 1], [0, 1]):
            with pytest.raises(ValueError):
                LossSpec(kind="cce").value_and_grad_logits(labels, z)

    @pytest.mark.parametrize("spec", ONE_PER_KIND, ids=LossSpec.describe)
    def test_empty_batch_rejected(self, spec):
        # a mean over no rows is undefined: one error for every kind, not
        # a divide warning or a value (the suite makes warnings errors)
        labels = np.zeros(0, dtype=np.intp)
        with pytest.raises(ValueError, match="empty batch"):
            spec.value_and_grad_logits(labels, np.zeros((0, 3)))

    def test_describe(self):
        assert LossSpec(kind="cce").describe() == "cce"
        spec = LossSpec(kind="sd", tuning=make_tuning(0.05, -1.0))
        assert spec.describe() == "sd(0.05,-1)"
        assert LossSpec(kind="gce", q=0.7).describe() == "gce(0.7)"

    def test_validation(self):
        with pytest.raises(ValueError):
            LossSpec(kind="sd")
        with pytest.raises(ValueError):
            LossSpec(kind="gce", q=2.0)
        with pytest.raises(ValueError):
            LossSpec(kind="tcce", delta=1.0)
        with pytest.raises(ValueError):
            LossSpec(kind="nll")

    @pytest.mark.parametrize("kind,params", [
        ("cce", {"q": 0.7}),
        ("mae", {"delta": 0.2}),
        ("sd", {"tuning": make_tuning(0.1, -0.8), "delta": 0.2}),
        ("gce", {"q": 0.7, "tuning": make_tuning(0.1, -0.8)}),
        ("tcce", {"delta": 0.2, "q": 0.7}),
    ])
    def test_stray_parameter_rejected(self, kind, params):
        # each kind takes only its own parameter; a stray one is not ignored
        with pytest.raises(ValueError, match="takes no"):
            LossSpec(kind=kind, **params)


@st.composite
def sd_batches(draw):
    """(t, labels, probs): a tuning with beta in [0, 1] and lambda in
    [-1, 0], so that 0 < B <= 1, and an (n, J) batch of softmax rows of
    J = 2..10 classes, from logits wide enough to reach the clip bounds."""
    t = draw(admissible_tunings(lam=st.floats(-1.0, 0.0)))
    J = draw(st.integers(2, 10))
    n = draw(st.integers(1, 4))
    z = draw(st.lists(st.floats(-20.0, 20.0), min_size=n * J, max_size=n * J))
    labels = draw(st.lists(st.integers(0, J - 1), min_size=n, max_size=n))
    return t, np.array(labels, dtype=np.intp), softmax(np.array(z).reshape(n, J))


class TestSdIsWeightedGce:
    """sd_loss is (1+beta)/A times GCE with q = B (Zhang & Sabuncu 2018,
    GCE_q(p_y) = (1 - p_y**q) / q) plus a term free of the label, and its
    logit gradient is the CCE gradient weighted by (1+beta)/A * p_y**B
    plus a label-free one: SD down-weights a label by its probability.
    Every other kind's logit gradient is the CCE gradient weighted alone:
    by 1 for cce, 2 p_y for mae, p_y**q for gce and the kept mask, over
    the kept share, for tcce."""

    @given(case=sd_batches())
    def test_value_identity(self, case):
        t, labels, p = case
        J = p.shape[1]
        gce = (1.0 - np.power(p[np.arange(len(labels)), labels], t.b)) / t.b
        power_sum = np.power(p, 1.0 + t.beta).sum(axis=1)
        want = ((1.0 + t.beta) / t.a * gce + power_sum / t.a
                + (J * t.a - 1.0 - t.beta) / (t.a * t.b))
        # rounding error grows with the largest term, of order J/(A*B)
        scale = (power_sum + (1.0 + t.beta) / t.b + J * t.a / t.b) / t.a
        got = sd_loss(labels, p, t)
        assert np.all(np.abs(got - want) <= 1e-14 * scale), (got, want)

    @given(case=sd_batches(), q=st.floats(0.0, 1.0, exclude_min=True),
           delta=st.floats(0.0, 0.9))
    def test_gradient_identity(self, case, q, delta):
        t, labels, p = case
        n, J = p.shape
        rows = np.arange(n)
        p_y = p[rows, labels]
        # every negative power of p clipped as the kernel clips it; unclipped,
        # sd's weight is p_y**B and its free term p * (p**beta - sum p**(1+beta))
        pc = clip_probs(p)
        onehot = np.zeros((n, J))
        onehot[rows, labels] = 1.0
        scale = (1.0 + t.beta) / t.a
        pb = np.power(pc, t.beta)
        # (spec, weight, label-free term, size bound of the gradient's terms)
        cases = [
            (LossSpec(kind="cce"), np.ones(n), 0.0, 1.0),
            (LossSpec(kind="mae"), 2.0 * p_y, 0.0, 2.0),
            (LossSpec(kind="gce", q=q), p_y * np.power(pc[rows, labels], q - 1.0),
             0.0, 1.0),
            (LossSpec(kind="sd", tuning=t),
             scale * p_y * np.power(pc[rows, labels], t.b - 1.0),
             scale * p * (pb - (p * pb).sum(axis=1, keepdims=True)), scale),
        ]
        # tcce keeps the rows below its cut, unless a tie at the cut leaves
        # the choice to the sort
        cce = -np.log(clip_probs(p_y))
        ranked = np.sort(cce)
        n_drop = min(int(np.ceil(delta * n)), n - 1)
        if n_drop == 0 or ranked[n - n_drop - 1] < ranked[n - n_drop]:
            keep = cce <= ranked[n - n_drop - 1]
            kept = keep.sum()
            cases.append((LossSpec(kind="tcce", delta=delta), keep * n / kept, 0.0,
                          n / kept))
        for spec, weight, free, size in cases:
            want = (weight[:, None] * (p - onehot) + free) / n
            _, got = kernel(spec, labels, p)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * size,
                                       err_msg=spec.describe())


def edge_floats(dtype):
    """Floats of dtype, with NaN, +-0.0, +-inf and the clip bounds of
    clip_probs in dtype, and their neighbours, drawn often."""
    f = np.dtype(dtype).type
    lo, hi = f(PROB_CLIP), f(1.0 - PROB_CLIP)
    edges = [f(np.nan), f(0.0), f(-0.0), f(np.inf), f(-np.inf), f(1.0), lo, hi,
             np.nextafter(lo, f(0.0)), np.nextafter(lo, f(1.0)),
             np.nextafter(hi, f(0.0)), np.nextafter(hi, f(1.0))]
    return st.one_of(st.sampled_from([float(e) for e in edges]),
                     st.floats(width=np.finfo(dtype).bits))


@st.composite
def edge_arrays(draw):
    """float32 or float64 arrays of one to three axes of edge_floats."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                           elements=edge_floats(dtype)))


class TestHotPathPrimitives:
    """clip_probs, softmax and _sigmoid, which call ufuncs directly, against
    their np.clip and textbook spellings, bit for bit.  The lockstep
    training tests compare train with a reference that runs the library's
    own losses, so they cannot see a bit change here."""

    @given(p=edge_arrays())
    def test_clip_probs_is_np_clip(self, p):
        same_bits(clip_probs(p), reference_clip_probs(p))

    @given(z=edge_arrays())
    def test_softmax_is_the_textbook_spelling(self, z):
        # rows with inf or NaN are compared too: inf - inf warns "invalid"
        with np.errstate(invalid="ignore"):
            same_bits(softmax(z), textbook_softmax(z))

    @given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2,
                                                     max_side=5),
                        elements=edge_floats(np.float64)))
    def test_sigmoid_is_the_softmax_of_z_and_0(self, z):
        got = _sigmoid(z)
        assert got.shape == z.shape
        finite = np.isfinite(z)
        want = textbook_softmax(np.stack([z[finite], np.zeros(finite.sum())], -1))
        same_bits(got[finite], want[:, 0])
        # the softmax of (inf, 0) is nan; the sigmoid saturates
        assert (got[z == np.inf] == 1.0).all() and (got[z == -np.inf] == 0.0).all()
        assert np.isnan(got[np.isnan(z)]).all()
