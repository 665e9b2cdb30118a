"""Acceptance gate: one test per primary criterion.

Each test prints a single PASS/FAIL line to the real stdout so the verdicts
are visible even when pytest captures output.
"""

import os
import time

import numpy as np

from rsdnet.attacks import AttackConfig, adversarial_trainset, attack
from rsdnet.cli import ARCH_PRESETS, main as cli_main
from rsdnet.contamination import corrupt_labels
from rsdnet.data_io import posterior_example1, read_idx
from rsdnet.divergence import (
    LossSpec,
    ParameterError,
    conditional_sd_risk,
    make_tuning,
    sd_loss,
    softmax,
)
from rsdnet.network import (
    ArchitectureSpec,
    backward,
    example_model,
    forward,
    init_params,
)
from rsdnet.optimizer import TrainConfig, accuracy, train
from rsdnet.theory import (
    big_psi,
    calibration_check,
    default_feature_sample,
    excess_risk_bound,
    influence_function,
    psi,
)

from reference import (blobs, cce_loss, gce_loss, loss_bounds, mae_loss, subset,
                       tcce_mean)


def report(capfd, criterion, ok):
    # capture is disabled so the verdict reaches the real stdout even
    # without pytest -s
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"ACCEPTANCE {criterion}: {verdict}", flush=True)


def tuning_grid(n=20):
    """n admissible pairs spread over the tuning set."""
    pairs = []
    for beta in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        for lam in (-1.0, -0.8, -0.5, -0.25, 0.0, 0.5, 1.0):
            try:
                pairs.append(make_tuning(beta, lam))
            except ParameterError:
                continue
    step = max(1, len(pairs) // n)
    out = pairs[::step][:n]
    while len(out) < n:
        out.append(pairs[-1])
    return out


def random_simplex(rng, n, J):
    g = rng.gamma(1.0, 1.0, size=(n, J))
    return g / g.sum(axis=1, keepdims=True)


def rel_err(fd, an):
    denom = max(float(np.linalg.norm(an)), 1e-12)
    return float(np.linalg.norm(fd - an)) / denom


class TestCriterion1Gradients:
    def test_gradient_correctness(self, capfd):
        start = time.time()
        rng = np.random.default_rng(100)
        tunings = tuning_grid()
        h = 1e-6
        worst = 0.0

        # LossSpec's logit gradient of every baseline kind, against central
        # differences of the kind's reference batch-mean loss through
        # softmax, on batches of one to four rows; cases are redrawn as
        # below, and for tcce where a step of h could reorder the losses
        # around the trimming cut
        def baseline(kind):
            """A LossSpec of kind and its reference batch-mean loss."""
            if kind == "gce":
                q = rng.uniform(0.05, 1.0)
                return LossSpec(kind="gce", q=q), lambda y, p: gce_loss(y, p, q).mean()
            if kind == "tcce":
                d = rng.uniform(0.0, 0.9)
                return LossSpec(kind="tcce", delta=d), lambda y, p: tcce_mean(y, p, d)
            per = {"cce": cce_loss, "mae": mae_loss}[kind]
            return LossSpec(kind=kind), lambda y, p: per(y, p).mean()

        done = 0
        while done < 1000:
            kind = ("cce", "mae", "gce", "tcce")[done % 4]
            spec, mean_loss = baseline(kind)
            n, J = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            z = rng.normal(0.0, 2.0, (n, J))
            y = rng.integers(0, J, n)
            an = spec.value_and_grad_logits(y, z)[1]
            gaps = np.diff(np.sort(cce_loss(y, softmax(z))))
            if np.linalg.norm(an) < 1e-4 or (kind == "tcce" and (gaps < 1e-3).any()):
                continue
            done += 1
            fd = np.zeros((n, J))
            for i in range(n):
                for j in range(J):
                    up, dn = z.copy(), z.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd[i, j] = (mean_loss(y, softmax(up))
                                - mean_loss(y, softmax(dn))) / (2 * h)
            worst = max(worst, rel_err(fd, an))

        # LossSpec's loss gradient in the logits, the one training runs; a
        # batch of one, whose batch mean is the example's loss; cases with a
        # vanishing gradient are redrawn, since relative error against a
        # near-zero reference only measures finite-difference roundoff
        done = 0
        case = 0
        while done < 1000:
            case += 1
            t = tunings[case % len(tunings)]
            J = int(rng.integers(2, 6))
            z = rng.normal(0.0, 2.0, J)
            y = int(rng.integers(0, J))
            an = LossSpec(kind="sd", tuning=t).value_and_grad_logits(y, z)[1][0]
            if np.linalg.norm(an) < 1e-4:
                continue
            done += 1
            fd = np.zeros(J)
            for j in range(J):
                up, dn = z.copy(), z.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (sd_loss(y, softmax(up), t)[0]
                         - sd_loss(y, softmax(dn), t)[0]) / (2 * h)
            worst = max(worst, rel_err(fd, an))

        # network backward: parameter and input gradients
        arch = ArchitectureSpec(3, ((6, "tanh"),), 3)
        spec = LossSpec(kind="sd", tuning=make_tuning(0.3, -0.5))

        def batch_loss(params, X, y):
            return spec.value_and_grad_logits(y, forward(params, arch, X).logits)[0]

        for case in range(1000):
            params = init_params(arch, case)
            X = rng.normal(size=(2, 3))
            y = rng.integers(0, 3, 2)
            trace = forward(params, arch, X)
            _, grad_logits = spec.value_and_grad_logits(y, trace.logits)
            an_p, an_x = backward(trace, params, arch, grad_logits)
            fd_p = np.zeros_like(params)
            for k in range(len(params)):
                up, dn = params.copy(), params.copy()
                up[k] += h
                dn[k] -= h
                fd_p[k] = (batch_loss(up, X, y) - batch_loss(dn, X, y)) / (2 * h)
            fd_x = np.zeros_like(X)
            for i in range(X.shape[0]):
                for j in range(X.shape[1]):
                    up, dn = X.copy(), X.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd_x[i, j] = (batch_loss(params, up, y)
                                  - batch_loss(params, dn, y)) / (2 * h)
            worst = max(worst, rel_err(fd_p, an_p), rel_err(fd_x, an_x))

        elapsed = time.time() - start
        ok = worst < 1e-5 and elapsed < 30.0
        report(capfd, "1 gradient-correctness", ok)
        assert worst < 1e-5, f"worst relative error {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


class TestCriterion2DivergenceProperties:
    def test_divergence_and_calibration(self, capfd):
        rng = np.random.default_rng(200)
        tunings = tuning_grid(20)
        ok = True

        for i, t in enumerate(tunings):
            J = (2, 3, 4)[i % 3]
            p = random_simplex(rng, 500, J)
            # exact zero on the diagonal
            for row in p[:50]:
                if abs(conditional_sd_risk(row, row[None], t)[0]) > 1e-12:
                    ok = False
            # strictly positive off the diagonal
            q = random_simplex(rng, 500, J)
            for ps, pp in zip(p, q):
                if conditional_sd_risk(ps, pp[None], t)[0] <= 0.0:
                    ok = False

        # grid-search calibration for binary and ternary references
        for t in (make_tuning(0.5, -0.5), make_tuning(0.1, -0.8),
                  make_tuning(1.0, 0.0), make_tuning(0.9, 0.5)):
            for p_star in (np.array([0.6, 0.4]), np.array([0.85, 0.15]),
                           np.array([0.333, 0.667])):
                res = calibration_check(p_star, t, step=0.01)
                if np.max(np.abs(res.argmin_point - p_star)) > 0.01 + 1e-12:
                    ok = False
            for p_star in (np.array([0.5, 0.3, 0.2]),
                           np.array([0.2, 0.7, 0.1])):
                res = calibration_check(p_star, t, step=0.01)
                if np.max(np.abs(res.argmin_point - p_star)) > 0.01 + 1e-12:
                    ok = False

        report(capfd, "2 divergence-properties", ok)
        assert ok


class TestCriterion3LossBounds:
    def test_bounds_hold_and_extremes_attained(self, capfd):
        rng = np.random.default_rng(300)
        ok = True
        for t in tuning_grid(10):
            for J in (2, 10):
                lower, upper = loss_bounds(t, J)
                p = random_simplex(rng, 10000, J)
                totals = np.zeros(10000)
                for j in range(J):
                    totals += sd_loss(np.full(10000, j, dtype=np.intp), p, t)
                if totals.min() < lower - 1e-9 or totals.max() > upper + 1e-9:
                    ok = False

        t = make_tuning(1.0, 0.0)
        lower, upper = loss_bounds(t, 2)
        total_uniform = sd_loss([0, 1], np.array([[0.5, 0.5]] * 2), t).sum()
        total_corner = sd_loss([0, 1], np.array([[1.0, 0.0]] * 2), t).sum()
        if not (abs(lower - 3.0) < 1e-12 and abs(upper - 4.0) < 1e-12):
            ok = False
        if not (abs(total_uniform - 3.0) < 1e-12 and abs(total_corner - 4.0) < 1e-12):
            ok = False

        report(capfd, "3 loss-bounds", ok)
        assert ok


class TestCriterion4ExcessRiskBound:
    def test_anchors_and_shape(self, capfd):
        ok = True
        if abs(excess_risk_bound(make_tuning(1.0, 0.0), 0.2, 10)
               - 0.2571428571428572) > 1e-9:
            ok = False
        if abs(excess_risk_bound(make_tuning(0.0, -0.5), 0.2, 10)
               - 0.24711744687638626) > 1e-9:
            ok = False
        for beta, lam in ((1.0, 0.0), (0.5, -0.5), (0.1, -0.8)):
            if excess_risk_bound(make_tuning(beta, lam), 0.0, 10) != 0.0:
                ok = False

        # decreasing-in-beta shape on a 50-point grid.  The pointwise claim
        # cannot hold for every lambda in [-1, 0]: at beta = 1 the bound is
        # lambda-free (A = B = 1) and exceeds the beta = 0 anchor at
        # lambda = -0.5, so the shape is checked where it genuinely holds
        # (lambda = -1 and small negative lambda).
        betas = np.linspace(0.0, 1.0, 50)
        for eta in (0.2, 0.4, 0.6):
            for lam in (-1.0, -0.35, -0.25, -0.1, 0.0):
                vals = []
                for beta in betas:
                    try:
                        t = make_tuning(beta, lam)
                    except ParameterError:
                        vals.append(np.nan)
                        continue
                    vals.append(excess_risk_bound(t, eta, 10))
                v = np.array(vals)
                finite = v[np.isfinite(v)]
                if not np.all(np.diff(finite) <= 1e-9):
                    ok = False

        report(capfd, "4 excess-risk-bound", ok)
        assert ok


class TestCriterion5InfluenceFunctions:
    def test_influence_machinery(self, capfd):
        start = time.time()
        ok = True

        def p_star_example1(xs):
            p1 = posterior_example1(xs)
            return np.column_stack([p1, 1.0 - p1])

        # correctly specified reference: the influence vanishes identically
        m1 = example_model("M1")
        theta = np.array([0.4, -0.9])
        curves = influence_function(
            m1, theta, make_tuning(0.5, -0.5), np.linspace(-10, 10, 21),
            default_feature_sample(), lambda xs: m1.probs(theta, xs))
        if np.max(np.abs(curves)) > 1e-10:
            ok = False

        # finite, NaN-free curves for the misspecified models
        for name in ("M1", "M3"):
            model = example_model(name)
            for beta, lam in ((0.5, -0.5), (0.1, -0.8)):
                curves = influence_function(
                    model, np.ones(model.n_params), make_tuning(beta, lam),
                    np.linspace(-10, 10, 41), default_feature_sample())
                if not np.all(np.isfinite(curves)):
                    ok = False

        # big_psi against finite differences of psi
        h = 1e-6
        sample = default_feature_sample(40, seed=1)
        for name in ("M1", "M2", "M3"):
            model = example_model(name)
            t = make_tuning(0.5, -0.5)
            theta0 = np.ones(model.n_params)
            an = big_psi(model, theta0, t, sample, p_star_example1)
            fd = np.zeros_like(an)
            for k in range(model.n_params):
                up, dn = theta0.copy(), theta0.copy()
                up[k] += h
                dn[k] -= h
                pu = psi(model, up, t, sample, p_star_example1).mean(axis=0)
                pd = psi(model, dn, t, sample, p_star_example1).mean(axis=0)
                fd[:, k] = (pu - pd) / (2 * h)
            if not np.allclose(fd, an, rtol=1e-4, atol=1e-8):
                ok = False

        elapsed = time.time() - start
        ok = ok and elapsed < 60.0
        report(capfd, "5 influence-functions", ok)
        assert ok
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def find_mnist():
    """Local MNIST IDX pair, if present."""
    candidates = [os.environ.get("MNIST_DIR"), "data", "mnist",
                  os.path.join(os.path.dirname(__file__), "..", "data")]
    names = [("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
             ("train-images.idx3-ubyte", "train-labels.idx1-ubyte")]
    for base in candidates:
        if not base:
            continue
        for img, lab in names:
            ipath = os.path.join(base, img)
            lpath = os.path.join(base, lab)
            if os.path.exists(ipath) and os.path.exists(lpath):
                return ipath, lpath
    return None


class TestCriterion6LabelNoiseTrend:
    def run_mnist(self):
        ipath, lpath = find_mnist()
        full = read_idx(ipath, lpath)
        rng = np.random.default_rng(0)
        perm = rng.permutation(full.n)
        train_ds = subset(full, perm[:8000])
        test_ds = subset(full, perm[8000:10000])
        arch = ARCH_PRESETS["mnist-mlp"]

        def fit(ds, losses, epochs=30):
            # one lockstep run: the pair shares init, batch order and data
            trained = train(ds, arch, 8,
                            TrainConfig(losses=losses, epochs=epochs,
                                        batch_size=128), shuffle_seed=4)
            return [accuracy(params, arch, test_ds) for params, _ in trained]

        clean_cce, clean_sd = fit(train_ds, (
            LossSpec(kind="cce"),
            LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8))))
        noisy, _ = corrupt_labels(train_ds, 0.4, 11)
        noisy_cce, noisy_sd = fit(noisy, (
            LossSpec(kind="cce"),
            LossSpec(kind="sd", tuning=make_tuning(0.05, -1.0))))
        return (clean_cce, clean_sd, noisy_cce, noisy_sd, 0.90, 0.10)

    def run_blobs(self):
        arch = ARCH_PRESETS["blob-mlp"]
        train_ds = blobs(400, 1, spread=0.10)
        test_ds = blobs(1000, 2, spread=0.10)

        def fit(ds, losses, epochs):
            # one lockstep run: the pair shares init, batch order and data
            trained = train(ds, arch, 8,
                            TrainConfig(losses=losses, epochs=epochs,
                                        batch_size=32), shuffle_seed=4)
            return [accuracy(params, arch, test_ds) for params, _ in trained]

        clean_cce, clean_sd = fit(train_ds, (
            LossSpec(kind="cce"),
            LossSpec(kind="sd", tuning=make_tuning(0.1, -0.8))), 200)
        noisy, _ = corrupt_labels(train_ds, 0.4, 11)
        noisy_cce, noisy_sd = fit(noisy, (
            LossSpec(kind="cce"),
            LossSpec(kind="sd", tuning=make_tuning(0.05, -1.0))), 600)
        return (clean_cce, clean_sd, noisy_cce, noisy_sd, 0.95, 0.05)

    def test_noise_trend(self, capfd):
        start = time.time()
        if find_mnist():
            clean_cce, clean_sd, noisy_cce, noisy_sd, floor, margin = self.run_mnist()
        else:
            clean_cce, clean_sd, noisy_cce, noisy_sd, floor, margin = self.run_blobs()
        elapsed = time.time() - start
        ok = (clean_cce >= floor and clean_sd >= floor
              and abs(clean_cce - clean_sd) <= 0.03
              and noisy_sd - noisy_cce >= margin
              and elapsed < 600.0)
        report(capfd, "6 label-noise-trend", ok)
        assert clean_cce >= floor and clean_sd >= floor, (clean_cce, clean_sd)
        assert abs(clean_cce - clean_sd) <= 0.03, (clean_cce, clean_sd)
        assert noisy_sd - noisy_cce >= margin, (noisy_cce, noisy_sd)
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


class TestCriterion7Attacks:
    def test_attack_correctness(self, capfd):
        arch = ArchitectureSpec(2, ((16, "tanh"),), 2)
        ds = blobs(300, 0, spread=0.08)
        [(params, _)] = train(ds, arch, 0,
                              TrainConfig(losses=(LossSpec(kind="cce"),),
                                          epochs=60, batch_size=32),
                              shuffle_seed=1)
        ok = True

        eps = 0.2
        adv_f = attack(params, arch, ds.features, ds.labels,
                       AttackConfig(kind="fgsm", epsilon=eps))
        if np.max(np.abs(adv_f - ds.features)) > eps + 1e-12:
            ok = False
        if adv_f.min() < 0.0 or adv_f.max() > 1.0:
            ok = False

        cfg1 = AttackConfig(kind="pgd", epsilon=eps, step_size=eps, max_iters=1)
        if not np.array_equal(adv_f, attack(params, arch, ds.features,
                                            ds.labels, cfg1)):
            ok = False

        cfg = AttackConfig(kind="pgd", epsilon=0.3, step_size=0.01,
                           max_iters=100)
        adv_p = attack(params, arch, ds.features, ds.labels, cfg)
        if np.max(np.abs(adv_p - ds.features)) > 0.3 + 1e-12:
            ok = False
        if adv_p.min() < 0.0 or adv_p.max() > 1.0:
            ok = False

        clean = accuracy(params, arch, ds)
        attacked = adversarial_trainset(params, arch, ds, cfg)
        adv_acc = accuracy(params, arch, attacked)
        if not (clean - adv_acc >= 0.5):
            ok = False

        report(capfd, "7 attack-correctness", ok)
        assert ok, (clean, adv_acc)


class TestCriterion8Determinism:
    COMMANDS = [
        (["train", "--seed", "5", "--out", "OUT/res.csv", "--n", "60",
          "--arch", "toy", "--loss", "sd:0.1,-0.8", "--folds", "2",
          "--epochs", "2", "--batch", "16", "--eta", "0.2",
          "--attack", "fgsm", "--epsilon", "0.1", "--surrogate-epochs", "2"],
         ["res.csv", "res.csv.params.npy"]),
        (["bound", "--seed", "0", "--out", "OUT/bound.csv", "--eta", "0.4",
          "--resolution", "10"],
         ["bound.csv"]),
        (["influence", "--seed", "1", "--out", "OUT/if.csv", "--model", "M3",
          "--beta", "0.5", "--lambda", "-0.5", "--grid=-5,5,11",
          "--sample-size", "40"],
         ["if.csv"]),
        (["epochs", "--seed", "2", "--out", "OUT/e.csv", "--n", "60",
          "--arch", "toy", "--epochs", "2", "--batch", "16",
          "--loss", "cce", "--loss", "sd:0.1,-0.8"],
         ["e.csv"]),
        (["corrupt", "--seed", "3", "--out", "OUT/c", "--n", "50",
          "--eta", "0.3"],
         ["c.features.csv", "c.labels.csv"]),
        (["attack", "--seed", "4", "--out", "OUT/adv", "--n", "40",
          "--attack", "pgd", "--epsilon", "0.2", "--step", "0.05",
          "--iters", "5", "--surrogate-epochs", "2", "--batch", "16"],
         ["adv.features.csv", "adv.labels.csv"]),
    ]

    def test_byte_identical_reruns(self, tmp_path, capfd):
        ok = True
        for i, (args, outputs) in enumerate(self.COMMANDS):
            dirs = []
            for tag in ("a", "b"):
                d = tmp_path / f"{i}{tag}"
                d.mkdir()
                dirs.append(d)
                code = cli_main([a.replace("OUT", str(d)) for a in args])
                if code != 0:
                    ok = False
            for name in outputs:
                if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                    ok = False
        report(capfd, "8 cli-determinism", ok)
        assert ok
