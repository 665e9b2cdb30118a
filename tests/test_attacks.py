"""Tests for the FGSM and PGD adversarial attacks."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from rsdnet import attacks, network
from rsdnet.attacks import (
    AttackConfig,
    adversarial_trainset,
    attack,
    input_gradient,
)
from rsdnet.data_io import Dataset
from rsdnet.divergence import LossSpec
from rsdnet.network import ArchitectureSpec, backward, forward, init_params
from rsdnet.optimizer import TrainConfig, accuracy, train

from reference import blobs, cce_loss, same_bits, signed_steps

ARCH = ArchitectureSpec(2, ((16, "tanh"),), 2)


def trained_model():
    ds = blobs(300, 0, spread=0.08)
    [(params, _)] = train(ds, ARCH, 0,
                          TrainConfig(losses=(LossSpec(kind="cce"),), epochs=60,
                                      batch_size=32, shuffle_seed=1))
    return params, ds


class TestInputGradient:
    def test_matches_fd(self):
        rng = np.random.default_rng(2)
        # the second has a hidden identity layer
        for arch in (ARCH, ArchitectureSpec(2, ((4, "identity"), (5, "tanh")), 2)):
            params = init_params(arch, 1)
            X = rng.uniform(0, 1, (5, 2))
            y = rng.integers(0, 2, 5)
            an = input_gradient(params, arch, X, y)

            def per_example_losses(Xp):
                return cce_loss(y, forward(params, arch, Xp).probs)

            h = 1e-6
            fd = np.zeros_like(X)
            for i in range(5):
                for j in range(2):
                    up, dn = X.copy(), X.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd[i, j] = (per_example_losses(up)[i]
                                - per_example_losses(dn)[i]) / (2 * h)
            np.testing.assert_allclose(fd, an, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("arch", [
        ARCH, ArchitectureSpec(2, ((7, "relu"), (5, "relu")), 3),
    ], ids=["tanh", "relu"])
    def test_equals_public_backward(self, arch):
        cce = LossSpec(kind="cce")
        params = init_params(arch, 3)
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (6, 2))
        y = rng.integers(0, arch.output_classes, 6)
        trace = forward(params, arch, X)
        _, grad_logits = cce.value_and_grad_logits(y, trace.logits)
        _, expected = backward(trace, params, arch, grad_logits * 6)
        assert np.array_equal(input_gradient(params, arch, X, y), expected)
        # a single example is a batch of one
        single = forward(params, arch, X[2])
        _, g1 = cce.value_and_grad_logits(y[2], single.logits)
        _, expected1 = backward(single, params, arch, g1)
        got = input_gradient(params, arch, X[2], y[2])
        assert got.shape == (1, 2) and np.array_equal(got, expected1)


class TestConstraints:
    def test_fgsm_ball_and_box(self):
        params, ds = trained_model()
        adv = attack(params, ARCH, ds.features, ds.labels,
                     AttackConfig(kind="fgsm", epsilon=0.1))
        assert np.max(np.abs(adv - ds.features)) <= 0.1 + 1e-15
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_pgd_ball_and_box(self):
        params, ds = trained_model()
        cfg = AttackConfig(kind="pgd", epsilon=0.3, step_size=0.05, max_iters=20)
        adv = attack(params, ARCH, ds.features, ds.labels, cfg)
        assert np.max(np.abs(adv - ds.features)) <= 0.3 + 1e-15
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_fgsm_equals_one_step_saturating_pgd(self):
        params, ds = trained_model()
        # features outside the box as well, where the box wins
        outside = np.random.default_rng(3).uniform(-1.5, 2.5, (200, 2))
        for X, y in ((ds.features, ds.labels), (outside, ds.labels[:200])):
            for eps in (0.2, 1.2):
                a = attack(params, ARCH, X, y,
                           AttackConfig(kind="fgsm", epsilon=eps))
                cfg = AttackConfig(kind="pgd", epsilon=eps, step_size=eps,
                                   max_iters=1)
                np.testing.assert_array_equal(a, attack(params, ARCH, X, y, cfg))
                assert a.min() >= 0.0 and a.max() <= 1.0

    def test_pgd_box_wins_outside_the_box(self):
        params, _ = trained_model()
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.5, 2.5, (200, 2))
        y = rng.integers(0, 2, 200)
        cfg = AttackConfig(kind="pgd", epsilon=0.3, step_size=0.05, max_iters=20)
        adv = attack(params, ARCH, X, y, cfg)
        assert adv.min() >= 0.0 and adv.max() <= 1.0
        # a feature whose epsilon-ball misses the box ends on the nearest
        # face; where the two meet, the output lies in both
        np.testing.assert_array_equal(adv[X < -0.3], 0.0)
        np.testing.assert_array_equal(adv[X > 1.3], 1.0)
        meets = (X > -0.3) & (X < 1.3)
        assert np.max(np.abs(adv - X)[meets]) <= 0.3 + 1e-12

    def test_epsilon_zero_is_identity(self):
        params, ds = trained_model()
        adv = attack(params, ARCH, ds.features, ds.labels,
                     AttackConfig(kind="fgsm", epsilon=0.0))
        np.testing.assert_array_equal(adv, np.clip(ds.features, 0, 1))


class TestAgainstReference:
    """Bit for bit against the np.clip loop of reference.signed_steps."""

    @staticmethod
    def dead_relu_model():
        # positive weights and a bias of -1: the hidden units of a row are
        # all dead, and its input gradient exactly zero, where x0 + x1 is small
        arch = ArchitectureSpec(2, ((4, "relu"),), 2)
        params = init_params(arch, 5)
        params[:8] = np.abs(params[:8]) + 0.5
        params[8:12] = -1.0
        return params, arch

    @pytest.mark.parametrize("kind", ["fgsm", "pgd"])
    @pytest.mark.parametrize("case", ["inside", "outside", "dead_relu", "float32"])
    def test_bits_match_the_clip_loop(self, kind, case):
        # float32: a float32 gradient, whose sign steps the float64 features
        rng = np.random.default_rng(6)
        if case == "dead_relu":
            params, arch = self.dead_relu_model()
            X = rng.uniform(0.0, 1.0, (200, 2))
        else:
            params, ds = trained_model()
            arch = ARCH
            if case == "float32":
                arch = replace(ARCH, dtype=np.float32)
                params = params.astype(np.float32)
            X = (rng.uniform(-1.5, 2.5, ds.features.shape) if case == "outside"
                 else ds.features)
        y = rng.integers(0, 2, X.shape[0])
        before = X.copy()
        if case == "dead_relu":
            dead = (input_gradient(params, arch, X, y) == 0).all(axis=1)
            assert 0 < dead.sum() < X.shape[0]

        def grad(a):
            return input_gradient(params, arch, a, y)

        if kind == "fgsm":
            got = attack(params, arch, X, y, AttackConfig(kind="fgsm", epsilon=0.1))
            want = signed_steps(grad, X, 0.1, 0.1, 1)
        else:
            cfg = AttackConfig(kind="pgd", epsilon=0.3, step_size=0.05, max_iters=20)
            got = attack(params, arch, X, y, cfg)
            want = signed_steps(grad, X, 0.3, 0.05, 20)
        same_bits(got, want)
        same_bits(X, before)


class TestEffectiveness:
    def test_pgd_degrades_accuracy(self):
        params, ds = trained_model()
        clean = accuracy(params, ARCH, ds)
        assert clean >= 0.95
        cfg = AttackConfig(kind="pgd", epsilon=0.3, step_size=0.01, max_iters=100)
        attacked = adversarial_trainset(params, ARCH, ds, cfg)
        assert accuracy(params, ARCH, attacked) <= clean - 0.5

    def test_pgd_no_weaker_than_fgsm(self):
        params, ds = trained_model()
        eps = 0.2
        adv_f = adversarial_trainset(
            params, ARCH, ds, AttackConfig(kind="fgsm", epsilon=eps))
        adv_p = adversarial_trainset(
            params, ARCH, ds,
            AttackConfig(kind="pgd", epsilon=eps, step_size=0.02, max_iters=50))
        acc_f = accuracy(params, ARCH, adv_f)
        acc_p = accuracy(params, ARCH, adv_p)
        assert acc_p <= acc_f + 1e-12


class TestPlumbing:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="cw", epsilon=0.1)
        with pytest.raises(ValueError):
            AttackConfig(kind="pgd", epsilon=-0.1)
        with pytest.raises(ValueError):
            AttackConfig(kind="pgd", epsilon=0.1, max_iters=0)
        # NaN passes a plain range check; an infinite FGSM step times a
        # zero gradient sign is NaN
        for kind in ("fgsm", "pgd"):
            for field in ("epsilon", "step_size"):
                for value in (np.nan, np.inf):
                    with pytest.raises(ValueError, match="finite"):
                        AttackConfig(kind=kind, **{"epsilon": 0.1, field: value})

    def test_trainset_labels_untouched(self):
        params, ds = trained_model()
        cfg = AttackConfig(kind="fgsm", epsilon=0.1)
        out = adversarial_trainset(params, ARCH, ds, cfg)
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert out.features.shape == ds.features.shape

    def test_batched_matches_unbatched(self, monkeypatch):
        # the bits depend on neither ATTACK_BATCH nor the number of workers:
        # they are those of attacking the blocks one at a time under the
        # same BLAS setting, on the toy model and on a surrogate-sized one,
        # in float64 and in float32
        rng = np.random.default_rng(7)
        wide = ArchitectureSpec(784, ((64, "relu"),), 10)
        wide32 = replace(wide, dtype=np.float32)
        models = ((trained_model()[0], ARCH), (init_params(wide, 8), wide),
                  (init_params(wide32, 8), wide32))
        cfgs = (AttackConfig(kind="fgsm", epsilon=0.15),
                AttackConfig(kind="pgd", epsilon=0.3, step_size=0.05, max_iters=5))
        default = attacks.ATTACK_BATCH
        threads = record_threads(monkeypatch)
        for params, arch in models:
            pool = Dataset(features=rng.uniform(0, 1, (1000, arch.input_dim)),
                           labels=rng.integers(0, arch.output_classes, 1000),
                           num_classes=arch.output_classes)
            for n in (0, 5, 1000):
                ds = pool.subset(np.arange(n))
                for cfg in cfgs:
                    # one 1000-row block is the unbatched attack
                    whole = serial_attack(params, arch, ds, cfg, 1000)
                    for rows in (7, default, 1000):
                        monkeypatch.setattr(attacks, "ATTACK_BATCH", rows)
                        want = serial_attack(params, arch, ds, cfg, rows)
                        same_bits(want, whole)
                        for workers in (1, 2, 3):
                            monkeypatch.setattr(network, "_usable_cores",
                                                lambda w=workers: w)
                            threads.clear()
                            got = adversarial_trainset(params, arch, ds, cfg)
                            assert got.features.shape == ds.features.shape
                            same_bits(got.features, want)
                            # 0, 1, 8 or 143 blocks: a thread per block
                            # below 2 x workers, one per worker from there on
                            blocks = -(-n // rows)
                            assert len(threads) == (
                                blocks if blocks < 2 * workers else workers)

    def test_deterministic(self):
        params, ds = trained_model()
        cfg = AttackConfig(kind="pgd", epsilon=0.2, step_size=0.02, max_iters=10)
        a = attack(params, ARCH, ds.features, ds.labels, cfg)
        b = attack(params, ARCH, ds.features, ds.labels, cfg)
        np.testing.assert_array_equal(a, b)


def record_threads(monkeypatch) -> set:
    """The set of threads that call attacks.input_gradient from now on."""
    threads = set()
    real = attacks.input_gradient

    def recorded(*args, **kwargs):
        threads.add(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(attacks, "input_gradient", recorded)
    return threads


def serial_attack(params, arch, ds, cfg, rows):
    """ds attacked one block of rows at a time, in this thread, under the
    BLAS setting adversarial_trainset uses."""
    with network._one_blas_thread():
        blocks = [attack(params, arch, ds.features[i:i + rows],
                         ds.labels[i:i + rows], cfg)
                  for i in range(0, ds.n, rows)]
    return np.concatenate(blocks) if blocks else ds.features.copy()


class TestBlasThreads:
    """adversarial_trainset holds OpenBLAS at one thread while it attacks
    and restores the count afterwards, also when a block raises."""

    CFG = AttackConfig(kind="pgd", epsilon=0.3, step_size=0.05, max_iters=5)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_held_at_one_then_restored(self, blas_count, monkeypatch, workers):
        params, ds = trained_model()
        during = set()
        real = attacks.input_gradient

        def watched(*args, **kwargs):
            during.add(blas_count())
            return real(*args, **kwargs)

        monkeypatch.setattr(attacks, "input_gradient", watched)
        monkeypatch.setattr(network, "_usable_cores", lambda: workers)
        adversarial_trainset(params, ARCH, ds, self.CFG)
        assert during == {1}
        assert blas_count() == 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_restored_when_a_block_raises(self, blas_count, monkeypatch, workers):
        params, ds = trained_model()
        ds = ds.subset(np.arange(10))
        real = attacks.input_gradient

        def failing(params, arch, x, labels, *args, **kwargs):
            if len(x) == 3:  # the second block, rows 7-9
                raise ValueError("injected")
            return real(params, arch, x, labels, *args, **kwargs)

        monkeypatch.setattr(attacks, "ATTACK_BATCH", 7)
        monkeypatch.setattr(network, "_usable_cores", lambda: workers)
        monkeypatch.setattr(attacks, "input_gradient", failing)
        # the block's own exception type reaches the caller, so the CLI
        # maps it to the same exit code
        with pytest.raises(ValueError, match="injected"):
            adversarial_trainset(params, ARCH, ds, self.CFG)
        assert blas_count() == 2

    def test_interrupt_while_joining_stops_the_workers(self, blas_count, monkeypatch):
        # Ctrl-C in the caller as it waits for the worker, which is then
        # inside its first block: that block is its last, and the worker
        # has stopped by the time the interrupt reaches the caller
        params, ds = trained_model()
        entered, interrupted = threading.Event(), threading.Event()
        worker_calls = []
        caller = threading.current_thread()
        real = attacks.input_gradient

        def gated(*args, **kwargs):
            if threading.current_thread() is caller:
                entered.wait(timeout=30)  # the worker is in its first block
            else:
                entered.set()
                interrupted.wait(timeout=30)
                worker_calls.append(threading.current_thread())
            return real(*args, **kwargs)

        class InterruptedJoin(threading.Thread):
            def join(self, timeout=None):
                if not interrupted.is_set():
                    interrupted.set()
                    raise KeyboardInterrupt
                super().join(timeout)

        monkeypatch.setattr(attacks, "ATTACK_BATCH", 7)
        monkeypatch.setattr(network, "_usable_cores", lambda: 2)
        monkeypatch.setattr(attacks, "input_gradient", gated)
        monkeypatch.setattr(threading, "Thread", InterruptedJoin)
        with pytest.raises(KeyboardInterrupt):
            adversarial_trainset(params, ARCH, ds, self.CFG)
        [worker] = set(worker_calls)
        assert not worker.is_alive()
        assert len(worker_calls) == self.CFG.max_iters  # one block
        assert blas_count() == 2

    def test_no_setter_means_one_worker(self, monkeypatch):
        params, ds = trained_model()
        monkeypatch.setattr(attacks, "ATTACK_BATCH", 7)
        want = np.concatenate([attack(params, ARCH, ds.features[i:i + 7],
                                      ds.labels[i:i + 7], self.CFG)
                               for i in range(0, ds.n, 7)])
        monkeypatch.setattr(network, "_openblas_threads", lambda: None)
        monkeypatch.setattr(network, "_usable_cores", lambda: 3)
        threads = record_threads(monkeypatch)
        got = adversarial_trainset(params, ARCH, ds, self.CFG)
        assert threads == {threading.current_thread()}
        same_bits(got.features, want)

    def test_nested_and_concurrent_holders_restore_the_count(self, blas_count):
        inside = []

        def hold():
            with network._one_blas_thread():
                inside.append(blas_count())

        with network._one_blas_thread() as outer:
            with network._one_blas_thread() as inner:
                assert outer and inner and blas_count() == 1
            assert blas_count() == 1
            other = threading.Thread(target=hold)
            other.start()
            other.join(timeout=0.05)
            assert other.is_alive()  # waits for this holder to leave
        other.join()
        assert inside == [1] and blas_count() == 2
