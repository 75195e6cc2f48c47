"""Autoencoder forward pass, gradient, trainer, and hidden-size search."""

import dataclasses
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aeimpute import network, parallel
from aeimpute.data import MISSING_SENTINEL, ImputationTask
from aeimpute.network import Autoencoder, TrainConfig, TrainingError
from aeimpute.objective import MissingDataObjective
from aeimpute.seeding import derive_seed

from conftest import (
    PinnedColumnNet,
    child_processes,
    deadline,
    manifold_rows,
    random_autoencoder,
    scalar_forward,
)


def zero_net(n, h):
    return Autoencoder(n, h, np.zeros(2 * n * h + h + n))


def masked_logistic(z):
    """The boolean-mask logistic that ``network._logistic`` replaced, as a reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestLogistic:
    @given(
        st.lists(st.floats(allow_nan=False, width=64), max_size=60),
        st.sampled_from([(500, 25), (2000, 13), (90, 100)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_match_masked_reference(self, values, block_shape):
        z = np.array(values + [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 36.0, -36.0])
        np.testing.assert_array_equal(
            network._logistic(z).view(np.uint64), masked_logistic(z).view(np.uint64)
        )
        # Blocks above numpy's 8,192-element buffer take its buffered path.
        block = np.resize(z, block_shape)
        np.testing.assert_array_equal(
            network._logistic(block).view(np.uint64), masked_logistic(block).view(np.uint64)
        )

    def test_strictly_inside_unit_interval(self):
        y = network._logistic(np.linspace(-36.0, 36.0, 10001))
        assert (y > 0).all() and (y < 1).all()


def reference_loss(vec, rows, n, h):
    """The separate loss pass the trainer ran at its trial point before the fusion."""
    diff = rows - network._forward(*network._unpack(vec, n, h), rows)[1]
    return float((diff * diff).sum() / rows.shape[0])


def reference_loss_grad(vec, rows, n, h):
    """The out-of-place gradient expressions that ``_batch_loss_grad`` fused."""
    w1, b1, w2, b2 = network._unpack(vec, n, h)
    r = rows.shape[0]
    hidden, out = network._forward(w1, b1, w2, b2, rows)
    diff = rows - out
    loss = float((diff * diff).sum() / r)
    g_out = (-2.0 / r) * diff * out * (1.0 - out)
    g_w2 = g_out.T @ hidden
    g_b2 = g_out.sum(axis=0)
    g_hidden = (g_out @ w2) * (1.0 - hidden * hidden)
    g_w1 = g_hidden.T @ rows
    g_b1 = g_hidden.sum(axis=0)
    return loss, np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


def reference_train(rows, n_hidden, cfg):
    """The SCG loop before the trial gradient was reused, as a reference.

    It scores the trial point by a separate loss pass and recomputes the
    gradient there when the step is accepted.  Returns the final weights and
    loss, the loss history, and the counts of rejected steps and of
    restarts along the negative gradient (mu <= 0).
    """
    n = rows.shape[1]
    w = network._initial_parameters(np.random.default_rng(cfg.rng_seed), n, n_hidden)
    n_params = w.size
    f, g = reference_loss_grad(w, rows, n, n_hidden)
    history = [f]
    rejected = restarts = 0
    r = -g
    p = r.copy()
    lam = network._SCG_LAMBDA
    lam_bar = 0.0
    success = True
    delta = 0.0
    for k in range(1, cfg.max_iterations + 1):
        p_sq = float(p @ p)
        if p_sq == 0.0:
            break
        if success:
            sigma_k = network._SCG_SIGMA / np.sqrt(p_sq)
            _, g_probe = reference_loss_grad(w + sigma_k * p, rows, n, n_hidden)
            s = (g_probe - g) / sigma_k
            delta = float(p @ s)
        delta += (lam - lam_bar) * p_sq
        if delta <= 0.0:
            lam_bar = 2.0 * (lam - delta / p_sq)
            delta = -delta + lam * p_sq
            lam = lam_bar
        mu = float(p @ r)
        if mu <= 0.0:
            restarts += 1
            p = r.copy()
            success = True
            continue
        alpha = mu / delta
        w_try = w + alpha * p
        f_try = reference_loss(w_try, rows, n, n_hidden)
        assert np.isfinite(f_try)
        comparison = 2.0 * delta * (f - f_try) / (mu * mu)
        if comparison >= 0.0:
            improvement = f - f_try
            w = w_try
            f = f_try
            _, g = reference_loss_grad(w, rows, n, n_hidden)
            r_new = -g
            lam_bar = 0.0
            success = True
            if k % n_params == 0:
                p_new = r_new.copy()
            else:
                beta = float(r_new @ r_new - r_new @ r) / mu
                p_new = r_new + beta * p
            r = r_new
            p = p_new
            if comparison >= 0.75:
                lam *= 0.25
            history.append(f)
            if float(np.abs(g).max()) < cfg.gradient_tolerance:
                break
            if improvement < cfg.objective_tolerance:
                break
        else:
            rejected += 1
            lam_bar = lam
            success = False
        if comparison < 0.25:
            lam += delta * (1.0 - comparison) / p_sq
            if lam > network._SCG_LAMBDA_MAX:
                break
    return w, f, history, rejected, restarts


class TestForward:
    def test_zero_weights_give_half(self):
        net = zero_net(4, 2)
        np.testing.assert_array_equal(net.forward(np.array([0.1, 0.9, 0.3, 0.7])), 0.5)

    def test_bias_only_outputs(self):
        # Hidden pre-activation zero -> output k is logistic(output bias k).
        net = Autoencoder(3, 2, np.r_[np.zeros(6 + 2 + 6), 0.0, 1.0, -1.0])
        out = net.forward(np.array([0.4, 0.6, 0.2]))
        expected = 1.0 / (1.0 + np.exp(-np.array([0.0, 1.0, -1.0])))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_matches_scalar_composition(self):
        rng = np.random.default_rng(42)
        net = random_autoencoder(rng, 3, 2)
        x = np.array([0.1, 0.9, 0.5])
        np.testing.assert_allclose(net.forward(x), scalar_forward(net, x), rtol=0, atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length 4"):
            zero_net(4, 2).forward(np.zeros(3))

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            net = random_autoencoder(rng, n, int(rng.integers(2, n)))
            y = net.forward(rng.uniform(0, 1, n))
            assert (y > 0).all() and (y < 1).all()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        net = random_autoencoder(rng, 5, 3)
        rows = rng.uniform(0, 1, size=(7, 5))
        batch = net.forward_batch(rows)
        singles = np.array([net.forward(r) for r in rows])
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-14)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_shared_kernel_matches_one_row_and_loss_paths(self, data):
        # A one-row batch runs the same arithmetic as forward, and the
        # trainer's loss over the flat vector the same as the mean squared
        # error of forward_batch, so both pairs must agree bit for bit.
        n = data.draw(st.integers(3, 30), label="n")
        h = data.draw(st.integers(2, n - 1), label="h")
        r = data.draw(st.integers(1, 70), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        net = random_autoencoder(rng, n, h)
        rows = rng.uniform(0, 1, size=(r, n))
        np.testing.assert_array_equal(net.forward_batch(rows[0][None])[0], net.forward(rows[0]))
        diff = rows - net.forward_batch(rows)
        loss = network._batch_loss_grad(net.parameters, rows, n, h)[0]
        assert loss == float((diff * diff).sum() / r)


def analytic_gradient(net, rows):
    """The back-propagation gradient the trainer uses, at the network's weights."""
    return network._batch_loss_grad(net.parameters, rows, net.n_inputs, net.n_hidden)[1]


def finite_difference_gradient(net, rows, eps=1e-6):
    base = net.parameters
    n, h = net.n_inputs, net.n_hidden
    fd = np.empty_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += eps
        down = base.copy()
        down[i] -= eps
        fd[i] = (
            network._batch_loss_grad(up, rows, n, h)[0]
            - network._batch_loss_grad(down, rows, n, h)[0]
        ) / (2 * eps)
    return fd


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        net = random_autoencoder(rng, 3, 2)
        rows = rng.uniform(0, 1, size=(5, 3))
        g = analytic_gradient(net, rows)
        fd = finite_difference_gradient(net, rows)
        rel = np.abs(g - fd) / max(np.abs(fd).max(), 1e-8)
        assert rel.max() < 1e-5

    def test_duplicated_rows_leave_gradient_unchanged(self):
        rng = np.random.default_rng(4)
        net = random_autoencoder(rng, 4, 3)
        rows = rng.uniform(0, 1, size=(6, 4))
        g1 = analytic_gradient(net, rows)
        g2 = analytic_gradient(net, np.vstack([rows, rows]))
        np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)

    def test_near_zero_at_trained_minimum(self):
        rows = np.tile(np.array([0.2, 0.8, 0.5, 0.4]), (4, 1))
        net, _ = network.train(rows, 2, TrainConfig(rng_seed=0, max_iterations=2000))
        g = analytic_gradient(net, rows)
        assert np.abs(g).max() < 1e-4

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_in_place_passes_equal_reference_bits(self, data):
        n = data.draw(st.integers(3, 30), label="n")
        h = data.draw(st.integers(2, n - 1), label="h")
        r = data.draw(st.integers(1, 70), label="rows")
        scale = data.draw(st.sampled_from([0.1, 0.7, 5.0, 40.0]), label="scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        vec = random_autoencoder(rng, n, h, scale).parameters
        rows = rng.uniform(0, 1, size=(r, n))
        loss, grad = network._batch_loss_grad(vec, rows, n, h)
        ref_loss, ref_grad = reference_loss_grad(vec, rows, n, h)
        assert np.float64(loss).view(np.uint64) == np.float64(ref_loss).view(np.uint64)
        np.testing.assert_array_equal(grad.view(np.uint64), ref_grad.view(np.uint64))



class TestParameters:
    def test_layers_are_read_only_views_in_flat_order(self):
        n, h = 4, 3
        vec = np.arange(2 * n * h + h + n, dtype=float)
        net = Autoencoder(n, h, vec)
        w1, b1, w2, b2 = net.layers
        assert [a.shape for a in net.layers] == [(h, n), (h,), (n, h), (n,)]
        np.testing.assert_array_equal(w1, vec[:12].reshape(h, n))
        np.testing.assert_array_equal(b1, vec[12:15])
        np.testing.assert_array_equal(w2, vec[15:27].reshape(n, h))
        np.testing.assert_array_equal(b2, vec[27:])
        assert not net.parameters.flags.writeable
        for layer in net.layers:
            assert np.shares_memory(layer, net.parameters) and not layer.flags.writeable

    def test_vector_copied_once(self):
        vec = np.zeros(2 * 4 * 2 + 2 + 4)
        net = Autoencoder(4, 2, vec)
        vec[0] = 1.0
        assert net.parameters[0] == 0.0 and vec.flags.writeable

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected 22 parameters"):
            Autoencoder(4, 2, np.zeros(21))
        with pytest.raises(ValueError, match="expected 22 parameters"):
            Autoencoder(4, 2, np.zeros((2, 11)))

    def test_non_finite_rejected(self):
        vec = np.zeros(22)
        vec[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Autoencoder(4, 2, vec)

    @pytest.mark.parametrize("h", [1, 4])
    def test_hidden_size_out_of_range_rejected(self, h):
        with pytest.raises(ValueError, match=f"^hidden size {h} out of range for 4 inputs: must satisfy 2 <= h <= 3$"):
            Autoencoder(4, h, np.zeros(2 * 4 * h + h + 4))


class TestTrain:
    def test_manifold_reaches_low_loss(self):
        rows = manifold_rows()
        net, loss = network.train(rows, 2, TrainConfig(rng_seed=0))
        assert loss < 0.01
        again = network._batch_loss_grad(net.parameters, rows, net.n_inputs, net.n_hidden)[0]
        assert loss == pytest.approx(again, rel=1e-12)

    def test_constant_rows_learned(self):
        rows = np.tile(np.array([0.3, 0.6, 0.9, 0.2]), (10, 1))
        _, loss = network.train(rows, 2, TrainConfig(rng_seed=1, max_iterations=2000))
        assert loss < 1e-6

    def test_same_seed_bit_identical(self):
        rows = manifold_rows(seed=2, count=60)
        cfg = TrainConfig(rng_seed=11, max_iterations=80)
        net_a, loss_a = network.train(rows, 2, cfg)
        net_b, loss_b = network.train(rows, 2, cfg)
        assert loss_a == loss_b
        np.testing.assert_array_equal(net_a.parameters, net_b.parameters)

    def test_different_seeds_differ(self):
        rows = manifold_rows(seed=2, count=40)
        net_a, _ = network.train(rows, 2, TrainConfig(rng_seed=1, max_iterations=1))
        net_b, _ = network.train(rows, 2, TrainConfig(rng_seed=2, max_iterations=1))
        assert not np.array_equal(net_a.parameters, net_b.parameters)

    def test_accepted_steps_monotone(self):
        rows = manifold_rows(seed=3, count=80)
        history: list[float] = []
        _, final = network.train(rows, 2, TrainConfig(rng_seed=4), loss_history=history)
        assert len(history) >= 2
        assert (np.diff(history) <= 0).all()
        assert history[-1] == final
        assert final <= history[0]

    def test_non_finite_initial_loss_fails_before_the_loop(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 4)) * 1e200
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingError, match="non-finite loss at the initial weights"):
                network.train(rows, 2, TrainConfig(rng_seed=0))

    def test_non_finite_trial_loss_fails(self):
        # A finite start whose curvature estimate overflows fails before any step.
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 4)) * 1e120
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="non-finite curvature at iteration 1$"):
                network.train(rows, 2, TrainConfig(rng_seed=0))

    @pytest.mark.parametrize(
        "call, message",
        [(1, "non-finite gradient at the initial weights"), (3, "non-finite gradient at iteration 1")],
    )
    def test_non_finite_gradient_fails_before_use(self, monkeypatch, call, message):
        # Calls: initial weights, curvature probe, then the first trial point.
        exact = network._batch_loss_grad
        losses = []

        def overflowing(vec, rows, n, h):
            loss, grad = exact(vec, rows, n, h)
            losses.append(loss)
            if len(losses) == call:
                grad[0] = np.inf
            return loss, grad

        monkeypatch.setattr(network, "_batch_loss_grad", overflowing)
        with pytest.raises(TrainingError, match=message + "$"):
            network.train(manifold_rows(count=30), 2, TrainConfig(rng_seed=0))
        assert len(losses) == call
        assert losses[-1] <= losses[0]  # a trial point that fails here was accepted

    def test_hidden_size_bounds_enforced(self):
        rows = manifold_rows(count=20)
        with pytest.raises(ValueError):
            network.train(rows, 1)
        with pytest.raises(ValueError):
            network.train(rows, 4)


def assert_same_training(rows, h, cfg):
    """``train`` must equal ``reference_train`` bit for bit; returns the reference counts."""
    history: list[float] = []
    net, loss = network.train(rows, h, cfg, loss_history=history)
    w, ref_loss, ref_history, rejected, restarts = reference_train(rows, h, cfg)
    np.testing.assert_array_equal(net.parameters.view(np.uint64), w.view(np.uint64))
    assert np.float64(loss).view(np.uint64) == np.float64(ref_loss).view(np.uint64)
    assert history == ref_history
    return rejected, restarts


class TestFusedTrainer:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_loop(self, data):
        n = data.draw(st.integers(3, 12), label="n")
        h = data.draw(st.integers(2, n - 1), label="h")
        r = data.draw(st.integers(2, 40), label="rows")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        iterations = data.draw(st.integers(1, 60), label="max_iterations")
        rows = np.random.default_rng(seed).uniform(0, 1, size=(r, n))
        assert_same_training(rows, h, TrainConfig(rng_seed=seed, max_iterations=iterations))

    def test_rejected_steps_and_restarts_equal_reference(self):
        # This run rejects steps (the trial gradient goes unused) and restarts
        # along the negative gradient, besides accepting steps.
        rows = np.random.default_rng(11).uniform(0, 1, size=(33, 4))
        rejected, restarts = assert_same_training(
            rows, 2, TrainConfig(rng_seed=11, max_iterations=60)
        )
        assert rejected >= 1 and restarts >= 1


def masked_task(rows, column):
    """The imputation task of ``rows`` with ``column`` masked, as ``data.make_tasks`` builds it."""
    rows = np.asarray(rows, dtype=float)
    records = rows.copy()
    records[:, column] = MISSING_SENTINEL
    return ImputationTask(record=records, known_mask=np.arange(rows.shape[1]) != column, true_values=rows)


def half_task(n, count=6):
    """A validation task over ``count`` random rows whose masked last column is 0.5."""
    rows = np.random.default_rng(0).uniform(0, 1, size=(count, n))
    rows[:, -1] = 0.5
    return masked_task(rows, n - 1)


def scripted_train(errors, seen=None):
    """A stub trainer: size h imputes 0.5 + errors[h] where ``half_task``'s truth is 0.5.

    So the validation error of size h is errors[h], up to the 0.0025 grid; a
    None entry aborts.  ``seen``, when given, receives each size trained in
    this process.
    """
    def fake_train(rows, h, cfg):
        if seen is not None:
            seen.append(h)
        if errors[h] is None:
            raise TrainingError("boom")
        return PinnedColumnNet(rows.shape[1], rows.shape[1] - 1, 0.5 + errors[h]), float(h)

    return fake_train


class TestSelectHiddenSize:
    def test_candidate_sets(self):
        assert network.hidden_size_candidates(25) == list(range(2, 25))
        assert network.hidden_size_candidates(14) == list(range(2, 14))
        assert network.hidden_size_candidates(3) == [2]
        with pytest.raises(ValueError):
            network.hidden_size_candidates(2)

    def test_returns_argmin_of_validation_loss(self):
        # Validation error 0.01 * |h - 5| over sizes 2-7.
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 8))
        fake_train = scripted_train({h: 0.01 * abs(h - 5) for h in range(2, 8)})
        chosen, net, loss = network.select_hidden_size(
            rows, half_task(8), TrainConfig(rng_seed=0), train_fn=fake_train
        )
        assert (chosen, net.value, loss) == (5, 0.5, 5.0)

    def test_tie_goes_to_smaller(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 1)
        seen = []
        fake_train = scripted_train({h: 0.1 for h in range(2, 8)}, seen)
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 8))
        assert network.select_hidden_size(rows, half_task(8), train_fn=fake_train)[0] == 2
        # Equal errors do not improve: three of them end the scan.
        assert seen == [2, 3, 4, 5]

    def test_aborting_candidates_skipped(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(8, 5))
        fake_train = scripted_train({2: None, 3: 0.0, 4: None})
        with pytest.warns(UserWarning, match="skipped") as record:
            chosen, _, _ = network.select_hidden_size(rows, half_task(5), train_fn=fake_train)
        assert chosen == 3
        assert [str(w.message) for w in record] == [
            "hidden size 2 skipped: boom",
            "hidden size 4 skipped: boom",
        ]

    def test_top_of_range_winner_warns(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 6))
        fake_train = scripted_train({h: 0.01 * (5 - h) for h in range(2, 6)})
        with pytest.warns(UserWarning) as record:
            chosen, _, _ = network.select_hidden_size(rows, half_task(6), train_fn=fake_train)
        assert chosen == 5
        assert [str(w.message) for w in record] == [
            "hidden size 5 won at the top of the range (n-1): the network is close to the identity"
        ]

    def test_inner_winner_does_not_warn(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 6))
        fake_train = scripted_train({h: 0.01 * abs(h - 4) for h in range(2, 6)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chosen, _, _ = network.select_hidden_size(rows, half_task(6), train_fn=fake_train)
        assert chosen == 4

    def test_only_candidate_does_not_warn(self):
        # n = 3 leaves h = 2 alone in the range: no choice was made to warn about.
        rows = np.random.default_rng(0).uniform(0, 1, size=(16, 3))
        cfg = TrainConfig(rng_seed=0, max_iterations=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chosen, net, _ = network.select_hidden_size(rows[:12], masked_task(rows[12:], 2), cfg)
        assert chosen == net.n_hidden == 2

    def test_all_skipped_is_error(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(8, 4))
        with pytest.warns(UserWarning):
            with pytest.raises(TrainingError, match="every hidden-size candidate"):
                network.select_hidden_size(
                    rows, half_task(4), train_fn=scripted_train({2: None, 3: None})
                )

    def test_within_bounds_on_real_training(self):
        rows = manifold_rows(seed=6, count=50)
        cfg = TrainConfig(rng_seed=0, max_iterations=60)
        # n = 4, and h = 3 = n - 1 wins here.
        with pytest.warns(UserWarning, match="top of the range"):
            h, net, loss = network.select_hidden_size(rows[:40], masked_task(rows[40:], 3), cfg)
        assert 2 <= h <= 3
        # The winner comes back as trained, not retrained from another seed.
        again, again_loss = network.train(
            rows[:40], h, dataclasses.replace(cfg, rng_seed=derive_seed(0, "hidden", h))
        )
        np.testing.assert_array_equal(net.parameters, again.parameters)
        assert loss == again_loss

    def test_scored_by_the_masked_columns_grid_error(self):
        # The scan reaches n-1 here, so it trains every size; the winner's grid
        # imputation of the validation block has the lowest mean absolute error.
        rows = wide_manifold_rows(seed=6, count=50)
        cfg = TrainConfig(rng_seed=0, max_iterations=60)
        task = masked_task(rows[40:], 2)
        with pytest.warns(UserWarning, match="top of the range"):
            h, net, _ = network.select_hidden_size(rows[:40], task, cfg)

        def error(net):
            imputed, _ = MissingDataObjective(net, task).grid_minimize()
            return np.mean(np.abs(imputed - rows[40:, 2]))

        for other in range(2, 7):
            trained, _ = network.train(
                rows[:40], other, dataclasses.replace(cfg, rng_seed=derive_seed(0, "hidden", other))
            )
            assert error(net) <= error(trained), other

    def test_stops_after_patience_candidates_without_improvement(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 1)
        seen = []
        errors = {2: 0.3, 3: 0.2, 4: 0.25, 5: 0.2, 6: 0.1, 7: 0.2, 8: 0.15, 9: 0.1, 10: 0.0, 11: 0.0}
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chosen, _, _ = network.select_hidden_size(
                rows, half_task(12), train_fn=scripted_train(errors, seen)
            )
        assert network._SCAN_PATIENCE == 3
        # 5 ties 3 and does not improve; 7, 8 and 9 after the best at 6 end the scan.
        assert chosen == 6
        assert seen == [2, 3, 4, 5, 6, 7, 8, 9]

    def test_aborted_candidate_counts_as_not_improving(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 1)
        seen = []
        errors = {2: 0.3, 3: 0.2, 4: None, 5: 0.25, 6: None, 7: 0.0, 8: 0.0}
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 9))
        with pytest.warns(UserWarning) as record:
            chosen, _, _ = network.select_hidden_size(
                rows, half_task(9), train_fn=scripted_train(errors, seen)
            )
        assert chosen == 3
        assert seen == [2, 3, 4, 5, 6]
        assert [str(w.message) for w in record] == [
            "hidden size 4 skipped: boom",
            "hidden size 6 skipped: boom",
        ]

    def test_aborts_before_the_first_score_do_not_end_the_scan(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 1)
        errors = {2: None, 3: None, 4: None, 5: 0.2, 6: 0.1, 7: 0.3}
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 8))
        with pytest.warns(UserWarning) as record:
            chosen, _, _ = network.select_hidden_size(
                rows, half_task(8), train_fn=scripted_train(errors)
            )
        assert chosen == 6
        assert [str(w.message) for w in record] == [
            f"hidden size {h} skipped: boom" for h in (2, 3, 4)
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_candidates_past_the_stop_are_dropped(self, workers, monkeypatch):
        # The scan stops at 6.  Waves of 2, 3 or 4 sizes also train 7, which
        # aborts, and waves of 4 train 8, which would win: neither counts.
        monkeypatch.setattr(parallel, "_worker_count", lambda n: workers)
        errors = {2: 0.3, 3: 0.1, 4: 0.2, 5: 0.2, 6: 0.2, 7: None, 8: 0.0, 9: 0.0}
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 10))
        with deadline(60), warnings.catch_warnings():
            warnings.simplefilter("error")
            chosen, net, loss = network.select_hidden_size(
                rows, half_task(10), train_fn=scripted_train(errors)
            )
        assert (chosen, net.value, loss) == (3, 0.6, 3.0)
        assert child_processes() == []

    def test_validation_task_must_mask_one_column(self):
        rows = np.random.default_rng(0).uniform(0, 1, size=(10, 6))
        two_masked = ImputationTask(record=rows, known_mask=np.arange(6) < 4, true_values=rows)
        with pytest.raises(ValueError, match="one column"):
            network.select_hidden_size(rows, two_masked)
        without_truth = ImputationTask(record=rows, known_mask=np.arange(6) < 5)
        with pytest.raises(ValueError, match="true values"):
            network.select_hidden_size(rows, without_truth)


def wide_manifold_rows(seed: int, count: int) -> np.ndarray:
    """``manifold_rows`` plus three mirrored columns: 7 inputs, hidden sizes 2-6."""
    rows = manifold_rows(seed=seed, count=count)
    return np.hstack([rows, 1.0 - rows[:, :3]])


def wider_manifold_rows(seed: int, count: int) -> np.ndarray:
    """``manifold_rows``, its mirror and a scaled copy of t: 9 inputs, hidden sizes 2-8."""
    rows = manifold_rows(seed=seed, count=count)
    return np.hstack([rows, 1.0 - rows, 0.5 * rows[:, :1]])


def sizes_5_and_7_abort(rows, h, cfg):
    """The real trainer, except that hidden sizes 5 and 7 abort."""
    if h in (5, 7):
        raise TrainingError(f"size {h} aborts")
    return network.train(rows, h, cfg)


def reference_scan(train_rows, val_task, cfg, train_fn):
    """The one-process scan: ((h, network, loss), its warnings in order)."""
    column = val_task.unknown_indices[0]
    best, best_error, stale, messages = None, np.inf, 0, []
    for h in network.hidden_size_candidates(train_rows.shape[1]):
        sub_cfg = dataclasses.replace(cfg, rng_seed=derive_seed(cfg.rng_seed, "hidden", h))
        try:
            net, train_loss = train_fn(train_rows, h, sub_cfg)
        except TrainingError as err:
            messages.append(f"hidden size {h} skipped: {err}")
            stale += best is not None
        else:
            imputed, _ = MissingDataObjective(net, val_task).grid_minimize()
            error = np.mean(np.abs(imputed - val_task.true_values[:, column]))
            if error < best_error:
                best_error, best, stale = error, (h, net, train_loss), 0
            else:
                stale += 1
        if stale == 3:
            break
    if best[0] == train_rows.shape[1] - 1:
        messages.append(
            f"hidden size {best[0]} won at the top of the range (n-1): "
            "the network is close to the identity"
        )
    return best, messages


class TestParallelSearch:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_any_worker_count_equals_reference_loop(self, workers, monkeypatch):
        # The scan stops at 6, so waves of 2 and of 3 sizes train 7 and drop
        # it with its warning; 8 would have scored better than the pick.
        monkeypatch.setattr(parallel, "_worker_count", lambda n: workers)
        rows = wider_manifold_rows(seed=6, count=50)
        cfg = TrainConfig(rng_seed=1, max_iterations=60)
        task = masked_task(rows[40:], 1)
        (ref_h, ref_net, ref_loss), ref_messages = reference_scan(
            rows[:40], task, cfg, sizes_5_and_7_abort
        )
        with deadline(60), pytest.warns(UserWarning) as record:
            h, net, loss = network.select_hidden_size(
                rows[:40], task, cfg, train_fn=sizes_5_and_7_abort
            )
        assert h == ref_h == 3
        np.testing.assert_array_equal(
            net.parameters.view(np.uint64), ref_net.parameters.view(np.uint64)
        )
        assert np.float64(loss).view(np.uint64) == np.float64(ref_loss).view(np.uint64)
        assert [str(w.message) for w in record] == ref_messages == [
            "hidden size 5 skipped: size 5 aborts",
        ]
        assert child_processes() == []

    def test_one_worker_trains_every_size_in_this_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 1)
        seen = []

        def recording_train(rows, h, cfg):
            seen.append((h, os.getpid()))
            # Each size imputes better than the last, so the scan never stops early.
            return PinnedColumnNet(rows.shape[1], rows.shape[1] - 1, 0.5 + 0.01 * (6 - h)), 0.0

        rows = np.random.default_rng(0).uniform(0, 1, size=(8, 6))
        with pytest.warns(UserWarning, match="top of the range"):
            network.select_hidden_size(rows, half_task(6), train_fn=recording_train)
        assert seen == [(h, os.getpid()) for h in range(2, 6)]

    def test_network_from_a_worker_stays_read_only(self, monkeypatch):
        # Pickling drops numpy's read-only flag; the worker's network must
        # come back through the constructor like the caller's.
        monkeypatch.setattr(parallel, "_worker_count", lambda n: 2)
        rows = manifold_rows(seed=2, count=30)
        with deadline(60):
            nets = parallel.fork_map(
                lambda h: network.train(rows, h, TrainConfig(max_iterations=5))[0], [2, 3]
            )
        assert [net.n_hidden for net in nets] == [2, 3]
        for net in nets:
            assert not net.parameters.flags.writeable
            for layer in net.layers:
                assert np.shares_memory(layer, net.parameters) and not layer.flags.writeable
        assert child_processes() == []


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        net = random_autoencoder(rng, 5, 3)
        path = tmp_path / "model.txt"
        path.write_text(network.model_text(net))
        loaded = network.load_model(path)
        np.testing.assert_array_equal(loaded.parameters, net.parameters)
        x = rng.uniform(0, 1, 5)
        np.testing.assert_array_equal(loaded.forward(x), net.forward(x))

    def test_header_records_sizes(self, tmp_path):
        net = zero_net(4, 2)
        path = tmp_path / "model.txt"
        path.write_text(network.model_text(net))
        assert path.read_text().splitlines()[0] == "4 2"

    def test_truncated_file_rejected(self, tmp_path):
        net = zero_net(4, 2)
        path = tmp_path / "model.txt"
        path.write_text(network.model_text(net))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="expected"):
            network.load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: ["4 x"] + lines[1:],
            lambda lines: lines[:3] + ["abc"] + lines[4:],
            lambda lines: lines[:3] + ["nan"] + lines[4:],
            lambda lines: ["4 3"] + lines[1:],
        ],
        ids=["header", "value", "nan", "shape"],
    )
    def test_every_error_names_the_path(self, tmp_path, edit):
        path = tmp_path / "model.txt"
        lines = network.model_text(zero_net(4, 2)).splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError, match=str(path)):
            network.load_model(path)
        path.write_bytes(b"4 2\n\xe9\n")
        with pytest.raises(ValueError, match=str(path)):
            network.load_model(path)
