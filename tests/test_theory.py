"""Shrinkage predictor, attention layer, bounds, and the simulation grid."""

import hashlib
import math

import numpy as np
import pytest

from decisionlab.core import Rng
from decisionlab.dataset import write_csv
from decisionlab.theory import (
    Diverged,
    E2Config,
    E2_CSV_COLUMNS,
    IllConditioned,
    LinearTaskFamily,
    LsaLayer,
    LsaPredictor,
    Prompt,
    covariance_condition,
    evaluate_lsa,
    gamma_matrix,
    gap_bound,
    horizon_constant,
    lsa_predict,
    q_error_bound,
    run_e2_simulation,
    sample_complexity,
    sample_prompt,
    train_lsa,
)
from decisionlab.theory import (_e2_cell, _gram_factor, _log_spaced_cov, _lsa_batch_grads,
                               _projection_factor)


# ---------------------------------------------------------------------------
# tasks and prompts


def test_sample_prompt_is_realizable():
    family = LinearTaskFamily(dim=3, feature_cov=np.diag([0.5, 1.0, 2.0]))
    task = family.sample_task(Rng(0))
    prompt = sample_prompt(task, 20, Rng(0, 1))
    np.testing.assert_array_equal(prompt.ys, prompt.xs @ task.weight)
    assert prompt.length == 20
    assert prompt.query.shape == (3,)


def test_family_features_have_requested_covariance():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    family = LinearTaskFamily(dim=2, feature_cov=cov)
    xs = family.sample_features((200000,), Rng(5))
    emp = xs.T @ xs / len(xs)
    np.testing.assert_allclose(emp, cov, atol=0.03)


def _correlated_cov(d):
    """A non-diagonal covariance: unit-diagonal AR(1) correlations times log-spaced scales."""
    corr = 0.6 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    sd = np.sqrt(np.diag(_log_spaced_cov(d, 50.0)))
    return corr * np.outer(sd, sd)


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("cov", ["identity", "correlated"])
def test_sample_batch_gram_is_that_of_features_drawn_from_the_same_stream(d, cov):
    lam = np.eye(d) if cov == "identity" else _correlated_cov(d)
    family, count, m = LinearTaskFamily(dim=d, feature_cov=lam), 64, 30
    gram, qs, targets = family.sample_batch(count, m, Rng(17, d))
    # the features and labels themselves, drawn in the same order from the same stream
    rng, factor = Rng(17, d), np.linalg.cholesky(lam).T
    ws = rng.standard_normal((count, d))
    xs = rng.standard_normal((count, m, d)) @ factor
    want_qs = rng.standard_normal((count, d)) @ factor
    cols = np.concatenate([xs, np.einsum("bmd,bd->bm", xs, ws)[..., None]], axis=2)
    want = np.einsum("bmi,bmj->bij", cols, cols)
    assert gram.shape == (count, d + 1, d + 1)
    np.testing.assert_allclose(gram, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(qs, want_qs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(targets, np.einsum("bd,bd->b", want_qs, ws), rtol=1e-12,
                               atol=1e-12 * np.abs(want_qs).max())


def test_prompt_moment_formula():
    xs = np.array([[1.0, 0.0], [0.0, 2.0]])
    ys = np.array([3.0, -1.0])
    prompt = Prompt(xs, ys, np.array([1.0, 1.0]))
    np.testing.assert_allclose(prompt.moment(), [1.5, -1.0])


# ---------------------------------------------------------------------------
# shrinkage predictor


def test_gamma_matrix_hand_values():
    np.testing.assert_allclose(gamma_matrix(np.eye(2), 10), 1.3 * np.eye(2))
    lam = np.array([[2.0, 0.5], [0.5, 1.0]])
    want = 1.25 * lam + (3.0 / 4.0) * np.eye(2)
    np.testing.assert_allclose(gamma_matrix(lam, 4), want)


def test_predictor_identity_gamma_reduces_to_moment():
    pred = LsaPredictor(np.eye(2), train_length=1)
    prompt = Prompt(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, -4.0]),
                    np.array([1.0, 0.5]))
    np.testing.assert_allclose(pred.coefficients(prompt), [1.0, -2.0])
    assert lsa_predict(pred, prompt) == pytest.approx(1.0 - 1.0, abs=1e-15)


def test_predictor_matches_direct_solve():
    rng = np.random.default_rng(3)
    lam = np.diag([0.2, 1.0, 3.0])
    pred = LsaPredictor.from_covariance(lam, train_length=50)
    xs = rng.standard_normal((30, 3))
    prompt = Prompt(xs, xs @ np.array([1.0, -2.0, 0.5]), rng.standard_normal(3))
    want = prompt.query @ np.linalg.solve(gamma_matrix(lam, 50), prompt.moment())
    assert lsa_predict(pred, prompt) == pytest.approx(want, abs=1e-12)


def test_predictor_consistent_in_the_large_sample_limit():
    # with huge N the shrinkage vanishes and a long prompt pins the moment,
    # so the prediction approaches the true linear reward
    w = np.array([1.0, -0.5])
    task_cov = np.eye(2)
    xs = Rng(9).standard_normal((20000, 2))
    prompt = Prompt(xs, xs @ w, np.array([0.7, 0.4]))
    pred = LsaPredictor.from_covariance(task_cov, train_length=10 ** 7)
    assert lsa_predict(pred, prompt) == pytest.approx(float(prompt.query @ w), abs=0.1)


def test_ill_conditioned_gamma_rejected():
    with pytest.raises(IllConditioned):
        LsaPredictor(np.diag([1.0, 1e-13]), 10)
    with pytest.raises(IllConditioned):
        LsaPredictor(np.diag([1.0, -1.0]), 10)
    with pytest.raises(IllConditioned):
        covariance_condition(np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# bounds


def test_q_error_bound_hand_value():
    # d=2, tr=2, kappa=1, M=10, N=100: 3*2/10 + (1+4+4)*2/100^2
    want = 0.6 + 9 * 2 / 10000
    assert q_error_bound(2, np.eye(2), 10, 100) == pytest.approx(want, rel=1e-12)


def test_q_error_bound_decreases_in_m_and_n():
    lam = np.diag([0.5, 2.0])
    assert q_error_bound(2, lam, 100, 50) < q_error_bound(2, lam, 10, 50)
    assert q_error_bound(2, lam, 10, 500) < q_error_bound(2, lam, 10, 50)


def test_horizon_constant_values():
    assert horizon_constant(7, 1.0) == 14.0
    want = 2.0 * (1.0 - 0.95 ** 10) / 0.05
    assert horizon_constant(10, 0.95) == pytest.approx(want, rel=1e-12)
    # continuous at the undiscounted limit
    assert horizon_constant(10, 1.0 - 1e-12) == pytest.approx(20.0, abs=1e-6)


def test_gap_bound_formula_and_validation():
    val = gap_bound(10, 0.95, 2.0, 0.09)
    assert val == pytest.approx(horizon_constant(10, 0.95) * math.sqrt(0.18), rel=1e-12)
    assert gap_bound(5, 1.0, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        gap_bound(5, 1.0, 1.0, -0.1)


@pytest.mark.parametrize("dim,tr_scale,horizon,coverage,epsilon", [
    (2, 1.0, 5, 1.0, 0.5),
    (4, 0.5, 10, 2.0, 0.25),
    (10, 2.0, 15, 1.5, 1.0),
])
def test_sample_complexity_is_self_consistent(dim, tr_scale, horizon, coverage, epsilon):
    # plugging the returned episode counts back into the error bound keeps the
    # undiscounted suboptimality bound at or below the requested epsilon
    lam = tr_scale * np.eye(dim)
    k_test, k = sample_complexity(dim, lam, horizon, coverage, epsilon)
    assert k_test >= 1 and k >= 1
    eps_q = q_error_bound(dim, lam, k_test * horizon, k * horizon)
    assert gap_bound(horizon, 1.0, coverage, eps_q) <= epsilon * (1 + 1e-9)


def test_sample_complexity_validates_epsilon():
    with pytest.raises(ValueError):
        sample_complexity(2, np.eye(2), 5, 1.0, 0.0)


# ---------------------------------------------------------------------------
# attention layer


def test_zero_layer_predicts_zero():
    layer = LsaLayer.zeros(3)
    prompt = sample_prompt(
        LinearTaskFamily(dim=3, feature_cov=np.eye(3)).sample_task(Rng(1)),
        10, Rng(1, 2))
    assert layer.predict(prompt) == 0.0


def test_prompt_matrix_layout():
    xs = np.array([[1.0, 2.0], [3.0, 4.0]])
    prompt = Prompt(xs, np.array([5.0, 6.0]), np.array([7.0, 8.0]))
    E = LsaLayer.zeros(2).prompt_matrix(prompt)
    assert E.shape == (3, 3)
    np.testing.assert_array_equal(E[:2, :2], xs.T)
    np.testing.assert_array_equal(E[2, :2], [5.0, 6.0])
    np.testing.assert_array_equal(E[:2, 2], [7.0, 8.0])
    assert E[2, 2] == 0.0


def test_forward_full_matches_formula_and_predict():
    rng = Rng(4)
    layer = LsaLayer.initialized(2, rng, scheme="gaussian", scale=0.3)
    family = LinearTaskFamily(dim=2, feature_cov=np.eye(2))
    prompt = sample_prompt(family.sample_task(rng), 6, Rng(4, 1))
    E = layer.prompt_matrix(prompt)
    want = E + layer.w_pv @ (E @ E.T) @ layer.w_kq @ E / prompt.length
    np.testing.assert_allclose(layer.forward_full(prompt), want, atol=1e-12)
    assert layer.predict(prompt) == pytest.approx(want[-1, -1], abs=1e-12)


def test_initialized_layer_schemes():
    structured = LsaLayer.initialized(3, Rng(0), scheme="structured", scale=1e-3)
    np.testing.assert_allclose(structured.w_kq[:3, :3], 1e-3 * np.eye(3))
    assert structured.w_pv[3, 3] == 1e-3
    assert np.all(structured.w_pv[:3] == 0.0)
    gaussian = LsaLayer.initialized(3, Rng(0), scheme="gaussian", scale=1e-3)
    assert gaussian.w_kq.shape == (4, 4)
    with pytest.raises(ValueError):
        LsaLayer.initialized(3, Rng(0), scheme="xavier")


def _gram(xs, ys):
    """Each prompt's C^T C, C = [xs, ys]."""
    cols = np.concatenate([xs, ys[..., None]], axis=2)
    return np.einsum("bmi,bmj->bij", cols, cols)


def test_batch_grads_match_finite_differences():
    rng = np.random.default_rng(11)
    B, m, d = 3, 5, 2
    xs = rng.standard_normal((B, m, d))
    ys = rng.standard_normal((B, m))
    qs = rng.standard_normal((B, d))
    targets = rng.standard_normal(B)
    u = 0.3 * rng.standard_normal(d + 1)
    w = 0.3 * rng.standard_normal((d + 1, d + 1))
    gram = _gram(xs, ys)
    _, grad_u, grad_w = _lsa_batch_grads(u, w, gram, qs, targets, m)

    def loss_at(u_, w_):
        return _lsa_batch_grads(u_, w_, gram, qs, targets, m)[0]

    h = 1e-6
    for i in range(d + 1):
        e = np.zeros(d + 1)
        e[i] = h
        num = (loss_at(u + e, w) - loss_at(u - e, w)) / (2 * h)
        assert num == pytest.approx(grad_u[i], rel=1e-5, abs=1e-9)
    for i in range(d + 1):
        for j in range(d + 1):
            dw = np.zeros((d + 1, d + 1))
            dw[i, j] = h
            num = (loss_at(u, w + dw) - loss_at(u, w - dw)) / (2 * h)
            assert num == pytest.approx(grad_w[i, j], rel=1e-5, abs=1e-9)


def _gram_tensor_grads(u, w_kq, xs, ys, qs, targets):
    """The gradient formula through the per-item (d+1)^2 Gram tensor h."""
    B, m, _ = xs.shape
    cols = np.concatenate([xs, ys[..., None]], axis=2)
    q = np.concatenate([qs, np.zeros((B, 1))], axis=1)
    h = (np.einsum("bmi,bmj->bij", cols, cols) + np.einsum("bi,bj->bij", q, q)) / m
    hg = np.einsum("bij,bj->bi", h, q @ w_kq.T)
    resid = hg @ u - targets
    loss = 0.5 * float(np.mean(resid ** 2))
    grad_u = (resid[:, None] * hg).mean(axis=0)
    grad_w = np.einsum("b,bi,bj->ij", resid, np.einsum("bij,j->bi", h, u), q) / B
    return loss, grad_u, grad_w


@pytest.mark.parametrize("d, m", [(2, 50), (8, 40)])
def test_batch_grads_match_the_gram_tensor_formula(d, m):
    rng = np.random.default_rng(d)
    B = 64
    xs = rng.standard_normal((B, m, d))
    ys = rng.standard_normal((B, m))
    qs = rng.standard_normal((B, d))
    targets = rng.standard_normal(B)
    u = rng.standard_normal(d + 1)
    w = rng.standard_normal((d + 1, d + 1))
    got = _lsa_batch_grads(u, w, _gram(xs, ys), qs, targets, m)
    want = _gram_tensor_grads(u, w, xs, ys, qs, targets)
    assert got[0] == pytest.approx(want[0], abs=1e-12, rel=0)
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


# train_lsa(LsaLayer.initialized(2, Rng(s).split(0)), identity family,
# Rng(s).split(1), prompt_length=20, steps=400, batch_size=64, epoch_size=20)
# per seed s: epoch losses and halvings, as the Gram-tensor gradient gave them
PINNED_TRAINING = {
    0: (12, [0.9923129355516179, 0.9360679629731845, 0.9287366811324324,
             0.3281069557940152, 0.11566842285674295]),
    1: (12, [1.0207586702170088, 0.9726566231027147, 0.8747214137960903,
             0.30228662236085874, 0.1695202569381969, 0.1380796800323001,
             0.12246952978489231, 0.10112982235550179]),
    2: (12, [1.0468808455640572, 1.0041911119895053, 1.0014239976671049,
             0.9361065783909852, 0.7754397109371247, 0.29256432019186374,
             0.13798859929005275, 0.13678376441718068, 0.12232182853848368,
             0.11921762881037186, 0.11668944398810097]),
}


@pytest.mark.parametrize("seed", sorted(PINNED_TRAINING))
def test_train_lsa_matches_pinned_curves(seed):
    halvings, losses = PINNED_TRAINING[seed]
    rng = Rng(seed)
    result = train_lsa(LsaLayer.initialized(2, rng.split(0)),
                       LinearTaskFamily(dim=2, feature_cov=np.eye(2)), rng.split(1),
                       prompt_length=20, steps=400, batch_size=64, epoch_size=20)
    assert result.halvings == halvings
    assert len(result.epoch_losses) == len(losses)
    np.testing.assert_allclose(result.epoch_losses, losses, rtol=0, atol=1e-12)


def test_evaluate_zero_layer_has_unit_relative_error():
    family = LinearTaskFamily(dim=2, feature_cov=np.eye(2))
    out = evaluate_lsa(LsaLayer.zeros(2), family, Rng(7), prompt_length=10,
                       num_eval=256)
    assert out["rel_rms"] == 1.0


def test_train_lsa_epoch_losses_never_increase():
    family = LinearTaskFamily(dim=2, feature_cov=np.eye(2))
    layer = LsaLayer.initialized(2, Rng(0))
    result = train_lsa(layer, family, Rng(1), prompt_length=20, steps=640,
                       batch_size=64, epoch_size=40)
    losses = result.epoch_losses
    assert len(losses) >= 2
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]
    assert result.halvings >= 0
    assert isinstance(result.stopped_early, bool)
    # training must actually move the weights
    assert not np.array_equal(result.layer.w_kq, layer.w_kq)


def test_train_lsa_improves_prediction():
    family = LinearTaskFamily(dim=2, feature_cov=np.eye(2))
    layer = LsaLayer.initialized(2, Rng(0))
    before = evaluate_lsa(layer, family, Rng(3), prompt_length=30)["rel_rms"]
    result = train_lsa(layer, family, Rng(2), prompt_length=30, steps=1600,
                       batch_size=128)
    after = evaluate_lsa(result.layer, family, Rng(3), prompt_length=30)["rel_rms"]
    assert after < 0.5 * before


def test_train_lsa_diverges_on_absurd_step_size():
    family = LinearTaskFamily(dim=2, feature_cov=np.eye(2))
    layer = LsaLayer.initialized(2, Rng(0))
    with pytest.raises(Diverged):
        train_lsa(layer, family, Rng(1), prompt_length=20, steps=200,
                  step_size=1e8, batch_size=32)


# ---------------------------------------------------------------------------
# simulation grid


TINY_E2 = E2Config(dim=3, num_actions=3, horizon=4, prompt_lengths=(10, 50),
                   train_lengths=(100,), condition_numbers=(1, 5),
                   tasks_per_cell=300, seed=11)


def test_e2_rows_schema_and_structural_facts():
    rows = run_e2_simulation(TINY_E2)
    assert len(rows) == 4
    for row in rows:
        assert set(row) == set(E2_CSV_COLUMNS) | {"eps_stderr"}
        # acting greedily w.r.t. any score can only lose value, never gain
        assert row["mean_gap"] >= 0.0
        assert row["mean_eps_q"] > 0.0
        assert row["bound"] >= 0.0
        assert row["violated"] == (row["mean_gap"] > row["bound"])
    # cells are ordered by (kappa, N, M)
    assert [(r["kappa"], r["M"]) for r in rows] == [(1, 10), (1, 50), (5, 10), (5, 50)]


def test_e2_gap_shrinks_with_longer_prompts():
    rows = run_e2_simulation(TINY_E2)
    by_kappa = {}
    for row in rows:
        by_kappa.setdefault(row["kappa"], []).append(row["mean_gap"])
    for gaps in by_kappa.values():
        assert gaps[1] < gaps[0]


def test_e2_parallel_equals_serial():
    serial = run_e2_simulation(TINY_E2, jobs=1)
    parallel = run_e2_simulation(TINY_E2, jobs=2)
    assert serial == parallel


# M = 3 < d draws a trapezoidal Bartlett factor, M = 10 and 100 a triangular one
PIN_E2 = E2Config(dim=4, num_actions=3, horizon=5, prompt_lengths=(3, 10, 100),
                  train_lengths=(100, 1000), condition_numbers=(1, 25),
                  tasks_per_cell=200, seed=3)
PIN_E2_SHA256 = "bbf17888c98216f7bb8dc9d9c1ff741e750b6b98fd92d5e71e24d0861905b5f2"


def test_e2_rows_match_pinned_digest_serial_and_parallel():
    for jobs in (1, 2):
        rows = run_e2_simulation(PIN_E2, jobs=jobs)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == PIN_E2_SHA256


def _direct_gram_products(rng, count, prompt_length, sd, w, chunk=10_000):
    """X^T X w for ``count`` prompts X = Z diag(sd), Z drawn as M x d normals."""
    out = []
    for start in range(0, count, chunk):
        xs = rng.standard_normal((min(chunk, count - start), prompt_length, sd.size)) * sd
        out.append(np.einsum("nmd,nm->nd", xs, xs @ w))
    return np.concatenate(out)


def _moment_z(a, b):
    """Per entry: difference of the sample means over its standard error."""
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    return (a.mean(axis=0) - b.mean(axis=0)) / se


@pytest.mark.parametrize("d, m", [(4, 50), (10, 5)])
def test_bartlett_factor_has_the_law_of_the_prompt_gram(d, m):
    n = 100_000
    sd = np.sqrt(np.geomspace(0.2, 1.0, d))
    w = np.linspace(1.0, -0.5, d)
    r = _gram_factor(Rng(d, m), n, m, d)
    assert r.shape == (n, min(m, d), d)
    assert np.all(r[:, np.arange(min(m, d)), np.arange(min(m, d))] > 0.0)
    assert np.all(np.tril(r[:, :, :min(m, d)], -1) == 0.0)
    bartlett = sd * np.einsum("nkd,nk->nd", r, r @ (sd * w))
    direct = _direct_gram_products(Rng(d, m + 1), n, m, sd, w)
    # the reference itself: E[X^T X w] = M Lambda w
    se = direct.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(direct.mean(axis=0) - m * sd ** 2 * w) < 4.0 * se)
    assert np.abs(_moment_z(bartlett, direct)).max() < 4.0
    # covariances: each entry is the mean of a centred product, so its
    # standard error comes from the same n draws; 5 of them over the 10 + 55
    # distinct entries of the two shapes
    rows, cols = np.triu_indices(d)

    def products(v):
        c = v - v.mean(axis=0)
        return c[:, rows] * c[:, cols]
    assert np.abs(_moment_z(products(bartlett), products(direct))).max() < 5.0


@pytest.mark.parametrize("kappa", [1, 25])
def test_projection_pair_has_the_law_of_direct_candidate_features(kappa):
    n, d = 100_000, 10
    sd = np.sqrt(np.diag(_log_spaced_cov(d, kappa)))
    w = np.linspace(1.0, -0.5, d)
    coef = np.geomspace(0.2, 1.5, d) * w[::-1]  # neither parallel nor orthogonal to w
    a, b, c = _projection_factor(sd, w[None], coef[None])
    # the factor is exactly that of [w, coef]^T Lambda [w, coef]
    cov = np.array([[w @ (sd ** 2 * w), w @ (sd ** 2 * coef)],
                    [w @ (sd ** 2 * coef), coef @ (sd ** 2 * coef)]])
    np.testing.assert_allclose([[a[0] ** 2, a[0] * b[0]], [a[0] * b[0], b[0] ** 2 + c[0] ** 2]],
                               cov, rtol=1e-12)
    z1, z2 = Rng(kappa).standard_normal((2, n))
    pair = np.stack([a * z1, b * z1 + c * z2], axis=1)  # (q*, qhat)
    phi = Rng(kappa, 1).standard_normal((n, d)) * sd
    direct = np.stack([phi @ w, phi @ coef], axis=1)
    # means, then both variances and the cross-covariance as centred products
    assert np.abs(_moment_z(pair, direct)).max() < 4.0

    def products(v):
        c = v - v.mean(axis=0)
        return np.stack([c[:, 0] ** 2, c[:, 1] ** 2, c[:, 0] * c[:, 1]], axis=1)
    assert np.abs(_moment_z(products(pair), products(direct))).max() < 4.0


@pytest.mark.parametrize("kappa", [1, 25])
def test_projection_factor_of_degenerate_coefficients(kappa):
    sd = np.sqrt(np.diag(_log_spaced_cov(10, kappa)))
    w = Rng(kappa).standard_normal((200, 10))
    zero = np.zeros_like(w)
    for scale in (2.0, -0.5, 3.0):  # coef parallel to w: qhat is a multiple of q*
        a, b, c = _projection_factor(sd, w, scale * w)
        assert np.all(np.isfinite([a, b, c]))
        np.testing.assert_allclose(b, scale * a, rtol=1e-12)
        assert np.all(c <= 1e-7 * np.abs(b))  # 0 up to the rounding of |sd coef|^2 - b^2
    a, b, c = _projection_factor(sd, w, zero)  # coef 0: qhat is 0
    assert np.all(a > 0.0) and not b.any() and not c.any()
    z1, z2 = Rng(kappa, 1).standard_normal((2, 200, 5))
    assert not (b[:, None] * z1 + c[:, None] * z2).any()
    a, b, c = _projection_factor(sd, zero, w)  # w 0: a = 0 gives no NaN
    assert not a.any() and not b.any()
    np.testing.assert_allclose(c, np.linalg.norm(sd * w, axis=1), rtol=1e-12)


def test_e2_cell_memory_does_not_grow_with_prompt_length():
    import tracemalloc

    import scipy.linalg  # noqa: F401 -- its import is not the cell's memory
    cfg = E2Config()
    tracemalloc.start()
    try:
        row = _e2_cell((cfg, 1, 100, 1000, Rng(cfg.seed).split(0).stream))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["M"] == 1000
    # 500 prompts of 1000 x 10 features would take 40 MB
    assert peak < 8 * 2 ** 20


def test_e2_csv_roundtrip(tmp_path):
    rows = run_e2_simulation(TINY_E2)
    path = tmp_path / "grid.csv"
    write_csv(rows, E2_CSV_COLUMNS, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(E2_CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert float(cells[3]) == row["mean_gap"]  # repr round-trips exactly
        assert cells[-1] == ("1" if row["violated"] else "0")
    # rerun writes identical bytes
    path2 = tmp_path / "grid2.csv"
    write_csv(run_e2_simulation(TINY_E2), E2_CSV_COLUMNS, path2)
    assert path2.read_bytes() == path.read_bytes()
