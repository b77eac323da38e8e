"""Linear self-attention as an in-context Q-predictor, and its guarantees.

A pretraining distribution over linear-reward tasks (reward = <w, x> with
features x ~ N(0, Lambda)) admits a closed-form description of what a single
linear self-attention layer converges to: predictions take the form

    qhat(x_q) = x_q^T Gamma^{-1} ( (1/M) sum_i y_i x_i ),
    Gamma     = (1 + 1/N) Lambda + (tr(Lambda) / N) I_d,

where M is the evaluation prompt length and N the pretraining prompt length.
The shrinkage through Gamma is what finite-N pretraining costs.  This module
implements that predictor, the matching single-layer attention module with
its exact gradients, a trainer whose recorded epoch losses are non-increasing,
the error / suboptimality / sample-complexity bounds, and the simulation grid
that checks the bounds numerically end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import Rng, map_jobs

COND_LIMIT = 1e12


class IllConditioned(RuntimeError):
    """Gamma (or Lambda) too ill-conditioned for a trustworthy solve."""


class Diverged(RuntimeError):
    """Training loss became non-finite or exploded."""


# ---------------------------------------------------------------------------
# tasks and prompts


@dataclass
class LinearTask:
    """One linear-reward task: y = <weight, x>, features x ~ N(0, feature_cov)."""

    dim: int
    weight: np.ndarray
    feature_cov: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64).reshape(self.dim)
        self.feature_cov = np.asarray(self.feature_cov, dtype=np.float64).reshape(
            self.dim, self.dim)


@dataclass
class LinearTaskFamily:
    """Task distribution with a shared feature covariance and w ~ N(0, I_d)."""

    dim: int
    feature_cov: np.ndarray

    def __post_init__(self):
        self.feature_cov = np.asarray(self.feature_cov, dtype=np.float64).reshape(
            self.dim, self.dim)
        from scipy.linalg import cholesky
        # upper-triangular factor: x = z @ factor gives cov = factor^T factor
        self._factor = cholesky(self.feature_cov)

    def sample_task(self, rng: Rng) -> LinearTask:
        return LinearTask(self.dim, rng.standard_normal(self.dim), self.feature_cov)

    def sample_features(self, shape, rng: Rng) -> np.ndarray:
        z = rng.standard_normal(tuple(shape) + (self.dim,))
        return z @ self._factor

    def sample_batch(self, count: int, prompt_length: int, rng: Rng):
        """``count`` fresh tasks with one prompt each, drawn as weights w,
        prompt features X = Z F (Z of shape (count, M, d)), then query
        features: each prompt's (d+1)^2 Gram matrix C^T C of C = [X, X w]
        (count, d+1, d+1), the query features (count, d) and the queries'
        labels (count,).  The LSA loss and its gradients read a prompt only
        through that Gram matrix, so X is never formed: C = Z P with
        P = F [I, w], and C^T C = P^T (Z^T Z) P."""
        ws = rng.standard_normal((count, self.dim))
        z = rng.standard_normal((count, prompt_length, self.dim))
        qs = self.sample_features((count,), rng)
        p = np.empty((count, self.dim, self.dim + 1))
        p[:, :, :-1] = self._factor
        p[:, :, -1] = ws @ self._factor.T
        gram = p.transpose(0, 2, 1) @ (z.transpose(0, 2, 1) @ z) @ p
        return gram, qs, (qs * ws).sum(axis=1)


@dataclass
class Prompt:
    """M labeled pairs plus one query feature, all from a single task."""

    xs: np.ndarray    # (M, d)
    ys: np.ndarray    # (M,)
    query: np.ndarray  # (d,)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = np.asarray(self.ys, dtype=np.float64).reshape(self.xs.shape[0])
        self.query = np.asarray(self.query, dtype=np.float64).reshape(self.xs.shape[1])

    @property
    def length(self) -> int:
        return self.xs.shape[0]

    def moment(self) -> np.ndarray:
        """(1/M) sum_i y_i x_i."""
        return self.ys @ self.xs / self.length


def sample_prompt(task: LinearTask, length: int, rng: Rng) -> Prompt:
    """Noiseless realizable prompt: labels equal the task's linear reward exactly."""
    from scipy.linalg import cholesky
    factor = cholesky(task.feature_cov)
    xs = rng.standard_normal((length, task.dim)) @ factor
    query = rng.standard_normal(task.dim) @ factor
    return Prompt(xs, xs @ task.weight, query)


# ---------------------------------------------------------------------------
# the converged predictor


def gamma_matrix(feature_cov: np.ndarray, train_length: int) -> np.ndarray:
    """Shrinkage matrix (1 + 1/N) Lambda + (tr(Lambda)/N) I."""
    lam = np.asarray(feature_cov, dtype=np.float64)
    d = lam.shape[0]
    return (1.0 + 1.0 / train_length) * lam + (np.trace(lam) / train_length) * np.eye(d)


@dataclass
class LsaPredictor:
    """The limit predictor of pretrained linear self-attention."""

    gamma_matrix: np.ndarray
    train_length: int

    def __post_init__(self):
        self.gamma_matrix = np.asarray(self.gamma_matrix, dtype=np.float64)
        kappa = covariance_condition(self.gamma_matrix)
        if kappa > COND_LIMIT:
            raise IllConditioned(
                f"gamma_matrix condition number {kappa:.3e} exceeds {COND_LIMIT:.0e}")
        from scipy.linalg import cho_factor
        self._cho = cho_factor(self.gamma_matrix)

    @classmethod
    def from_covariance(cls, feature_cov: np.ndarray, train_length: int) -> "LsaPredictor":
        return cls(gamma_matrix(feature_cov, train_length), train_length)

    def coefficients(self, prompt: Prompt) -> np.ndarray:
        """Gamma^{-1} (1/M) sum_i y_i x_i, via an SPD solve (never an inverse)."""
        from scipy.linalg import cho_solve
        return cho_solve(self._cho, prompt.moment())


def lsa_predict(predictor: LsaPredictor, prompt: Prompt) -> float:
    """Predicted label for the prompt's query point."""
    return float(prompt.query @ predictor.coefficients(prompt))


# ---------------------------------------------------------------------------
# bounds


def covariance_condition(feature_cov: np.ndarray) -> float:
    """Largest over smallest eigenvalue; IllConditioned unless positive definite."""
    eig = np.linalg.eigvalsh(np.asarray(feature_cov, dtype=np.float64))
    if eig[0] <= 0.0:
        raise IllConditioned("matrix is not positive definite")
    return float(eig[-1] / eig[0])


def q_error_bound(dim: int, feature_cov: np.ndarray, prompt_length: int,
                  train_length: int) -> float:
    """Mean-squared prediction error bound: a 1/M term plus a 1/N^2 term."""
    tr = float(np.trace(np.asarray(feature_cov, dtype=np.float64)))
    kappa = covariance_condition(feature_cov)
    d = dim
    return (d + 1) * tr / prompt_length \
        + (1.0 + 2.0 * d + d * d * kappa) * tr / train_length ** 2


def horizon_constant(horizon: int, discount: float) -> float:
    """2 (1 - discount^T) / (1 - discount), with the T-linear limit at discount 1."""
    if discount >= 1.0:
        return 2.0 * horizon
    return 2.0 * (1.0 - discount ** horizon) / (1.0 - discount)


def gap_bound(horizon: int, discount: float, coverage: float,
              q_error: float) -> float:
    """Suboptimality bound: horizon constant times sqrt(coverage * q_error)."""
    if q_error < 0.0 or coverage < 0.0:
        raise ValueError("coverage and q_error must be non-negative")
    return horizon_constant(horizon, discount) * math.sqrt(coverage * q_error)


def sample_complexity(dim: int, feature_cov: np.ndarray, horizon: int,
                      coverage: float, epsilon: float) -> tuple[int, int]:
    """Episode counts (evaluation K_test, pretraining K) for an epsilon gap.

    Splits the undiscounted gap bound evenly across its two error terms with
    prompt lengths M = K_test * T and N = K * T, and returns the ceilings.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    tr = float(np.trace(np.asarray(feature_cov, dtype=np.float64)))
    kappa = covariance_condition(feature_cov)
    d = dim
    k_test = math.ceil(8.0 * coverage * horizon * (d + 1) * tr / epsilon ** 2)
    k = math.ceil(math.sqrt(8.0 * coverage * (1.0 + 2.0 * d + d * d * kappa) * tr)
                  / epsilon)
    return k_test, k


# ---------------------------------------------------------------------------
# single-layer linear self-attention


@dataclass
class LsaLayer:
    """One linear self-attention layer acting on prompt matrices.

    The prompt is laid out as E = [[x_1 .. x_M, x_q], [y_1 .. y_M, 0]] in
    R^{(d+1) x (M+1)}; the layer computes f = E + W_PV E E^T W_KQ E / M and
    reads its prediction off the bottom-right entry of f.  Only the last row
    of W_PV influences that entry, so training touches w_pv[-1] and w_kq.
    """

    dim: int
    w_kq: np.ndarray
    w_pv: np.ndarray

    def __post_init__(self):
        k = self.dim + 1
        self.w_kq = np.asarray(self.w_kq, dtype=np.float64).reshape(k, k).copy()
        self.w_pv = np.asarray(self.w_pv, dtype=np.float64).reshape(k, k).copy()

    @classmethod
    def zeros(cls, dim: int) -> "LsaLayer":
        k = dim + 1
        return cls(dim, np.zeros((k, k)), np.zeros((k, k)))

    @classmethod
    def initialized(cls, dim: int, rng: Rng, scheme: str = "structured",
                    scale: float = 1e-3) -> "LsaLayer":
        """Small-magnitude init. "structured" places mass on the blocks the
        converged solution uses (identity-like key-query over features, a
        single value read-out on the label row); "gaussian" is fully random."""
        k = dim + 1
        if scheme == "structured":
            w_kq = np.zeros((k, k))
            w_kq[:dim, :dim] = np.eye(dim) * scale
            w_pv = np.zeros((k, k))
            w_pv[dim, dim] = scale
            return cls(dim, w_kq, w_pv)
        if scheme == "gaussian":
            return cls(dim, scale * rng.standard_normal((k, k)),
                       scale * rng.standard_normal((k, k)))
        raise ValueError(f"unknown init scheme {scheme!r}")

    def copy(self) -> "LsaLayer":
        return LsaLayer(self.dim, self.w_kq.copy(), self.w_pv.copy())

    def prompt_matrix(self, prompt: Prompt) -> np.ndarray:
        top = np.concatenate([prompt.xs, prompt.query[None, :]], axis=0).T
        bottom = np.concatenate([prompt.ys, [0.0]])[None, :]
        return np.concatenate([top, bottom], axis=0)

    def forward_full(self, prompt: Prompt) -> np.ndarray:
        """The full attention output f = E + W_PV E E^T W_KQ E / M."""
        E = self.prompt_matrix(prompt)
        return E + self.w_pv @ E @ E.T @ self.w_kq @ E / prompt.length

    def predict(self, prompt: Prompt) -> float:
        """Bottom-right entry of the forward pass (the query's label slot).

        The slot holds 0 in E itself, so only the attention term contributes.
        """
        E = self.prompt_matrix(prompt)
        q = E[:, -1]
        h = (E @ E.T) / prompt.length
        return float(self.w_pv[-1] @ h @ self.w_kq @ q)


@dataclass
class TrainResult:
    layer: LsaLayer
    epoch_losses: list[float]
    final_step_size: float
    halvings: int
    stopped_early: bool


def _lsa_batch_grads(u, w_kq, gram, qs, targets, prompt_length):
    """Loss and exact gradients of the mean of 0.5 * (prediction - target)^2.

    gram: (B, d+1, d+1), each prompt's C^T C with C = [X, y] its features and
    labels; qs: (B, d); targets: (B,).  u is the last row of W_PV (the only
    part of W_PV with nonzero gradient).  A prompt matrix E enters only
    through E E^T = C^T C + q q^T, q = [x_q, 0].
    """
    B = len(qs)
    q = np.concatenate([qs, np.zeros((B, 1))], axis=1)      # (B, d+1)

    def attend(v):
        """Per item, E E^T v / M for the item's row of v (B, d+1)."""
        return (np.matmul(gram, v[:, :, None])[:, :, 0]
                + q * (q * v).sum(axis=1)[:, None]) / prompt_length

    hg = attend(q @ w_kq.T)
    pred = hg @ u
    resid = pred - targets
    with np.errstate(over="ignore"):  # overflow surfaces as Diverged upstream
        loss = 0.5 * float(np.mean(resid ** 2))
    grad_u = (resid[:, None] * hg).mean(axis=0)
    grad_w = (resid[:, None] * attend(np.broadcast_to(u, q.shape))).T @ q / B
    return loss, grad_u, grad_w


def train_lsa(layer: LsaLayer, family: LinearTaskFamily, rng: Rng,
              prompt_length: int, steps: int = 8000, step_size: float = 0.08,
              batch_size: int = 256, epoch_size: int | None = None,
              max_halvings: int = 12) -> TrainResult:
    """SGD on fresh task/prompt batches with a non-increasing epoch-loss record.

    Training proceeds in epochs of ``epoch_size`` steps.  An epoch whose mean
    loss exceeds the previous accepted epoch's is rolled back and retried at
    half the step size; after ``max_halvings`` the trainer stops early rather
    than accept an increase, so the recorded curve never goes up.  Non-finite
    or exploding losses raise Diverged.
    """
    layer = layer.copy()
    epoch_size = epoch_size or max(1, steps // 16)
    u = layer.w_pv[-1].copy()
    w_kq = layer.w_kq.copy()

    def run_epoch(u, w_kq, lr, count):
        total = 0.0
        for _ in range(count):
            gram, qs, targets = family.sample_batch(batch_size, prompt_length, rng)
            loss, gu, gw = _lsa_batch_grads(u, w_kq, gram, qs, targets, prompt_length)
            if not math.isfinite(loss):
                raise Diverged("non-finite training loss")
            u = u - lr * gu
            w_kq = w_kq - lr * gw
            total += loss
        return u, w_kq, total / count

    epoch_losses: list[float] = []
    halvings = 0
    stopped = False
    done = 0
    first_loss = None
    while done < steps:
        count = min(epoch_size, steps - done)
        new_u, new_w, mean_loss = run_epoch(u, w_kq, step_size, count)
        if first_loss is None:
            first_loss = max(mean_loss, 1e-300)
        if mean_loss > 1e6 * first_loss:
            raise Diverged(f"training loss exploded ({mean_loss:.3e})")
        if epoch_losses and mean_loss > epoch_losses[-1]:
            if halvings >= max_halvings:
                stopped = True
                break
            halvings += 1
            step_size *= 0.5
            continue  # retry the epoch from the pre-epoch weights
        u, w_kq = new_u, new_w
        epoch_losses.append(mean_loss)
        done += count
    layer.w_pv[-1] = u
    layer.w_kq = w_kq
    return TrainResult(layer, epoch_losses, step_size, halvings, stopped)


def evaluate_lsa(layer: LsaLayer, family: LinearTaskFamily, rng: Rng,
                 prompt_length: int, num_eval: int = 2048) -> dict:
    """Prediction quality on fresh prompts: MSE and RMS relative to target RMS."""
    gram, qs, targets = family.sample_batch(num_eval, prompt_length, rng)
    loss, _, _ = _lsa_batch_grads(layer.w_pv[-1], layer.w_kq, gram, qs, targets, prompt_length)
    mse = 2.0 * loss
    target_ms = float(np.mean(targets ** 2))
    return {"mse": mse, "rel_rms": math.sqrt(mse / target_ms)}


# ---------------------------------------------------------------------------
# simulation grid


@dataclass
class E2Config:
    """Grid for the numerical check of the suboptimality bound.

    Per cell (condition number, pretraining prompt length N, evaluation prompt
    length M): draw tasks, form the converged predictor, score uniform
    candidate actions per period by predicted reward, and compare the realized
    discounted suboptimality against the bound computed from the *empirical*
    prediction error.  ``violated`` flags cells whose mean gap exceeds it.
    """

    dim: int = 10
    num_actions: int = 5
    horizon: int = 10
    discount: float = 0.95
    prompt_lengths: tuple = (10, 20, 50, 100, 200, 500, 1000)
    train_lengths: tuple = (100, 1000, 10000)
    condition_numbers: tuple = (1, 5, 25)
    tasks_per_cell: int = 500
    coverage: float = 1.0
    seed: int = 0


def _log_spaced_cov(dim: int, kappa: float) -> np.ndarray:
    return np.diag(np.geomspace(1.0 / kappa, 1.0, dim))


def _gram_factor(rng: Rng, count: int, prompt_length: int, dim: int) -> np.ndarray:
    """``count`` Bartlett factors R of shape (min(M, d), d): R_ii = sqrt(chi^2(M - i)),
    then N(0, 1) above the diagonal.  R is the QR factor of an M x d standard
    normal Z, so R^T R has the law of Z^T Z, at a cost free of M."""
    k = min(prompt_length, dim)
    rows, cols = np.triu_indices(k, 1, dim)
    diag = np.arange(k)
    factor = np.zeros((count, k, dim))
    factor[:, diag, diag] = np.sqrt(rng.chisquare(prompt_length - diag, (count, k)))
    factor[:, rows, cols] = rng.standard_normal((count, rows.size))
    return factor


def _projection_factor(sd: np.ndarray, w: np.ndarray, coef: np.ndarray):
    """Per task, the lower Cholesky factor [[a, 0], [b, c]] of the covariance
    of (phi . w, phi . coef) with phi ~ N(0, diag(sd^2)): a = |sd w|,
    b = (sd w).(sd coef) / a and c = sqrt(|sd coef|^2 - b^2), clamped at 0
    where coef is parallel to w.  A task with a = 0 gets b = 0 and
    c = |sd coef|, so no entry is NaN."""
    sw, sc = sd * w, sd * coef
    a = np.sqrt(np.einsum("nd,nd->n", sw, sw))
    b = np.divide(np.einsum("nd,nd->n", sw, sc), a, out=np.zeros_like(a), where=a > 0.0)
    c = np.sqrt(np.maximum(np.einsum("nd,nd->n", sc, sc) - b * b, 0.0))
    return a, b, c


def _e2_cell(args) -> dict:
    """One grid cell.  The prompts enter only through X^T X, which is drawn
    through its Bartlett factor rather than from M x d features.  A candidate
    phi ~ N(0, Lambda) enters only through q* = phi . w and qhat = phi . coef,
    which are drawn as that bivariate normal pair from two standard normals
    per candidate (``_projection_factor``) rather than from d features."""
    cfg, kappa, train_length, prompt_length, stream = args
    rng = Rng(cfg.seed, stream)
    d, T, A, n = cfg.dim, cfg.horizon, cfg.num_actions, cfg.tasks_per_cell
    lam = _log_spaced_cov(d, kappa)
    sd = np.sqrt(np.diag(lam))
    from scipy.linalg import cho_factor, cho_solve
    cho = cho_factor(gamma_matrix(lam, train_length))
    w = rng.standard_normal((n, d))
    r = _gram_factor(rng, n, prompt_length, d)
    rv = np.einsum("nkd,nd->nk", r, sd * w)
    moment = sd * np.einsum("nkd,nk->nd", r, rv) / prompt_length
    coef = cho_solve(cho, moment.T).T
    # per period, the two projections of each action's candidate features
    a, b, c = (x[:, None, None] for x in _projection_factor(sd, w, coef))
    z1, z2 = rng.standard_normal((2, n, T, A))
    qstar = a * z1
    qhat = b * z1 + c * z2
    eps = np.mean((qhat - qstar) ** 2, axis=(1, 2))
    pick = lambda q, a: np.take_along_axis(q, a[..., None], axis=2)[..., 0]
    disc = cfg.discount ** np.arange(1, T + 1)
    gap = ((pick(qstar, qstar.argmax(axis=2)) - pick(qstar, qhat.argmax(axis=2)))
           * disc).sum(axis=1)
    mean_gap = float(gap.mean())
    mean_eps = float(eps.mean())
    bound = gap_bound(T, cfg.discount, cfg.coverage, mean_eps)
    return {
        "kappa": kappa,
        "N": train_length,
        "M": prompt_length,
        "mean_gap": mean_gap,
        "gap_stderr": float(gap.std(ddof=1) / math.sqrt(n)),
        "mean_eps_q": mean_eps,
        "eps_stderr": float(eps.std(ddof=1) / math.sqrt(n)),
        "bound": bound,
        "violated": bool(mean_gap > bound),
    }


E2_CSV_COLUMNS = ("kappa", "N", "M", "mean_gap", "gap_stderr", "mean_eps_q",
                  "bound", "violated")


def run_e2_simulation(config: E2Config | None = None, jobs: int = 1) -> list[dict]:
    """All grid cells, sorted by (kappa, N, M); reproducible for a fixed seed.

    Cell generators are derived by stream splitting from (seed, cell index),
    so results do not depend on scheduling; means use numpy's pairwise
    summation, keeping parallel and serial runs identical.
    """
    cfg = config or E2Config()
    root = Rng(cfg.seed)
    cells = product(cfg.condition_numbers, cfg.train_lengths, cfg.prompt_lengths)
    tasks = [(cfg, kappa, N, M, root.split(idx).stream)
             for idx, (kappa, N, M) in enumerate(cells)]
    return map_jobs(_e2_cell, tasks, jobs)
