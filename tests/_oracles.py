"""Independent reference computations used by the tests.

Everything here is deliberately written from first principles (quadrature,
quadratic-formula inversions, explicit per-row RNG reconstruction) so
that test expectations never come from the code under test.
"""

from math import expm1, sqrt

import numpy as np
from scipy import integrate

from steptuner.rng import PURPOSE_PROJ, PURPOSE_TUNE, derive_rng


def log_alpha_quad(schedule, t: float) -> float:
    """-1/2 int_0^t beta(s) ds by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda s: schedule.beta_min
        + (schedule.beta_max - schedule.beta_min) * s / schedule.T,
        0.0,
        t,
    )
    return -0.5 * val


def t_of_log_alpha(schedule, la: float) -> float:
    """Invert the closed-form log alpha by the quadratic formula."""
    a = (schedule.beta_max - schedule.beta_min) / (2.0 * schedule.T)
    b = schedule.beta_min
    c = 2.0 * la
    return (-b + sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def t_of_sigma(schedule, sigma: float) -> float:
    return t_of_log_alpha(schedule, 0.5 * np.log1p(-sigma * sigma))


def t_of_alpha(schedule, alpha: float) -> float:
    return t_of_log_alpha(schedule, np.log(alpha))


def step_coefficient(schedule, t_from: float, t_to: float, sigma_tau: float) -> float:
    """Multiplier of x for one deterministic step on a linear model.

    With the ideal prediction eps(x, tau) = sigma_tau * x the step is
    x' = (A - B * sigma_tau) * x where A and B are the step coefficients.
    """
    a_f, s_f = schedule.alpha_sigma(t_from)
    a_t, s_t = schedule.alpha_sigma(t_to)
    return a_t / a_f - (a_t * s_f / a_f - s_t) * sigma_tau


def dense_multistep_product(schedule, K: int, t_min: float = 0.0) -> float:
    """Multiplier of x_T after the third-order dense reference rollout.

    Replays, on the quadratic K-step grid t_min + (T - t_min) (j/K)^2, the
    multistep exponential integrator in log-SNR: the baseline step less
    sigma_to * [(expm1(h) - h)(d1 + h1 d2) + 2 (expm1(h) - h - h^2/2) d2],
    with d1 = (eps - eps_prev)/h1 and d2 = (d1 - d1_prev)/(h1 + h2) from the
    last three predictions, first order at the first step and at any step
    ending below t_eps and second order (d2 = 0) at the second. With the
    ideal prediction eps(x, t) = sigma_t * x every quantity is the state's
    scalar multiple, so the rollout collapses to this scalar recurrence.
    """
    pts = t_min + (schedule.T - t_min) * (np.arange(K + 1) / K) ** 2
    m = 1.0
    eps_prev = d1_prev = h1 = h2 = None
    for j in range(K, 0, -1):
        a_f, s_f = schedule.alpha_sigma(pts[j])
        a_t, s_t = schedule.alpha_sigma(pts[j - 1])
        eps = s_f * m
        m_next = step_coefficient(schedule, pts[j], pts[j - 1], s_f) * m
        if pts[j - 1] >= schedule.t_eps:
            h = np.log(a_t / s_t) - np.log(a_f / s_f)
            if eps_prev is not None:
                d1 = (eps - eps_prev) / h1
                d2 = 0.0 if d1_prev is None else (d1 - d1_prev) / (h1 + h2)
                phi2 = np.expm1(h) - h
                m_next -= s_t * (phi2 * (d1 + h1 * d2) + 2.0 * (phi2 - h * h / 2.0) * d2)
                d1_prev = d1
            eps_prev, h1, h2 = eps, h, h1
        m = m_next
    return m


def dense_flow_per_step(x, model, points, record=None):
    """The dense reference rollout with one ``model.epsilon`` call per step.

    The same multistep log-SNR integrator as ``analysis.dense_flow``,
    written as a plain loop over (n, D) states on the decreasing points p_0
    > ... > p_m: step k evaluates ``model.epsilon`` at p_{k-1}, and where
    both ends have a finite log-SNR the baseline step is followed by the
    second-order correction -sigma_to (expm1(h) - h) d1 and, from the third
    such step, the third-order one
    -sigma_to (h1 (expm1(h) - h) + 2 (expm1(h) - h - h^2/2)) d2, with
    d1 = (eps - eps_prev)/h1 and d2 = (d1 - d1_prev)/(h1 + h2). The states
    at the indices in record (all when None) are kept, in walking order.
    """
    sched = model.schedule
    pts = np.asarray(points, dtype=float)
    m = len(pts) - 1
    keep = np.full(m + 1, True) if record is None else np.isin(np.arange(m + 1), record)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    states = [x] if keep[0] else []
    alpha, sigma = sched.alpha_sigma(pts)
    second = pts >= sched.t_eps
    lam = np.zeros_like(pts)
    lam[second] = sched.log_snr(pts[second])
    eps_prev = d1_prev = h1 = h2 = None
    for k in range(1, m + 1):
        eps = model.epsilon(x, pts[k - 1])
        a_f, s_f, a_t, s_t = alpha[k - 1], sigma[k - 1], alpha[k], sigma[k]
        x = (a_t / a_f) * x - (a_t * s_f / a_f - s_t) * eps
        if second[k]:
            h = lam[k] - lam[k - 1]
            if eps_prev is not None:
                phi2 = expm1(h) - h
                d1 = (eps - eps_prev) / h1
                if d1_prev is not None:
                    x -= (s_t * (h1 * phi2 + 2.0 * (phi2 - 0.5 * h * h)) / (h1 + h2)) * (d1 - d1_prev)
                x -= (s_t * phi2) * d1
                d1_prev = d1
            eps_prev, h1, h2 = eps, h, h1
        if keep[k]:
            states.append(x)
    return np.array(states).reshape((len(states),) + x.shape)


def gaussian_flow(schedule, mu, s: float, x, t_from: float, t_to: float):
    """The exact probability-flow map of one Gaussian N(mu, s^2 I).

    Its marginal at t is N(alpha_t mu, r_t^2 I) with r_t^2 = alpha_t^2 s^2
    + sigma_t^2, and the flow moves every state affinely:
    x_to = alpha_to mu + (r_to / r_from) (x - alpha_from mu).
    """
    (a_f, a_t), (s_f, s_t) = schedule.alpha_sigma(np.array([t_from, t_to]))
    r_f, r_t = sqrt(a_f * a_f * s * s + s_f * s_f), sqrt(a_t * a_t * s * s + s_t * s_t)
    mu = np.asarray(mu, dtype=float)
    return a_t * mu + (r_t / r_f) * (np.asarray(x, dtype=float) - a_f * mu)


def reconstruct_tune_batch(model, batch: int, seed: int, step: int):
    """Replay the documented block seed contract for a tuning batch.

    Rows come in blocks of 256; block b derives from (seed, tune-purpose,
    step, b) and draws, in frozen order, 256 uniforms (row r's component is
    the number of weight-CDF entries at or below uniform r, capped at k - 1)
    and then 256 * 2 * D normals: row r's data noise, then its eps.
    """
    D = model.dim
    k = len(model.weights)
    cdf = np.cumsum(model.weights)
    x0 = np.empty((batch, D))
    eps = np.empty((batch, D))
    for j in range(batch):
        b, r = divmod(j, 256)
        if r == 0:
            rng = derive_rng(seed, PURPOSE_TUNE, step, b)
            u = rng.random(256)
            z = rng.standard_normal(256 * 2 * D)
        comp = min(int(np.sum(cdf <= u[r])), k - 1)
        row = z[2 * D * r : 2 * D * (r + 1)]
        x0[j] = model.means[comp] + model.scales[comp] * row[:D]
        eps[j] = row[D:]
    return x0, eps


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    g = np.empty_like(x, dtype=float)
    for d in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[d] = h
        g[d] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def mixture_posterior(model, x: np.ndarray, t: float) -> dict:
    """Direct mixture formulas from the (n, k, D) differences x - alpha mu_k.

    Returns epsilon, score, log_density and responsibilities at the rows of
    x, each evaluated with the explicit per-component difference tensor, and
    the (n, k) shifted log weights log(w_k N_k) - max_k log(w_k N_k).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    alpha, sigma = model.schedule.alpha_sigma(t)
    v = alpha * alpha * model.scales**2 + sigma * sigma
    diff = x[:, None, :] - alpha * model.means[None, :, :]
    logn = (
        -0.5 * np.sum(diff * diff, axis=2) / v
        - 0.5 * model.dim * np.log(2.0 * np.pi * v)
        + np.log(model.weights)
    )
    m = logn.max(axis=1, keepdims=True)
    shifted = logn - m
    g = np.exp(shifted)
    total = g.sum(axis=1, keepdims=True)
    g = g / total
    score = np.einsum("nk,nkd->nd", g / v, -diff)
    return {
        "epsilon": -sigma * score,
        "score": score,
        "log_density": (m + np.log(total))[:, 0],
        "responsibilities": g,
        "shifted_log_weights": shifted,
    }


def error_bound_rows(coarse, reference, traj, model) -> list:
    """Rows of the pathwise error-bound report from their defining formulas.

    coarse is the few-step rollout and reference the dense one, both from
    the same x_T. Row i (steps 1..K) holds:
      lhs, lhs_stderr - mean and standard error over paths of the distance
        from the coarse state at t_{i-1} to the reference state at t_{i-1};
      loss_sum - over steps n = i..K, the square root of the mean of
        ||eps(x_{n-1}, max(t_{n-1}, t_eps)) - eps(x_n, t_n)||^2 along the
        coarse rollout;
      continuity_sum - over l = i..K, the mean of
        ||eps(r_l, t_l) - eps(r_{l-1}, t_{l-1})|| along the reference;
      for the unit Gaussian, C = 1 / sigma_{t_1}, the bound
        C * (loss_sum + continuity_sum) and whether lhs is within 3
        standard errors below it.
    """
    sched = model.schedule
    pts = traj.points
    K = traj.K
    n = coarse.states.shape[1]

    def coarse_at(i):
        return coarse.states[K - i]

    def ref_at(t):
        [j] = np.flatnonzero(reference.trajectory_points == t)
        return reference.states[len(reference.trajectory_points) - 1 - j]

    root_losses, continuity = {}, {}
    for i in range(K, 0, -1):
        d = model.epsilon(coarse_at(i - 1), max(pts[i - 1], sched.t_eps)) - model.epsilon(
            coarse_at(i), pts[i]
        )
        root_losses[i] = sqrt(float(np.mean(np.sum(d * d, axis=1))))
        d = model.epsilon(ref_at(pts[i]), pts[i]) - model.epsilon(
            ref_at(pts[i - 1]), pts[i - 1]
        )
        continuity[i] = float(np.mean(np.linalg.norm(d, axis=1)))
    C = None
    if len(model.weights) == 1 and np.all(model.means == 0) and np.all(model.scales == 1):
        C = 1.0 / sched.alpha_sigma(pts[1])[1]
    rows = []
    for i in range(1, K + 1):
        g = np.linalg.norm(coarse_at(i - 1) - ref_at(pts[i - 1]), axis=1)
        row = {
            "step": i,
            "lhs": float(g.mean()),
            "lhs_stderr": float(g.std(ddof=1) / sqrt(n)) if n > 1 else 0.0,
            "loss_sum": sum(root_losses[m] for m in range(i, K + 1)),
            "continuity_sum": sum(continuity[m] for m in range(i, K + 1)),
            "lipschitz_C": C,
        }
        if C is not None:
            row["bound"] = C * (row["loss_sum"] + row["continuity_sum"])
            row["holds"] = row["lhs"] <= row["bound"] + 3.0 * row["lhs_stderr"]
        rows.append(row)
    return rows


def sliced_wasserstein_rows(a: np.ndarray, b: np.ndarray, n_projections: int, seed: int) -> float:
    """Sliced Wasserstein distance with (rows, directions) projections.

    Projects both sets onto 16 unit directions at a time as d @ x.T and
    holds the result as (rows, directions) (a matmul's last bits can depend
    on its shape and orientation, so the chunks and the product match the
    library's), sorts each column, reads the inverted-CDF quantiles at the levels
    (i + 1/2)/m, m the larger set size, by index, and averages the root
    mean squared quantile differences over the directions. The sums over
    the levels run row by row down axis 0, so the value is defined to the
    last bit.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    dirs = derive_rng(seed, PURPOSE_PROJ, 0, 0).standard_normal((n_projections, b.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    m = max(len(a), len(b))
    q = (np.arange(m) + 0.5) / m
    ia = np.clip(np.ceil(q * len(a)).astype(int) - 1, 0, len(a) - 1)
    ib = np.clip(np.ceil(q * len(b)).astype(int) - 1, 0, len(b) - 1)
    w = np.empty(n_projections)
    for c in range(0, n_projections, 16):
        d = dirs[c : c + 16]
        qa = np.sort(np.ascontiguousarray((d @ a.T).T), axis=0)[ia]
        qb = np.sort(np.ascontiguousarray((d @ b.T).T), axis=0)[ib]
        w[c : c + len(d)] = np.sqrt(np.mean((qa - qb) ** 2, axis=0))
    return float(w.mean())
