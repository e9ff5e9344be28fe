"""Independent reference computations used by the tests.

Everything here is deliberately written from first principles (quadrature,
quadratic-formula inversions, explicit per-row RNG reconstruction) so
that test expectations never come from the code under test. The one
exception is ``dense_flow_per_step``, which takes the library's dense
weights so as to match its rollout bit for bit; the weights are checked
on their own against ``multistep_moments``.
"""

from decimal import Decimal, localcontext
from math import factorial, sqrt

import numpy as np
from scipy import integrate

from steptuner.analysis import _dense_weights
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


def multistep_moments(h: float, q: int, in_lam: bool) -> np.ndarray:
    """The integrals a dense step's weights must match on u^0 .. u^(q-1).

    In log-SNR, int_0^h e^(h - u) u^k du = k! (e^h - sum_{i <= k} h^i / i!);
    in rho, int_0^h u^k du = h^(k+1) / (k+1), entered with the sign of the
    update x <- ratio x - sum_i w_i eps_i. The log-SNR closed form is taken
    at 40 digits, where its cancellation costs nothing.
    """
    if not in_lam:
        return np.array([-(h ** (k + 1)) / (k + 1) for k in range(q)])
    with localcontext() as ctx:
        ctx.prec = 40
        H = Decimal(h)
        e, out, term, partial = H.exp(), [], Decimal(1), Decimal(0)
        for k in range(q):
            partial += term
            out.append(float(factorial(k) * (e - partial)))
            term = term * H / (k + 1)
    return np.array(out)


def multistep_nodes(schedule, pts, j: int) -> tuple:
    """(u, h, c, in_lam) of dense step j, from p_{j-1} down to p_j.

    The step uses the q = min(4, j) latest predictions, at the nodes u_i =
    z(p_{j-1-i}) - z(p_{j-1}), and integrates to h = z(p_j) - z(p_{j-1}),
    with z = log-SNR where p_j >= t_eps and c = sigma_j, and z = sigma /
    alpha with c = alpha_j below.
    """
    pts = np.asarray(pts, dtype=float)
    q, in_lam = min(4, j), bool(pts[j] >= schedule.t_eps)
    idx = [j] + [j - 1 - i for i in range(q)]  # the end, then the nodes
    alpha, sigma = schedule.alpha_sigma(pts[idx])
    z = schedule.log_snr(pts[idx]) if in_lam else sigma / alpha
    return z[1:] - z[1], z[0] - z[1], sigma[0] if in_lam else alpha[0], in_lam


def multistep_weights(schedule, pts) -> list:
    """Each dense step's weights, solved from its moment conditions.

    The weights w of step j solve sum_i w_i u_i^k = c ``multistep_moments``
    for k < q, at the nodes of ``multistep_nodes``: a Vandermonde solve,
    independent of how the library builds them.
    """
    rows = []
    for j in range(1, len(pts)):
        u, h, c, in_lam = multistep_nodes(schedule, pts, j)
        V = np.vander(u, len(u), increasing=True).T
        rows.append(c * np.linalg.solve(V, multistep_moments(h, len(u), in_lam)))
    return rows


def dense_multistep_product(schedule, K: int, t_min: float = 0.0) -> float:
    """Multiplier of x_T after the fourth-order dense reference rollout.

    Replays, on the quadratic K-step grid t_min + (T - t_min) (j/K)^2, each
    step as x <- (alpha_to / alpha_from) x - sum_i w_i eps_{j-1-i}, newest
    prediction first, with the weights of ``multistep_weights``. With the
    ideal prediction eps(x, t) = sigma_t * x every state is x_T's scalar
    multiple, so the rollout collapses to this scalar recurrence.
    """
    pts = t_min + (schedule.T - t_min) * (np.arange(K, -1, -1) / K) ** 2
    alpha, sigma = schedule.alpha_sigma(pts)
    m, eps = 1.0, []
    for j, w in enumerate(multistep_weights(schedule, pts), start=1):
        eps.append(sigma[j - 1] * m)
        m = (alpha[j] / alpha[j - 1]) * m
        for i, w_i in enumerate(w):
            m -= w_i * eps[j - 1 - i]
    return m


def dense_flow_per_step(x, model, points, record=None):
    """The dense reference rollout with one ``model.epsilon`` call per step.

    The update of ``analysis.dense_flow``, written as a plain loop over
    (n, D) states on the decreasing points p_0 > ... > p_m: step j
    evaluates ``model.epsilon`` at p_{j-1}, multiplies the state by
    alpha_j / alpha_{j-1}, then subtracts w_i eps_{j-1-i} for i < min(4, j),
    newest first, with w = W[j - 1]. The weights are the library's
    ``_dense_weights``, so that the states agree bit for bit; the weights
    themselves are checked against ``multistep_moments``. The states at the
    indices in record (all when None) are kept, in walking order.
    """
    pts = np.asarray(points, dtype=float)
    m = len(pts) - 1
    keep = np.full(m + 1, True) if record is None else np.isin(np.arange(m + 1), record)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    states = [x] if keep[0] else []
    ratio, W = _dense_weights(model, pts)
    eps = []
    for j in range(1, m + 1):
        eps.append(model.epsilon(x, pts[j - 1]))
        x = ratio[j - 1] * x
        for i in range(min(4, j)):
            x = x - W[j - 1, i] * eps[j - 1 - i]
        if keep[j]:
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
