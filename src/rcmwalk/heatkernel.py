"""Return probabilities: exact uniformization, Monte Carlo, and exponent fits.

The continuous-time kernel is evaluated through the jump chain,
``p(t) = e^{-t} sum_k t^k/k! P^k(0,0)``, with the Poisson series truncated
by a Chernoff bound and the weights computed in log space.  One sparse
propagation of the chain serves every time point of a curve, and also
yields the discrete-time kernel and the surviving-mass monitor for the
Dirichlet truncation error.  The same engine uniformizes the penalized
generator ``I - P + lam diag(phi)``, whose surviving mass is the
Feynman-Kac value ``E[exp(-lam A(t)); t < tau]``, and the time-changed
walk's chain on the strong cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.special import gammaln, stdtrit

from .errors import ValidationError
from .lattice import Environment
from .percolation import STRONG_LABEL, ClusterDecomposition
from .walk import BoxChain, effective_conductance_matrix, ensemble_walk, transition_matrix


def poisson_truncation_k(rate: float, tol: float) -> int:
    """Smallest Chernoff-certified K with ``P(Poisson(rate) > K) < tol``."""
    if rate < 0:
        raise ValidationError("rate must be >= 0")
    if not tol > 0:
        raise ValidationError("tolerance must be positive")
    if rate == 0:
        return 0
    log_tol = math.log(tol)
    k = max(1, int(math.ceil(rate)))
    # log P(X >= k) <= -rate + k (1 + log(rate/k)) for k > rate
    while -rate + k * (1.0 + math.log(rate / k)) > log_tol:
        k = max(k + 1, int(k * 1.02))
    return k


def poisson_weights(rate: float, k_max: int) -> np.ndarray:
    """``e^{-rate} rate^k / k!`` for k = 0..k_max, overflow-safe."""
    if rate == 0:
        w = np.zeros(k_max + 1)
        w[0] = 1.0
        return w
    ks = np.arange(k_max + 1, dtype=float)
    return np.exp(-rate + ks * math.log(rate) - gammaln(ks + 1))


def box_radius_for_horizon(t_max: float, c: float = 2.0) -> int:
    """Box radius coupled to the horizon: ``ceil(c sqrt(t) log t)``.

    Keeps the Dirichlet truncation error far below both solver tolerance
    and Monte Carlo noise for the horizons used here.
    """
    if t_max <= 0:
        raise ValidationError("horizon must be positive")
    return max(2, int(math.ceil(c * math.sqrt(t_max) * max(math.log(t_max), 1.0))))


def default_time_grid(t_min: float, t_max: float, per_decade: int = 12) -> np.ndarray:
    """Geometric time grid with ``per_decade`` points per decade."""
    if not 0 < t_min < t_max:
        raise ValidationError("need 0 < t_min < t_max")
    n = max(2, int(math.ceil(per_decade * math.log10(t_max / t_min))) + 1)
    return np.geomspace(t_min, t_max, n)


def _time_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if np.any(t < 0) or np.any(np.diff(t) <= 0):
        raise ValidationError("t grid must be nonnegative and increasing")
    return t


class UniformizationCache:
    """Shared jump-chain propagation for all time points of one box.

    Uniformizes ``-G = I - P + lam diag(phi)`` at rate ``1 + lam`` through
    the substochastic matrix ``M = (P + lam diag(1 - phi)) / (1 + lam)``;
    ``phi`` is indexed by environment site, and ``None`` means every site
    counts (``ensemble_walk``'s convention).  ``a_k = M^k(0,0)`` doubles as
    the discrete-time return probability and as the coefficient of the
    Poisson mixture; ``mass_k`` is the surviving mass after k jumps
    (identically 1 for the free-boundary chain without killing), so
    ``survival`` is ``E[exp(-lam A(t)); t < tau]``.  ``exited_k``, the mass
    carried over the rim within k jumps, keeps the digits that
    ``1 - survival`` cancels.  ``chain`` reuses an assembled jump chain of
    ``env`` instead of building one.
    """

    def __init__(
        self,
        env: Environment,
        box_radius: int | None = None,
        killed: bool = True,
        lam: float = 0.0,
        phi: np.ndarray | None = None,
        chain: BoxChain | None = None,
    ):
        if not lam >= 0:
            raise ValidationError("killing rate must be >= 0")
        self.chain: BoxChain = transition_matrix(env, box_radius, killed) if chain is None else chain
        self.lam = float(lam)
        M = self.chain.P
        if lam > 0:
            if phi is not None:
                M = M + diags(lam * (1.0 - phi[self.chain.sites]))
            M = M / (1.0 + lam)
        self._prop = M.T.tocsr()
        self._rim = np.flatnonzero(self.chain.exit)
        self._rim_exit = self.chain.exit[self._rim] / (1.0 + self.lam)
        vec = np.zeros(M.shape[0])
        vec[self.chain.origin] = 1.0
        self._vec = vec
        self.a = [1.0]
        self.mass = [1.0]
        self.exited = [0.0]

    def ensure(self, k_max: int) -> None:
        while len(self.a) <= k_max:
            self.exited.append(self.exited[-1] + float(self._vec[self._rim] @ self._rim_exit))
            self._vec = self._prop @ self._vec
            self.a.append(float(self._vec[self.chain.origin]))
            self.mass.append(float(self._vec.sum()))

    def _weights(self, t: float, tol: float) -> np.ndarray:
        """Poisson weights at rate ``(1 + lam) t``, truncated within ``tol``."""
        if t < 0:
            raise ValidationError("time must be >= 0")
        rate = (1.0 + self.lam) * t
        return poisson_weights(rate, poisson_truncation_k(rate, tol))

    def _mixture(self, seq: list, t: float, tol: float) -> float:
        """Poisson mixture at time ``t`` of a per-jump sequence (``a``, ``mass`` or ``exited``)."""
        w = self._weights(t, tol)
        self.ensure(len(w) - 1)
        return float(w @ np.asarray(seq[: len(w)]))

    def return_prob(self, t: float, tol: float = 1e-12) -> float:
        return self._mixture(self.a, t, tol)

    def survival(self, t: float, tol: float = 1e-12) -> float:
        """P(walk still alive at time t), weighted by ``exp(-lam A(t))``."""
        return self._mixture(self.mass, t, tol)

    def exit_prob(self, t: float, tol: float = 1e-12) -> float:
        """P(walk has left the box by time t), weighted by ``exp(-lam A(tau))``."""
        return self._mixture(self.exited, t, tol)

    def discrete(self, n: int) -> float:
        """Discrete-time return probability ``M^n(0,0)``."""
        if n < 0:
            raise ValidationError("step count must be >= 0")
        self.ensure(n)
        return self.a[n]

    def distribution(self, t: float, tol: float = 1e-12) -> np.ndarray:
        """Full law ``P(X_t = y)`` over the box sites (fresh propagation)."""
        w = self._weights(t, tol)
        vec = np.zeros(self._prop.shape[0])
        vec[self.chain.origin] = 1.0
        out = w[0] * vec
        for k in range(1, len(w)):
            vec = self._prop @ vec
            out += w[k] * vec
        return out


@dataclass
class ReturnProbabilityCurve:
    """Return probabilities on a time grid with provenance.

    ``stderr`` is zero for exact methods.  ``survival`` monitors the
    Dirichlet truncation (total mass still alive at each time).
    """

    t: np.ndarray
    p: np.ndarray
    stderr: np.ndarray
    method: str  # "exact-uniformization" | "monte-carlo" | "discrete"
    d: int
    N: int  # operator box radius
    gamma: float
    seed: int
    survival: np.ndarray | None = None


def return_prob_exact(
    env: Environment,
    t: float,
    tol: float = 1e-12,
    box_radius: int | None = None,
    cache: UniformizationCache | None = None,
) -> float:
    """``P(X_t = 0)`` for the walk killed on leaving ``B_n``, error <= tol."""
    if cache is None:
        cache = UniformizationCache(env, box_radius)
    return cache.return_prob(t, tol)


def return_prob_curve_exact(
    env: Environment,
    t_grid,
    tol: float = 1e-12,
    box_radius: int | None = None,
) -> ReturnProbabilityCurve:
    """Exact return-probability curve; one propagation serves all times."""
    t = _time_grid(t_grid)
    cache = UniformizationCache(env, box_radius)
    p = np.array([cache.return_prob(tj, tol) for tj in t])
    surv = np.array([cache.survival(tj, tol) for tj in t])
    return ReturnProbabilityCurve(
        t=t,
        p=p,
        stderr=np.zeros_like(p),
        method="exact-uniformization",
        d=env.geometry.d,
        N=cache.chain.box_radius,
        gamma=env.gamma,
        seed=env.seed,
        survival=surv,
    )


def return_prob_mc(
    env: Environment,
    t_grid,
    n_paths: int,
    rng: np.random.Generator,
    box_radius: int | None = None,
) -> ReturnProbabilityCurve:
    """Monte Carlo return-probability curve with binomial standard errors.

    All grid points share the same paths (common random numbers); the walk
    is killed on leaving the same box as the exact computation.
    """
    t = _time_grid(t_grid)
    if n_paths < 1:
        raise ValidationError("need at least one path")
    kill = env.geometry.N - 1 if box_radius is None else int(box_radius)
    positive = t[t > 0]
    origin = env.geometry.origin
    p = np.empty(len(t))
    se = np.empty(len(t))
    if len(positive):
        res = ensemble_walk(
            env,
            origin,
            n_paths,
            float(positive.max()),
            rng,
            kill_radius=kill,
            real_grid=positive,
        )
        hits = (res.site_at == origin).mean(axis=0)
    pos_index = 0
    for j, tj in enumerate(t):
        if tj == 0:
            p[j], se[j] = 1.0, 0.0
        else:
            p[j] = hits[pos_index]
            se[j] = math.sqrt(max(p[j] * (1 - p[j]), 0.0) / n_paths)
            pos_index += 1
    return ReturnProbabilityCurve(
        t=t,
        p=p,
        stderr=se,
        method="monte-carlo",
        d=env.geometry.d,
        N=kill,
        gamma=env.gamma,
        seed=env.seed,
    )


def discrete_return_prob(
    env: Environment,
    n: int,
    box_radius: int | None = None,
    cache: UniformizationCache | None = None,
) -> float:
    """Discrete-time return probability ``P^n(0,0)`` for even ``n``.

    Odd step counts are rejected: the lattice is bipartite, so odd-step
    returns vanish identically and carry no information.
    """
    if n < 0 or n % 2 != 0:
        raise ValidationError(f"step count must be even and >= 0, got {n}")
    if cache is None:
        cache = UniformizationCache(env, box_radius)
    return cache.discrete(n)


def poissonization_lower_bound(cache: UniformizationCache, t: float) -> tuple[float, float]:
    """Exact pieces of the discrete-time lower bound at ``n = floor(t)``.

    Returns ``(P^{2n}(0,0), P(Poisson(t) <= 2n and even))`` whose product
    is a true lower bound for ``p(t)``: the continuous-time kernel mixes
    only even-step returns (the lattice is bipartite, odd-step returns
    vanish), and the even-step sequence is nonincreasing.  The full Poisson
    CDF in place of the even part bounds nothing: it is violated even on
    the all-ones lattice.
    """
    if cache.lam:
        raise ValidationError("the discrete-time bound needs the unpenalized chain")
    n = int(math.floor(t))
    disc = cache.discrete(2 * n)
    return disc, float(poisson_weights(t, 2 * n)[::2].sum())


@dataclass
class HeatKernelHatCurve:
    """The time-changed kernel's envelope ``sup_y P(Xhat_t = y)`` on a time grid."""

    t: np.ndarray
    sup: np.ndarray
    rescaled: np.ndarray  # t^{d/2} * sup


def heat_kernel_hat(env: Environment, decomp: ClusterDecomposition, x: int, t_grid) -> HeatKernelHatCurve:
    """Exact ``sup_y P(Xhat_t = y)`` of the time-changed walk from ``x``, with its rescaling.

    The time-changed walk is the rate-1 chain on the strong cluster with jump
    matrix ``diag(pi)^{-1} M``, ``M`` the effective-conductance matrix (a jump
    may return to its start through a hole); its law at each ``t`` comes from
    the uniformization engine on that chain, which has no exit.
    """
    if decomp.labels[x] != STRONG_LABEL:
        raise ValidationError(f"site {x} is not on the strong cluster")
    t = _time_grid(t_grid)
    M = effective_conductance_matrix(env, decomp)
    sites = np.flatnonzero(decomp.in_cluster)
    local = np.cumsum(decomp.in_cluster) - 1  # position among the cluster sites
    m = len(sites)
    P = coo_matrix((M.data / env.pi_all[M.row], (local[M.row], local[M.col])), shape=(m, m)).tocsr()
    chain = BoxChain(P, sites, env.pi_all[sites], np.zeros(m), int(local[x]), env.geometry.N, killed=False)
    engine = UniformizationCache(env, chain=chain)
    sup = np.array([engine.distribution(tj).max() for tj in t])
    return HeatKernelHatCurve(t=t, sup=sup, rescaled=t ** (env.geometry.d / 2.0) * sup)


@dataclass
class ExponentFit:
    """Log-log slope of a return-probability curve over a window."""

    slope: float
    intercept: float
    ci_low: float
    ci_high: float
    stderr: float
    t_min: float
    t_max: float
    n_points: int


def fit_exponent(curve: ReturnProbabilityCurve, window: tuple[float, float], confidence: float = 0.95) -> ExponentFit:
    """Weighted least-squares slope of ``log p`` against ``log t``.

    Exact curves are fitted unweighted; Monte Carlo curves use inverse
    variances of ``log p``.  The confidence interval comes from the
    residual variance with a Student-t quantile.
    """
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValidationError("window must satisfy t_min < t_max")
    mask = (curve.t >= t_lo) & (curve.t <= t_hi)
    if mask.sum() < 6:
        raise ValidationError(f"need at least 6 grid points in the window, found {int(mask.sum())}")
    t = curve.t[mask]
    p = curve.p[mask]
    if np.any(p <= 0):
        raise ValidationError("window contains nonpositive probabilities")
    y = np.log(p)
    x = np.log(t)
    se_p = curve.stderr[mask]
    if np.all(se_p == 0):
        wts = np.ones_like(x)
    else:
        sigma = se_p / p
        floor = sigma[sigma > 0].min()
        wts = 1.0 / np.maximum(sigma, floor) ** 2

    X = np.column_stack([np.ones_like(x), x])
    XtW = X.T * wts
    beta = np.linalg.solve(XtW @ X, XtW @ y)
    resid = y - X @ beta
    dof = len(x) - 2
    s2 = float(resid @ (wts * resid)) / dof
    cov = s2 * np.linalg.inv(XtW @ X)
    se = math.sqrt(max(cov[1, 1], 0.0))
    tq = float(stdtrit(dof, 0.5 + confidence / 2))
    return ExponentFit(
        slope=float(beta[1]),
        intercept=float(beta[0]),
        ci_low=float(beta[1] - tq * se),
        ci_high=float(beta[1] + tq * se),
        stderr=se,
        t_min=float(t_lo),
        t_max=float(t_hi),
        n_points=int(mask.sum()),
    )


@dataclass
class CltBoundReport:
    """Both sides of the reversibility/Cauchy-Schwarz lower bound at one time."""

    t: float
    lhs: float  # P(X_t = 0)
    rhs: float
    passed: bool
    ball_probability: float  # P(|X_{t/2}|_inf <= sqrt(t))
    cluster_count: int  # |strong cluster inside [-sqrt(t), sqrt(t)]^d|


def clt_lower_bound_check(
    env: Environment,
    decomp: ClusterDecomposition,
    t: float,
    tol: float = 1e-12,
    box_radius: int | None = None,
    cache: UniformizationCache | None = None,
) -> CltBoundReport:
    """Check ``P(X_t=0) >= P(|X_{t/2}| <= sqrt(t))^2 (pi(0)/2d) / |C ∩ ball|``.

    Both sides are computed by exact vector propagation on the killed box.
    """
    geom = env.geometry
    if not decomp.in_cluster[geom.origin]:
        raise ValidationError("origin is not on the strong cluster")
    if t <= 0:
        raise ValidationError("time must be positive")
    if cache is None:
        cache = UniformizationCache(env, box_radius)
    r = int(math.floor(math.sqrt(t)))
    if r > cache.chain.box_radius:
        raise ValidationError("sqrt(t) ball does not fit in the operator box")
    lhs = cache.return_prob(t, tol)
    q = cache.distribution(t / 2.0, tol)
    ball = geom.linf_norm[cache.chain.sites] <= r
    prob_ball = float(q[ball].sum())
    ball_sites = geom.sub_box_indices(r)
    count = int(decomp.in_cluster[ball_sites].sum())
    pi0 = float(env.pi_all[geom.origin])
    rhs = prob_ball**2 * (pi0 / (2.0 * geom.d)) / count
    return CltBoundReport(
        t=float(t),
        lhs=lhs,
        rhs=rhs,
        passed=bool(lhs >= rhs),
        ball_probability=prob_ball,
        cluster_count=count,
    )
