"""Dirichlet forms, the killed-and-penalized operator, and its consequences.

The operator of interest is ``-G = (I - P_N) + lam * diag(phi)`` acting on
the box with Dirichlet exterior, where ``phi`` indicates the strong
cluster.  All eigensolves run on the symmetrized matrix
``D^{1/2} (-G) D^{-1/2}`` with ``D = diag(pi)``, whose entries
``delta - omega_xy / sqrt(pi_x pi_y)`` are assembled directly from the
bonds so symmetry is exact.

The value ``E[exp(-lam A(t)); t < tau]`` is available three ways: spectral
expansion (dense boxes), uniformization of the penalized semigroup (any
box, error controlled by the Poisson truncation), and Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import NumericalError, ValidationError
from .heatkernel import poisson_truncation_k, poisson_weights
from .lattice import Environment
from .percolation import ClusterDecomposition
from .walk import BoxChain, _restrict, ensemble_walk, transition_matrix

DENSE_EIG_CUTOFF = 4000


def eigenvalue_floor(d: int, gamma: float, N: int, mu: float) -> float:
    """The spectral-gap floor ``m(N) = N^{-(d/gamma + mu)} / (8d)``.

    ``gamma = inf`` (the all-ones law) degenerates to ``N^{-mu} / (8d)``.
    """
    if not (gamma > 0 and mu > 0 and N >= 1):
        raise ValidationError("need gamma > 0, mu > 0, N >= 1")
    return float(N) ** -(d / gamma + mu) / (8.0 * d)


def prescribed_killing_rate(d: int, gamma: float, N: int, mu: float, xi_hat: float) -> float:
    """The killing rate ``m(N) (1 + 8 d^2 / xi)`` under which the floor holds."""
    if not 0 < xi_hat < 1:
        raise ValidationError("threshold must lie in (0, 1)")
    return eigenvalue_floor(d, gamma, N, mu) * (1.0 + 8.0 * d * d / xi_hat)


@dataclass
class OperatorSpec:
    """Killed box operator with strong-cluster killing rate ``lam``.

    ``decomp=None`` means ``phi`` is identically one (every site counts as
    strong cluster), the natural degenerate case for homogeneous controls.
    ``mu``, ``b`` and ``epsilon`` are the slack, horizon-coupling and
    time-split exponents used by the derived bound checks.
    """

    env: Environment
    decomp: ClusterDecomposition | None = None
    box_radius: int | None = None
    lam: float = 0.0
    mu: float = 0.1
    b: float = 1.5
    epsilon: float = 0.9
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.box_radius is None:
            self.box_radius = self.env.geometry.N - 1
        if not 0 <= self.box_radius <= self.env.geometry.N - 1:
            raise ValidationError(
                f"operator box radius must lie in [0, {self.env.geometry.N - 1}]"
            )
        if self.lam < 0:
            raise ValidationError("killing rate must be >= 0")
        if not self.mu > 0:
            raise ValidationError("mu must be positive")
        if not self.b > 1:
            raise ValidationError("b must exceed 1")
        if not 0 < self.epsilon < 1:
            raise ValidationError("epsilon must lie in (0, 1)")

    @property
    def chain(self) -> BoxChain:
        if "chain" not in self._cache:
            self._cache["chain"] = transition_matrix(self.env, self.box_radius, killed=True)
        return self._cache["chain"]

    @property
    def phi_box(self) -> np.ndarray:
        """Strong-cluster indicator over the operator box sites."""
        if "phi" not in self._cache:
            if self.decomp is None:
                phi = np.ones(len(self.chain.sites))
            else:
                phi = self.decomp.in_cluster[self.chain.sites].astype(np.float64)
            self._cache["phi"] = phi
        return self._cache["phi"]

    @property
    def n_sites(self) -> int:
        return len(self.chain.sites)

    def coupled_horizon(self) -> float:
        """The horizon ``t = N^2 (log N)^{-b}`` matched to the box radius."""
        n = self.box_radius
        if n < 2:
            raise ValidationError("coupled horizon needs box radius >= 2")
        return n * n / math.log(n) ** self.b


def prescribed_spec(
    env: Environment,
    decomp: ClusterDecomposition,
    box_radius: int | None = None,
    mu: float = 0.1,
    b: float = 1.5,
    epsilon: float = 0.9,
) -> OperatorSpec:
    """Operator spec at the killing rate prescribed by the gap bound."""
    if not math.isfinite(env.gamma):
        raise ValidationError("the prescribed rate needs a finite tail exponent")
    n = env.geometry.N - 1 if box_radius is None else int(box_radius)
    lam = prescribed_killing_rate(env.geometry.d, env.gamma, n, mu, decomp.threshold)
    return OperatorSpec(env=env, decomp=decomp, box_radius=n, lam=lam, mu=mu, b=b, epsilon=epsilon)


def _symmetrized(spec: OperatorSpec):
    """Sparse ``D^{1/2}(-G)D^{-1/2}`` plus the pi square roots."""
    if "sym" in spec._cache:
        return spec._cache["sym"]
    chain = spec.chain
    (row, col, w), _ = _restrict(spec.env, chain.sites, inverse_index=True)
    sqrt_pi = np.sqrt(chain.pi)
    m = len(chain.sites)
    off = coo_matrix((w / (sqrt_pi[row] * sqrt_pi[col]), (row, col)), shape=(m, m))
    diag = 1.0 + spec.lam * spec.phi_box
    S = (coo_matrix((diag, (np.arange(m), np.arange(m))), shape=(m, m)) - off).tocsc()
    spec._cache["sym"] = (S, sqrt_pi)
    return spec._cache["sym"]


def _start_vector(sqrt_pi: np.ndarray) -> np.ndarray:
    """Fixed Lanczos start ``sqrt(pi) / ||sqrt(pi)||``, close to the ground state."""
    return sqrt_pi / np.linalg.norm(sqrt_pi)


def _dense_eig(spec: OperatorSpec):
    """Full eigendecomposition of the symmetrized operator (dense boxes)."""
    if "eig" in spec._cache:
        return spec._cache["eig"]
    if spec.n_sites > DENSE_EIG_CUTOFF:
        raise ValidationError(
            f"box has {spec.n_sites} sites, above the dense cutoff {DENSE_EIG_CUTOFF}; "
            "use the uniformization or Krylov paths"
        )
    S, sqrt_pi = _symmetrized(spec)
    lams, vecs = np.linalg.eigh(S.toarray())
    spec._cache["eig"] = (lams, vecs, sqrt_pi)
    return spec._cache["eig"]


def dirichlet_form(env: Environment, box_radius: int, f: np.ndarray) -> float:
    """Energy ``sum_b (df(b))^2 omega_b`` over bonds of ``B_{n+1}``.

    ``f`` lives on the ``B_n`` sites (canonical order) and is extended by
    zero outside, so bonds crossing the rim contribute ``f^2 omega``.  This
    normalization satisfies ``E(f, f) = <f, -L f>_pi`` exactly.
    """
    geom = env.geometry
    n = int(box_radius)
    if not 0 <= n <= geom.N - 1:
        raise ValidationError(f"operator box radius must lie in [0, {geom.N - 1}]")
    sub = geom.sub_box_indices(n)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (len(sub),):
        raise ValidationError(f"f must have one value per B_{n} site ({len(sub)}), got {f.shape}")
    (row, col, w), (rim_row, _, rim_w) = _restrict(env, sub, inverse_index=True)
    df = f[row] - f[col]
    rim = np.bincount(rim_row, weights=rim_w, minlength=len(sub))
    # each inside bond appears in both directions; bonds over the rim see df = f
    return float(0.5 * np.sum(df * df * w) + np.sum(rim * f * f))


def rayleigh_quotient(spec: OperatorSpec, f: np.ndarray) -> float:
    """``(E(f,f) + lam sum_cluster f^2 pi) / pi(f^2)`` for ``f`` on the box."""
    chain = spec.chain
    f = np.asarray(f, dtype=np.float64)
    energy = dirichlet_form(spec.env, spec.box_radius, f)
    weight = chain.pi * f * f
    denom = float(weight.sum())
    if denom == 0:
        raise ValidationError("f must not vanish identically")
    return (energy + spec.lam * float((spec.phi_box * weight).sum())) / denom


@dataclass
class SpectralReport:
    """Principal eigenpair of the killed-and-penalized operator."""

    Lambda1: float
    psi1: np.ndarray  # unit pi-norm, nonnegative entries, over box sites
    residual: float
    lam: float
    iterations: int
    box_radius: int


def lambda1(spec: OperatorSpec, tol: float = 1e-10, maxiter: int = 5000) -> SpectralReport:
    """Smallest eigenvalue of ``-G`` on the pi-weighted box.

    Small boxes take the dense route; otherwise a shift-invert Lanczos
    iteration around zero (the operator is positive definite), started from
    ``sqrt(pi)`` so that repeated runs take the same iterations.
    """
    S, sqrt_pi = _symmetrized(spec)
    m = S.shape[0]
    if m <= 128:
        lams, vecs = np.linalg.eigh(S.toarray())
        lam1 = float(lams[0])
        v = vecs[:, 0]
        iters = 0
    else:
        solver = splu(S)
        count = {"n": 0}

        def op(x):
            count["n"] += 1
            return solver.solve(x)

        opinv = LinearOperator(S.shape, matvec=op)
        try:
            vals, vecs = eigsh(
                S, k=1, sigma=0.0, which="LM", OPinv=opinv, tol=tol, maxiter=maxiter, v0=_start_vector(sqrt_pi)
            )
        except Exception as exc:  # ARPACK non-convergence
            raise NumericalError(f"principal eigensolve failed: {exc}") from exc
        lam1 = float(vals[0])
        v = vecs[:, 0]
        iters = count["n"]
    if v.sum() < 0:
        v = -v
    resid = float(np.linalg.norm(S @ v - lam1 * v))
    if resid > max(tol * 100, 1e-8):
        raise NumericalError(f"principal eigenpair residual {resid:.2e} above tolerance")
    psi = v / sqrt_pi
    psi = psi / math.sqrt(float((psi * psi * spec.chain.pi).sum()))
    return SpectralReport(
        Lambda1=lam1,
        psi1=psi,
        residual=resid,
        lam=spec.lam,
        iterations=iters,
        box_radius=spec.box_radius,
    )


def feynman_kac_spectral(spec: OperatorSpec, t: float) -> float:
    """``E[exp(-lam A(t)); t < tau]`` by dense spectral expansion.

    Expands the penalized semigroup applied to the constant function in the
    operator's eigenbasis; raises when the box exceeds the dense cutoff.
    """
    if t < 0:
        raise ValidationError("time must be >= 0")
    lams, vecs, sqrt_pi = _dense_eig(spec)
    origin = spec.chain.origin
    coeff = vecs.T @ sqrt_pi  # <1, psi_i>_pi in the symmetrized frame
    return float(np.sum(np.exp(-lams * t) * coeff * vecs[origin, :]) / sqrt_pi[origin])


def feynman_kac_krylov(spec: OperatorSpec, t: float, n_terms: int = 16) -> tuple[float, float]:
    """Truncated eigen-expansion with a certified remainder bound.

    Returns ``(value, remainder_bound)`` where the bound is
    ``exp(-Lambda_{k+1} t) ||1||_pi / sqrt(pi(0))``.
    """
    if t < 0:
        raise ValidationError("time must be >= 0")
    S, sqrt_pi = _symmetrized(spec)
    k = min(n_terms + 1, S.shape[0] - 2)
    if k < 2:
        raise ValidationError("box too small for the Krylov path; use the dense expansion")
    solver = splu(S)
    opinv = LinearOperator(S.shape, matvec=solver.solve)
    try:
        vals, vecs = eigsh(S, k=k, sigma=0.0, which="LM", OPinv=opinv, v0=_start_vector(sqrt_pi))
    except Exception as exc:
        raise NumericalError(f"Krylov eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    origin = spec.chain.origin
    lead = vals[:-1]
    lead_vecs = vecs[:, :-1]
    coeff = lead_vecs.T @ sqrt_pi
    value = float(np.sum(np.exp(-lead * t) * coeff * lead_vecs[origin, :]) / sqrt_pi[origin])
    norm_one = math.sqrt(float((sqrt_pi * sqrt_pi).sum()))
    bound = math.exp(-vals[-1] * t) * norm_one / float(sqrt_pi[origin])
    return value, bound


def feynman_kac_uniformization(spec: OperatorSpec, t: float, tol: float = 1e-40) -> float:
    """``E[exp(-lam A(t)); t < tau]`` by uniformizing the penalized chain.

    Writes ``G = M - (1 + lam) I`` with the nonnegative matrix
    ``M = P + lam diag(1 - phi)`` and sums the Poisson mixture in log-safe
    form; works at any box size.
    """
    if t < 0:
        raise ValidationError("time must be >= 0")
    if t == 0:
        return 1.0
    chain = spec.chain
    c = 1.0 + spec.lam
    rate = c * t
    k_max = poisson_truncation_k(rate, tol)
    w = poisson_weights(rate, k_max)
    slack = spec.lam * (1.0 - spec.phi_box) / c
    u = np.ones(len(chain.sites))
    total = w[0] * u[chain.origin]
    for k in range(1, k_max + 1):
        u = chain.P @ u / c + slack * u
        total += w[k] * u[chain.origin]
    return float(total)


def feynman_kac_mc(
    spec: OperatorSpec,
    t: float,
    n_paths: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate and standard error of the penalized survival value."""
    if t < 0:
        raise ValidationError("time must be >= 0")
    if n_paths < 1:
        raise ValidationError("need at least one path")
    env = spec.env
    phi = None if spec.decomp is None else spec.decomp.in_cluster.astype(np.float64)
    res = ensemble_walk(
        env,
        env.geometry.origin,
        n_paths,
        float(t),
        rng,
        kill_radius=spec.box_radius,
        phi=phi,
    )
    survived = np.isinf(res.tau)
    vals = np.where(survived, np.exp(-spec.lam * res.ahat_final), 0.0)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else math.inf
    return est, se


# ---------------------------------------------------------------------------
# identity and bound checks
# ---------------------------------------------------------------------------


@dataclass
class PerturbationReport:
    """Deviation of the two semigroup perturbation identities."""

    max_deviation: float
    deviations_first: np.ndarray
    deviations_second: np.ndarray
    quadrature_error: float
    quadrature_ok: bool
    t_values: np.ndarray


def _semigroup_origin_factory(lams, vecs, sqrt_pi, origin):
    """Evaluators for ``(T_s h)(0)`` and full ``T_s h`` in the pi frame."""

    def at_origin(s_values, h):
        # (T_s h)(0) = (1/sqrt_pi0) v0^T exp(-s L) V^T (sqrt_pi * h)
        proj = vecs.T @ (sqrt_pi * h)
        damp = np.exp(-np.outer(lams, np.atleast_1d(s_values)))
        return (vecs[origin, :] @ (damp * proj[:, None])) / sqrt_pi[origin]

    def full(s, h):
        proj = vecs.T @ (sqrt_pi * h)
        return (vecs @ (np.exp(-lams * s) * proj)) / sqrt_pi

    return at_origin, full


def perturbation_identity_check(
    spec: OperatorSpec,
    t_values,
    n_nodes: int = 512,
    quad_tol: float = 1e-6,
) -> PerturbationReport:
    """Verify both Duhamel-type identities linking the penalized semigroup.

    For ``f = 1`` evaluates ``R_t f - [P_t f - lam ∫ P_s(phi R_{t-s} f) ds]``
    and the mirrored form with the integrand ``R_s(phi P_{t-s} f)``, using
    exact dense semigroups and composite Simpson quadrature.  A Richardson
    halving estimate flags an insufficient node count.
    """
    t_arr = np.atleast_1d(np.asarray(t_values, dtype=float))
    if np.any(t_arr <= 0):
        raise ValidationError("identity check needs positive times")
    if n_nodes < 8 or n_nodes % 2:
        raise ValidationError("need an even node count >= 8")
    lam = spec.lam
    phi = spec.phi_box
    lams_g, vecs_g, sqrt_pi = _dense_eig(spec)
    plain = OperatorSpec(
        env=spec.env, decomp=spec.decomp, box_radius=spec.box_radius, lam=0.0,
        mu=spec.mu, b=spec.b, epsilon=spec.epsilon,
    )
    lams_p, vecs_p, _ = _dense_eig(plain)
    origin = spec.chain.origin
    r_origin, r_full = _semigroup_origin_factory(lams_g, vecs_g, sqrt_pi, origin)
    p_origin, p_full = _semigroup_origin_factory(lams_p, vecs_p, sqrt_pi, origin)
    ones = np.ones(spec.n_sites)

    dev1 = np.empty(len(t_arr))
    dev2 = np.empty(len(t_arr))
    quad_err = 0.0
    for i, t in enumerate(t_arr):
        s = np.linspace(0.0, t, n_nodes + 1)
        # integrand 1: P_s(phi R_{t-s} 1)(0)
        g1 = np.array([p_origin(sj, phi * r_full(t - sj, ones))[0] for sj in s])
        # integrand 2: R_s(phi P_{t-s} 1)(0)
        g2 = np.array([r_origin(sj, phi * p_full(t - sj, ones))[0] for sj in s])
        i1 = float(simpson(g1, x=s))
        i2 = float(simpson(g2, x=s))
        i1_half = float(simpson(g1[::2], x=s[::2]))
        i2_half = float(simpson(g2[::2], x=s[::2]))
        quad_err = max(quad_err, lam * abs(i1 - i1_half) / 15.0, lam * abs(i2 - i2_half) / 15.0)
        r_t = float(r_origin(t, ones)[0])
        p_t = float(p_origin(t, ones)[0])
        dev1[i] = abs(r_t - (p_t - lam * i1))
        dev2[i] = abs(r_t - (p_t - lam * i2))
    return PerturbationReport(
        max_deviation=float(max(dev1.max(), dev2.max())),
        deviations_first=dev1,
        deviations_second=dev2,
        quadrature_error=quad_err,
        quadrature_ok=bool(quad_err <= quad_tol),
        t_values=t_arr,
    )


@dataclass
class SurvivalBoundReport:
    """Both sides of the penalized-survival envelope at the coupled horizon."""

    t: float
    lam: float
    m_N: float
    lhs_log: float  # log of exp(lam t^eps) E[exp(-lam A); t < tau]
    rhs_log: float
    passed: bool
    fk_value: float


def survival_bound_check(spec: OperatorSpec, t: float | None = None) -> SurvivalBoundReport:
    """Check ``e^{lam t^eps} E[e^{-lam A}; t<tau] <= (2^{d+2} d)^{1/2} N^{d/2} e^{-t m(N)/2}``.

    The left side uses the dense spectral expansion when the box allows it
    and the uniformized semigroup otherwise; both sides are compared in log
    form since the horizon makes the raw values underflow.
    """
    env = spec.env
    d = env.geometry.d
    n = spec.box_radius
    if t is None:
        t = spec.coupled_horizon()
    if t <= 0:
        raise ValidationError("horizon must be positive")
    m_n = eigenvalue_floor(d, env.gamma, n, spec.mu)
    if spec.n_sites <= DENSE_EIG_CUTOFF:
        fk = feynman_kac_spectral(spec, t)
    else:
        fk = feynman_kac_uniformization(spec, t)
    lhs_log = spec.lam * t**spec.epsilon + (math.log(fk) if fk > 0 else -math.inf)
    rhs_log = 0.5 * ((d + 2) * math.log(2.0) + math.log(d)) + 0.5 * d * math.log(n) - 0.5 * t * m_n
    return SurvivalBoundReport(
        t=float(t),
        lam=spec.lam,
        m_N=m_n,
        lhs_log=lhs_log,
        rhs_log=rhs_log,
        passed=bool(lhs_log <= rhs_log),
        fk_value=fk,
    )


@dataclass
class ExitTailReport:
    """Monte Carlo exit-time tail with a fitted Gaussian-shaped envelope."""

    t: np.ndarray
    p_exit: np.ndarray
    stderr: np.ndarray
    bound: np.ndarray
    C: float
    c: float
    all_below: bool
    gaussian_slope: float | None  # slope of log P(tau <= t) against N^2/(4t)
    N: int
    n_paths: int


def exit_time_tail_check(
    env: Environment,
    N: int,
    t_grid,
    n_paths: int,
    rng: np.random.Generator,
) -> ExitTailReport:
    """Estimate ``P(tau_N <= t)`` and fit ``C t N^{d-1} e^{-N^2/4t} + e^{-ct}`` over it.

    The free constants are chosen as the tightest dominating envelope on
    the grid (reported, never assumed).  The Gaussian-slope regression of
    ``log P`` against ``N^2/(4t)`` should stay above -1 when the bound
    shape is respected.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValidationError("t grid must be positive and increasing")
    if n_paths < 1:
        raise ValidationError("need at least one path")
    geom = env.geometry
    if not 0 <= N <= geom.N - 1:
        raise ValidationError(f"exit box radius must lie in [0, {geom.N - 1}]")
    res = ensemble_walk(env, geom.origin, n_paths, float(t.max()), rng, kill_radius=N)
    p_exit = np.array([(res.tau <= tj).mean() for tj in t])
    stderr = np.sqrt(np.maximum(p_exit * (1 - p_exit), 0.0) / n_paths)

    d = geom.d
    shape = t * float(N) ** (d - 1) * np.exp(-N * N / (4.0 * t))
    floor = 1.0 / (10.0 * n_paths)
    best: tuple[float, float, float] | None = None
    for c in np.geomspace(1e-4, 10.0, 41):
        resid = p_exit - np.exp(-c * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            need = np.where(resid > 0, resid / shape, 0.0)
        C = float(np.max(need)) if np.any(need > 0) else 0.0
        bound = C * shape + np.exp(-c * t)
        gap = float(np.max(np.log(bound / np.maximum(p_exit, floor))))
        if best is None or gap < best[0]:
            best = (gap, float(c), C)
    _, c_fit, C_fit = best
    bound = C_fit * shape + np.exp(-c_fit * t)

    positive = p_exit > 0
    slope = None
    if positive.sum() >= 2:
        x = N * N / (4.0 * t[positive])
        slope = float(np.polyfit(x, np.log(p_exit[positive]), 1)[0])
    return ExitTailReport(
        t=t,
        p_exit=p_exit,
        stderr=stderr,
        bound=bound,
        C=C_fit,
        c=c_fit,
        all_below=bool(np.all(p_exit <= bound * (1 + 1e-12))),
        gaussian_slope=slope,
        N=int(N),
        n_paths=n_paths,
    )


def lambda1_floor_check(
    env: Environment,
    decomp: ClusterDecomposition,
    box_radius: int,
    mu: float = 0.1,
    tol: float = 1e-10,
) -> tuple[SpectralReport, float, bool]:
    """Principal eigenvalue at the prescribed killing rate against ``m(N)``.

    Returns ``(report, m_N, passed)`` with ``passed = Lambda1 >= m_N``.
    """
    spec = prescribed_spec(env, decomp, box_radius, mu=mu)
    report = lambda1(spec, tol=tol)
    m_n = eigenvalue_floor(env.geometry.d, env.gamma, box_radius, mu)
    return report, m_n, bool(report.Lambda1 >= m_n)


def homogeneous_lambda1_exact(N: int) -> float:
    """Closed-form principal Dirichlet eigenvalue for the all-ones box."""
    if N < 0:
        raise ValidationError("box radius must be >= 0")
    return 1.0 - math.cos(math.pi / (2 * N + 2))

