"""Dirichlet forms, the killed-and-penalized operator, and its consequences.

The operator of interest is ``-G = (I - P_N) + lam * diag(phi)`` acting on
the box with Dirichlet exterior, where ``phi`` indicates the strong
cluster.  All eigensolves run on the symmetrized matrix
``D^{1/2} (-G) D^{-1/2}`` with ``D = diag(pi)``, whose entries
``delta - omega_xy / sqrt(pi_x pi_y)`` are assembled directly from the
bonds so symmetry is exact.

The spectral-gap floor ``Lambda1 >= m(N)`` is certified without an
eigensolve: one symmetric LDL^T factorization of ``S - m(N) I`` with no
pivots below zero proves it, by Sylvester's law of inertia (the factor's
pivots and the eigenvalues of ``S - m(N) I`` have the same signs).  Any
other outcome of the factorization is settled by the principal eigenvalue,
so a failing verdict always rests on an eigensolve.

The value ``E[exp(-lam A(t)); t < tau]`` comes from one Lanczos run on the
symmetrized matrix, the one the floor check factors
(``feynman_kac_lanczos``: about ``sqrt((2 + lam) t)`` products where the
Poisson series takes ``(1 + lam) t``).  Its oracles are the uniformization
engine of ``heatkernel`` (any box, error controlled by the Poisson
truncation), Monte Carlo, and, on small boxes, the dense spectral
expansion.  The exit-time tail ``P(tau_N <= t)`` is the exit mass of the
plain killed walk from the uniformization engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import NumericalError, ValidationError
from .heatkernel import _BREAKDOWN, _CHECK_EVERY, _FIRST_CHECK, UniformizationCache, _krylov_steps, _ritz
from .lattice import Environment, _restrict
from .percolation import ClusterDecomposition
from .walk import BoxChain, ensemble_walk, transition_matrix

DENSE_EIG_CUTOFF = 4000
_EXIT_TOL = 1e-40  # exit tails down to ~1e-40 must survive the Poisson truncation
_FK_TOL = 1e-12  # relative change between two checks that ends a penalized Lanczos run


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


@dataclass(frozen=True)
class OperatorSpec:
    """Killed box operator with strong-cluster killing rate ``lam``.

    ``decomp=None`` means ``phi`` is identically one (every site counts as
    strong cluster), the natural degenerate case for homogeneous controls.
    ``mu``, ``b`` and ``epsilon`` are the slack, horizon-coupling and
    time-split exponents used by the derived bound checks.  Derived
    operators are cached per instance, outside ``replace`` and ``==``, on
    frozen fields.
    """

    env: Environment
    decomp: ClusterDecomposition | None = None
    box_radius: int | None = None
    lam: float = 0.0
    mu: float = 0.1
    b: float = 1.5
    epsilon: float = 0.9

    def __post_init__(self):
        if self.box_radius is None:
            object.__setattr__(self, "box_radius", self.env.geometry.N - 1)
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

    @cached_property
    def chain(self) -> BoxChain:
        return transition_matrix(self.env, self.box_radius, killed=True)

    @cached_property
    def phi_box(self) -> np.ndarray:
        """Strong-cluster indicator over the operator box sites."""
        if self.decomp is None:
            return np.ones(len(self.chain.sites))
        return self.decomp.in_cluster[self.chain.sites].astype(np.float64)

    @property
    def n_sites(self) -> int:
        return len(self.chain.sites)

    @cached_property
    def symmetrized(self):
        """Sparse ``D^{1/2}(-G)D^{-1/2}`` plus the pi square roots."""
        chain = self.chain
        (row, col, w), _, _ = _restrict(self.env, chain.sites)
        sqrt_pi = np.sqrt(chain.pi)
        m = len(chain.sites)
        off = coo_matrix((w / (sqrt_pi[row] * sqrt_pi[col]), (row, col)), shape=(m, m))
        diag = 1.0 + self.lam * self.phi_box
        S = (coo_matrix((diag, (np.arange(m), np.arange(m))), shape=(m, m)) - off).tocsc()
        return S, sqrt_pi

    @cached_property
    def dense_eig(self):
        """Full eigendecomposition of the symmetrized operator (dense boxes)."""
        if self.n_sites > DENSE_EIG_CUTOFF:
            raise ValidationError(
                f"box has {self.n_sites} sites, above the dense cutoff {DENSE_EIG_CUTOFF}; "
                "use feynman_kac_lanczos"
            )
        S, sqrt_pi = self.symmetrized
        lams, vecs = np.linalg.eigh(S.toarray())
        return lams, vecs, sqrt_pi

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
    (row, col, w), (rim_row, _, rim_w), _ = _restrict(env, sub)
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
    iterations: int


def lambda1(spec: OperatorSpec, tol: float = 1e-10, maxiter: int = 5000) -> SpectralReport:
    """Smallest eigenvalue of ``-G`` on the pi-weighted box.

    Boxes of at most 128 sites read the spec's ``dense_eig``; otherwise a
    shift-invert Lanczos iteration around zero (the operator is positive
    definite), started from ``sqrt(pi)`` so that repeated runs take the same
    iterations.
    """
    S, sqrt_pi = spec.symmetrized
    m = S.shape[0]
    if m <= 128:
        lams, vecs, _ = spec.dense_eig
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
                S, k=1, sigma=0.0, which="LM", OPinv=opinv, tol=tol, maxiter=maxiter,
                v0=sqrt_pi / np.linalg.norm(sqrt_pi),  # fixed start, close to the ground state
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
    return SpectralReport(Lambda1=lam1, psi1=psi, residual=resid, iterations=iters)


def feynman_kac_spectral(spec: OperatorSpec, t: float) -> float:
    """``E[exp(-lam A(t)); t < tau]`` by dense spectral expansion.

    Expands the penalized semigroup applied to the constant function in the
    operator's eigenbasis; raises when the box exceeds the dense cutoff.
    """
    if t < 0:
        raise ValidationError("time must be >= 0")
    lams, vecs, sqrt_pi = spec.dense_eig
    origin = spec.chain.origin
    coeff = vecs.T @ sqrt_pi  # <1, psi_i>_pi in the symmetrized frame
    return float(np.sum(np.exp(-lams * t) * coeff * vecs[origin, :]) / sqrt_pi[origin])


def feynman_kac_lanczos(spec: OperatorSpec, t: float) -> tuple[float, int]:
    """``E[exp(-lam A(t)); t < tau]`` from one Lanczos run on ``spec.symmetrized``.

    The value is ``pi_0^(-1/2) sqrt(pi)^T exp(-tS) e_0`` with ``S`` the
    symmetrized operator, whose spectrum lies in ``[0, 2 + lam]``.  The
    three-term recurrence runs on ``S`` from ``e_0`` and keeps two vectors
    and the scalars ``c_j = sqrt(pi) . q_j``; a check reads the value as
    ``c^T U diag(e^{-t theta}) U[0] / sqrt(pi_0)`` from the Ritz pairs
    ``(theta, U)`` of the tridiagonal matrix.  The penalty breaks the
    bipartite structure, so the recurrence is not folded.  ``S`` is
    symmetric bit for bit, so the products take ``S.T``, a row-major view of
    the column-major matrix.  Checks follow the curve engine's schedule,
    with the a priori step count ``m*`` taken for the spectrum width
    ``2 + lam``; the run stops when the value moved by at most ``tol``
    relative since the previous check, or on breakdown, and raises
    ``NumericalError`` after ``2 m* + 32`` steps.  ``tol`` is ``_FK_TOL``
    or, at long horizons, the rounding of the value: an error of ``eps (2 +
    lam)`` in a Ritz value moves ``e^{-t theta}`` by ``t eps (2 + lam)``
    relative, and at N = 256 (perfbench's environment law, t = 5019, 263,169
    sites) the settled value wandered between checks by up to 1.3 times
    that, so the tolerance is at least four times it.  A step count equal to
    the number of box sites also ends the run, unchecked: the Krylov space
    is then exhausted, and in exact arithmetic ``T_dim`` has the spectrum of
    ``S``.  Returns the value and the step count.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValidationError(f"horizon must be positive and finite, got {t!r}")
    tol = max(_FK_TOL, 4.0 * t * np.finfo(float).eps * (2.0 + spec.lam))
    S, sqrt_pi = spec.symmetrized
    A = S.T  # CSR view; S == S.T
    origin = spec.chain.origin
    dim = S.shape[0]
    expected = _krylov_steps(t, tol, 2.0 + spec.lam)
    first = max(_CHECK_EVERY, int(_FIRST_CHECK * expected))
    max_steps = 32 + 2 * math.ceil(expected)
    q_prev, q = np.zeros(dim), np.zeros(dim)
    q[origin] = 1.0
    diag, off, c = [], [], []
    beta, prev, moved = 0.0, None, math.inf
    # elementwise products and sums, not @: a BLAS dot on the long vectors wakes its threads
    for i in range(1, max_steps + 1):
        y = A @ q
        alpha = float((q * y).sum())
        c.append(float((sqrt_pi * q).sum()))
        y -= alpha * q
        y -= beta * q_prev
        diag.append(alpha)
        beta = 0.0 if i == dim else math.sqrt(float((y * y).sum()))  # i == dim: the space is exhausted
        off.append(beta)
        q_prev, q = q, q_prev
        broke = beta <= _BREAKDOWN
        if not broke:
            np.divide(y, beta, out=q)
        if (i < first or (i - first) % _CHECK_EVERY) and not broke:
            continue
        theta, U = _ritz(np.array(diag), np.array(off[:-1]))
        value = float(((np.array(c)[:, None] * U).sum(axis=0) * np.exp(-t * theta) * U[0]).sum() / sqrt_pi[origin])
        if prev is not None:
            moved = abs(value - prev)
        if broke or moved <= tol * abs(value):  # a value that underflowed to 0 stays 0
            return value, i
        prev = value
    raise NumericalError(
        f"penalized Lanczos run did not settle within tolerance {tol:g} in {max_steps} steps "
        f"(box radius {spec.box_radius}, lam {spec.lam:g}, t {t:g}: value {value:.3e}, last change {moved:.2e})"
    )


def feynman_kac_uniformization(spec: OperatorSpec, t: float, tol: float = 1e-40) -> float:
    """``E[exp(-lam A(t)); t < tau]`` by uniformizing the penalized chain.

    The penalized survival of a ``UniformizationCache`` on ``spec.chain``,
    with the Poisson truncation error below ``tol``; works at any box size.
    The oracle of ``feynman_kac_lanczos``.
    """
    phi = None if spec.decomp is None else spec.decomp.in_cluster
    return UniformizationCache(spec.env, lam=spec.lam, phi=phi, chain=spec.chain).survival(t, tol)


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
    from scipy.integrate import simpson

    lams_g, vecs_g, sqrt_pi = spec.dense_eig
    lams_p, vecs_p, _ = replace(spec, lam=0.0).dense_eig
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
    steps: int  # Lanczos steps behind fk_value


def survival_bound_check(spec: OperatorSpec, t: float | None = None) -> SurvivalBoundReport:
    """Check ``e^{lam t^eps} E[e^{-lam A}; t<tau] <= (2^{d+2} d)^{1/2} N^{d/2} e^{-t m(N)/2}``.

    The left side comes from one Lanczos run on the spec's symmetrized
    operator (``feynman_kac_lanczos``), the matrix the floor check factors;
    both sides are compared in log form since the horizon makes the raw
    values underflow.  ``t`` defaults to the coupled horizon and must be
    positive and finite.
    """
    env = spec.env
    d = env.geometry.d
    n = spec.box_radius
    if t is None:
        t = spec.coupled_horizon()
    if not (math.isfinite(t) and t > 0):
        raise ValidationError(f"horizon must be positive and finite, got {t!r}")
    m_n = eigenvalue_floor(d, env.gamma, n, spec.mu)
    fk, steps = feynman_kac_lanczos(spec, t)
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
        steps=steps,
    )


@dataclass
class ExitTailReport:
    """Exact exit-time tail ``P(tau_N <= t)`` with a fitted Gaussian-shaped envelope."""

    t: np.ndarray
    p_exit: np.ndarray
    bound: np.ndarray
    C: float
    c: float
    all_below: bool
    gaussian_slope: float | None  # slope of log P(tau <= t) against N^2/(4t)
    N: int


def exit_time_tail_check(spec: OperatorSpec, t_grid) -> ExitTailReport:
    """Exact ``P(tau_N <= t)`` with its envelope ``C t N^{d-1} e^{-N^2/4t} + e^{-ct}``.

    ``N`` is ``spec.box_radius``.  The tail is the mass the plain killed walk
    on ``spec.chain`` has carried over the rim, with Poisson truncation error
    below ``_EXIT_TOL`` (the spec's killing rate plays no part).  The free
    constants are chosen as the tightest dominating envelope over the grid
    points with ``p_exit > 0`` (reported, never assumed).  The Gaussian-slope
    regression of ``log P`` against ``N^2/(4t)`` over the same points should
    stay below -1 when the bound shape is respected.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValidationError("t grid must be positive and increasing")
    N = spec.box_radius
    engine = UniformizationCache(spec.env, chain=spec.chain)
    p_exit = np.array([engine.exit_prob(tj, _EXIT_TOL) for tj in t])

    d = spec.env.geometry.d
    shape = t * float(N) ** (d - 1) * np.exp(-N * N / (4.0 * t))
    positive = p_exit > 0
    best: tuple[float, float, float] | None = None
    for c in np.geomspace(1e-4, 10.0, 41):
        resid = p_exit - np.exp(-c * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            need = np.where(resid > 0, resid / shape, 0.0)
        C = float(np.max(need)) if np.any(need > 0) else 0.0
        bound = C * shape + np.exp(-c * t)
        gap = float(np.max(np.log(bound[positive] / p_exit[positive]))) if positive.any() else 0.0
        if best is None or gap < best[0]:
            best = (gap, float(c), C)
    _, c_fit, C_fit = best
    bound = C_fit * shape + np.exp(-c_fit * t)

    slope = None
    if positive.sum() >= 2:
        x = N * N / (4.0 * t[positive])
        slope = float(np.polyfit(x, np.log(p_exit[positive]), 1)[0])
    return ExitTailReport(
        t=t,
        p_exit=p_exit,
        bound=bound,
        C=C_fit,
        c=c_fit,
        all_below=bool(np.all(p_exit <= bound * (1 + 1e-12))),
        gaussian_slope=slope,
        N=int(N),
    )


def negative_pivots(S, shift: float) -> int | None:
    """Number of eigenvalues of the symmetric sparse ``S`` below ``shift``.

    Counts the negative pivots of an LDL^T factorization of ``S - shift I``:
    SuperLU in symmetric mode with a fill-reducing order of ``A^T + A`` and
    diagonal pivots only.  The count equals the number of eigenvalues below
    ``shift`` (Sylvester's law of inertia) only when the factorization kept
    to the diagonal, which shows as equal row and column permutations, and
    every pivot is finite and nonzero; otherwise returns ``None``.
    """
    A = (S - shift * identity(S.shape[0], format="csc")).tocsc()
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular: shift is an eigenvalue
        return None
    pivots = lu.U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(np.isfinite(pivots) & (pivots != 0)):
        return None
    return int(np.count_nonzero(pivots < 0))


@dataclass(frozen=True)
class FloorCertificate:
    """Verdict on ``Lambda1 >= m_N`` and how it was reached.

    ``method`` is ``"inertia"`` when the factorization of ``S - m_N I`` had
    no negative pivot, and ``"eigsh"`` when the verdict came from
    ``lambda1``.  ``neg_pivots`` is the factorization's negative-pivot count,
    ``-1`` when it gave no valid inertia; ``iterations`` counts the
    shift-invert solves of the eigensolve (0 on the inertia route).
    """

    m_N: float
    passed: bool
    neg_pivots: int
    method: str
    iterations: int


def lambda1_floor_check(
    spec: OperatorSpec, tol: float = 1e-10, principal: SpectralReport | None = None
) -> FloorCertificate:
    """Certify the floor ``Lambda1 >= m(N)`` at the spec's box radius and ``mu``.

    Factors ``S - m(N) I`` once, with ``S`` the spec's symmetrized
    operator: zero negative pivots prove the floor without an eigensolve.
    A negative pivot, or a factorization that is not a valid LDL^T (see
    ``negative_pivots``), falls back to ``lambda1(spec, tol)``, or to the
    caller's ``principal`` report of it, and the verdict is then
    ``Lambda1 >= m(N)``.  The floor holds at the rate of ``prescribed_spec``.
    """
    m_n = eigenvalue_floor(spec.env.geometry.d, spec.env.gamma, spec.box_radius, spec.mu)
    S, _ = spec.symmetrized
    neg = negative_pivots(S, m_n)
    if neg == 0:
        return FloorCertificate(m_N=m_n, passed=True, neg_pivots=0, method="inertia", iterations=0)
    report = lambda1(spec, tol=tol) if principal is None else principal
    return FloorCertificate(
        m_N=m_n,
        passed=bool(report.Lambda1 >= m_n),
        neg_pivots=-1 if neg is None else neg,
        method="eigsh",
        iterations=report.iterations,
    )


def homogeneous_lambda1_exact(N: int) -> float:
    """Closed-form principal Dirichlet eigenvalue for the all-ones box."""
    if N < 0:
        raise ValidationError("box radius must be >= 0")
    return 1.0 - math.cos(math.pi / (2 * N + 2))

