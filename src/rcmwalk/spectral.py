"""The killed-and-penalized operator and its consequences.

The operator of interest is ``-G = (I - P_N) + lam * diag(phi)`` acting on
the box with Dirichlet exterior, where ``phi`` indicates the strong
cluster.  All eigensolves run on the symmetrized matrix
``S = D^{1/2} (-G) D^{-1/2}`` with ``D = diag(pi)``, whose entries
``delta - omega_xy / sqrt(pi_x pi_y)`` are laid out on the ``2d + 1``
diagonals of the box straight from its stencil (``walk.box_stencil``), so
symmetry is exact and no sparse-row box matrix is built; the routes that
factor or slice ``S`` convert it when they run, and the killed box chain
(``OperatorSpec.chain``) serves only the uniformization oracle.

The spectral-gap floor ``Lambda1 >= m(N)`` is certified on the first of
three routes that settles it.  First a positive test vector: ``S`` has
nonpositive off-diagonal entries, so ``lambda_min(S) >= min_x (S v)_x / v_x``
for any ``v > 0`` (Collatz 1942, Wielandt 1950; Barta's inequality in the
continuum), and ``v = sqrt(pi)`` on the strong cluster, completed by one
sparse solve on the holes, proves the floor with a few sparse products.
Failing that, one symmetric LDL^T factorization of ``S - m(N) I`` with no
pivots below zero proves it, by Sylvester's law of inertia (the factor's
pivots and the eigenvalues of ``S - m(N) I`` have the same signs).  Any
other outcome of the factorization is settled by the principal eigenvalue,
so a failing verdict always rests on an eigensolve.

The value ``E[exp(-lam A(t)); t < tau]`` comes from one Lanczos run on the
symmetrized matrix, the one the floor check reads
(``feynman_kac_lanczos``: about ``sqrt((2 + lam) t)`` products where the
Poisson series takes ``(1 + lam) t``); its checks solve only the Ritz pairs
near the lowest, which carry the weight at the horizons it serves, and the
full tridiagonal eigensolve when the bound on the rest does not clear the
tolerance.  Its oracles are the uniformization
engine of ``heatkernel`` (any box, error controlled by the Poisson
truncation), Monte Carlo, and, on small boxes, the dense spectral
expansion.  The exit-time tail ``P(tau_N <= t)`` mixes the per-jump exit
mass of the plain killed walk (``heatkernel.exit_mass``, one propagation on
the live parity for the whole grid, by half blocks laid out from the same
stencil) with Poisson weights.  Both long loops multiply by operators
stored by their diagonals, bit for bit the sparse-row products.

The Duhamel identities linking the penalized semigroup to the plain one
are checked on small boxes with both integrals in closed form: each is a
bilinear form in the two dense eigenbases, weighted by the exact integral
of a product of two exponentials, so no quadrature error enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import identity
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import NumericalError, ValidationError
from .heatkernel import (
    _BREAKDOWN,
    _CHECK_EVERY,
    _FIRST_CHECK,
    UniformizationCache,
    _krylov_steps,
    _ritz,
    exit_mass,
    poisson_truncation_k,
    poisson_weights,
)
from .lattice import Environment, _integral_radius
from .percolation import ClusterDecomposition
from .walk import (
    BoxChain,
    BoxStencil,
    _banded_product,
    _on_diagonals,
    _path_count,
    box_stencil,
    ensemble_walk,
    transition_matrix,
)

DENSE_EIG_CUTOFF = 4000
_EXIT_TOL = 1e-40  # exit tails down to ~1e-40 must survive the Poisson truncation
_FK_TOL = 1e-12  # relative change between two checks that ends a penalized Lanczos run
_EIGSH_MAXITER = 5000  # ARPACK update iterations allowed to the shift-invert principal eigensolve
_RITZ_WINDOW = 44.0  # a check solves the Ritz pairs with theta <= theta_min + _RITZ_WINDOW / t


def eigenvalue_floor(d: int, gamma: float, N: int, mu: float) -> float:
    """The spectral-gap floor ``m(N) = N^{-(d/gamma + mu)} / (8d)``.

    ``gamma = inf`` (the all-ones law) degenerates to ``N^{-mu} / (8d)``.
    ``d >= 2`` and ``N >= 1`` must be integers (1.5, inf or "3" raises).
    """
    d, N = _integral_radius(d, "dimension"), _integral_radius(N)
    if not (d >= 2 and N >= 1 and gamma > 0 and 0 < mu < math.inf):
        raise ValidationError(f"need d >= 2, N >= 1, gamma > 0, finite mu > 0; got {d}, {N}, {gamma!r}, {mu!r}")
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
        n = self.env.geometry.N - 1 if self.box_radius is None else _integral_radius(self.box_radius)
        object.__setattr__(self, "box_radius", n)
        if not 0 <= n <= self.env.geometry.N - 1:
            raise ValidationError(f"operator box radius must lie in [0, {self.env.geometry.N - 1}]")
        if self.decomp is not None:
            self.decomp.check_env(self.env)
        if not 0 <= self.lam < math.inf:  # nan fails both comparisons
            raise ValidationError(f"killing rate must be finite and >= 0, got {self.lam!r}")
        if not self.mu > 0:
            raise ValidationError("mu must be positive")
        if not self.b > 1:
            raise ValidationError("b must exceed 1")
        if not 0 < self.epsilon < 1:
            raise ValidationError("epsilon must lie in (0, 1)")

    @cached_property
    def stencil(self) -> BoxStencil:
        return box_stencil(self.env, self.box_radius)

    @cached_property
    def chain(self) -> BoxChain:
        """The killed box chain, for the uniformization oracle; the bound checks read ``stencil``."""
        return transition_matrix(self.env, self.box_radius)

    @cached_property
    def phi_box(self) -> np.ndarray:
        """Strong-cluster indicator over the operator box sites."""
        if self.decomp is None:
            return np.ones(self.n_sites)
        return self.env.geometry.sub_box_rows(self.decomp.in_cluster, self.box_radius).astype(np.float64)

    @property
    def n_sites(self) -> int:
        return len(self.stencil.pi)

    @cached_property
    def symmetrized(self):
        """``S = D^{1/2}(-G)D^{-1/2}`` on its ``2d + 1`` diagonals, plus the pi square roots.

        Bond ``(y, x)`` inside ``B_n`` reads ``-w / (sqrt(pi_y) sqrt(pi_x))``
        off the stencil, so ``S`` is exactly symmetric and bit for bit the
        matrix scaled from the chain's ``W``, products included.
        """
        st = self.stencil
        sqrt_pi = np.sqrt(st.pi)
        m = len(sqrt_pi)
        values = np.zeros((len(st.steps) + 1, m))
        for c, step in enumerate(st.steps):  # column x, row y = x + step; what wraps around is no bond
            np.divide(-st.w[c], np.roll(sqrt_pi, -step) * sqrt_pi, out=values[c], where=st.bonds[c])
        values[-1] = 1.0 + self.lam * self.phi_box
        S = _on_diagonals(values, np.append(-st.steps, 0), (m, m))
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
    n = env.geometry.N - 1 if box_radius is None else _integral_radius(box_radius)
    lam = prescribed_killing_rate(env.geometry.d, env.gamma, n, mu, decomp.threshold)
    return OperatorSpec(env=env, decomp=decomp, box_radius=n, lam=lam, mu=mu, b=b, epsilon=epsilon)


@dataclass
class SpectralReport:
    """Principal eigenpair of the killed-and-penalized operator."""

    Lambda1: float
    psi1: np.ndarray  # unit pi-norm, nonnegative entries, over box sites
    residual: float
    iterations: int


def lambda1(spec: OperatorSpec, tol: float = 1e-10) -> SpectralReport:
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
        S = S.tocsc()
        solver = splu(S)
        count = {"n": 0}

        def op(x):
            count["n"] += 1
            return solver.solve(x)

        opinv = LinearOperator(S.shape, matvec=op)
        try:
            vals, vecs = eigsh(
                S, k=1, sigma=0.0, which="LM", OPinv=opinv, tol=tol, maxiter=_EIGSH_MAXITER,
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
    psi = psi / math.sqrt(float((psi * psi * spec.stencil.pi).sum()))
    return SpectralReport(Lambda1=lam1, psi1=psi, residual=resid, iterations=iters)


def feynman_kac_spectral(spec: OperatorSpec, t: float) -> float:
    """``E[exp(-lam A(t)); t < tau]`` by dense spectral expansion.

    Expands the penalized semigroup applied to the constant function in the
    operator's eigenbasis; raises when the box exceeds the dense cutoff.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError(f"time must be finite and >= 0, got {t!r}")
    lams, vecs, sqrt_pi = spec.dense_eig
    origin = spec.stencil.origin
    coeff = vecs.T @ sqrt_pi  # <1, psi_i>_pi in the symmetrized frame
    return float(np.sum(np.exp(-lams * t) * coeff * vecs[origin, :]) / sqrt_pi[origin])


def _ritz_sum(diag: np.ndarray, off: np.ndarray, c: np.ndarray, t: float, tol: float) -> tuple[float, int]:
    """``c^T U diag(e^{-t theta}) U[0]`` over the Ritz pairs of the tridiagonal ``(diag, off)``, and the pairs solved.

    Only the pairs with ``theta <= cut = theta_min + _RITZ_WINDOW / t`` are
    solved (``theta_min`` by bisection, then MRRR on that range); by
    Cauchy-Schwarz over the orthonormal columns of ``U`` the others add at
    most ``||c|| e^{-t cut}``, and when that is not below ``tol |sum| / 4``
    every pair is solved, so no check is weakened.
    """

    def weighted(theta, U):
        return float(((c[:, None] * U).sum(axis=0) * np.exp(-t * theta) * U[0]).sum())

    try:  # nothing lies below the lowest Ritz value, so the range (low - 1, cut] holds all kept pairs
        low = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0), lapack_driver="stebz")[0]
        cut = low + _RITZ_WINDOW / t
        theta, U = eigh_tridiagonal(diag, off, select="v", select_range=(low - 1.0, cut), lapack_driver="stemr")
    except LinAlgError:
        theta = ()
    if 0 < len(theta) < len(diag):
        total = weighted(theta, U)
        if math.sqrt(float((c * c).sum())) * math.exp(-t * cut) < 0.25 * tol * abs(total):
            return total, len(theta)
    theta, U = _ritz(diag, off)
    return weighted(theta, U), len(diag)


def feynman_kac_lanczos(spec: OperatorSpec, t: float) -> tuple[float, int, int]:
    """``E[exp(-lam A(t)); t < tau]`` from one Lanczos run on ``spec.symmetrized``.

    The value is ``pi_0^(-1/2) sqrt(pi)^T exp(-tS) e_0`` with ``S`` the
    symmetrized operator, whose spectrum lies in ``[0, 2 + lam]``.  The
    three-term recurrence runs on ``S`` from ``e_0`` and keeps two vectors
    and the scalars ``c_j = sqrt(pi) . q_j``; a check reads the value as
    ``c^T U diag(e^{-t theta}) U[0] / sqrt(pi_0)`` from the Ritz pairs
    ``(theta, U)`` that carry weight (``_ritz_sum``).  A step is one
    product by the banded ``S`` (``walk._banded_product``), three one-pass
    reductions and two axpys through one reused buffer.  Started from ``sqrt(pi)``, reading ``q_j[0]``, the run
    would need one reduction less but loses the origin's entry to rounding
    when the ground state sits in a hole away from it (d = 3, n = 4,
    p = 0.5, lam = 3, t = 7 never settled).  The penalty breaks the
    bipartite structure, so the recurrence is not folded.
    Checks follow the curve engine's schedule, with the a priori step count
    ``m*`` taken for the spectrum width ``2 + lam``; the run stops when the
    value moved by at most ``tol`` relative since the previous check, or on
    breakdown, and raises ``NumericalError`` after ``2 m* + 32`` steps.
    ``tol`` is ``_FK_TOL`` or, at long horizons, the rounding of the value:
    an error of ``eps (2 + lam)`` in a Ritz value moves ``e^{-t theta}`` by
    ``t eps (2 + lam)`` relative; at N = 256 (t = 5019) the settled value
    wandered between checks by 1.3 times that, so the tolerance is at least
    four times it.  A step count equal to the number of box sites also ends
    the run: the Krylov space is then exhausted, but without
    reorthogonalization ``T_dim`` need not carry the spectrum of ``S`` (d = 2,
    n = 2, 25 sites, lam = 2.97, t = 34 read 1.1e-10 relative low), so the
    value is read from the dense eigenpairs of ``S`` (``feynman_kac_spectral``),
    counted as ``dim`` pairs; above ``DENSE_EIG_CUTOFF`` sites ``T_dim`` is read.
    Returns the value, the step count and the number of Ritz pairs solved.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValidationError(f"horizon must be positive and finite, got {t!r}")
    tol = max(_FK_TOL, 4.0 * t * np.finfo(float).eps * (2.0 + spec.lam))
    S, sqrt_pi = spec.symmetrized
    origin = spec.stencil.origin
    dim = S.shape[0]
    expected = _krylov_steps(t, tol, 2.0 + spec.lam)
    first = max(_CHECK_EVERY, int(_FIRST_CHECK * expected))
    max_steps = 32 + 2 * math.ceil(expected)
    q_prev, q, buf = np.zeros(dim), np.zeros(dim), np.empty(dim)
    q[origin] = 1.0
    diag, off, c = [], [], []
    beta, prev, moved, pairs = 0.0, None, math.inf, 0
    # einsum's one-pass reductions, not @: a BLAS dot on the long vectors wakes its threads
    for i in range(1, max_steps + 1):
        y = _banded_product(S, q)
        c.append(float(np.einsum("i,i->", sqrt_pi, q)))
        alpha = float(np.einsum("i,i->", q, y))
        y -= np.multiply(q, alpha, out=buf)
        y -= np.multiply(q_prev, beta, out=buf)
        if i == dim <= DENSE_EIG_CUTOFF:
            return feynman_kac_spectral(spec, t), i, pairs + dim
        diag.append(alpha)
        beta = 0.0 if i == dim else math.sqrt(float(np.einsum("i,i->", y, y)))  # i == dim: the space is exhausted
        off.append(beta)
        q_prev, q = q, q_prev
        broke = beta <= _BREAKDOWN
        if not broke:
            np.divide(y, beta, out=q)
        if (i < first or (i - first) % _CHECK_EVERY) and not broke:
            continue
        total, solved = _ritz_sum(np.array(diag), np.array(off[:-1]), np.array(c), t, tol)
        pairs += solved
        value = total / sqrt_pi[origin]
        if prev is not None:
            moved = abs(value - prev)
        if broke or moved <= tol * abs(value):  # a value that underflowed to 0 stays 0
            return value, i, pairs
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
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError(f"time must be finite and >= 0, got {t!r}")
    n_paths = _path_count(n_paths)
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
    t_values: np.ndarray


def _duhamel_kernel(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """``K_ij = ∫_0^t e^{-a_i s} e^{-b_j (t-s)} ds`` in closed form.

    ``e^{-min(a_i, b_j) t} (1 - e^{-|a_i - b_j| t}) / |a_i - b_j|``, with the
    limit ``t e^{-a_i t}`` at equal exponents; ``expm1`` keeps the digits of
    nearly equal ones.
    """
    gap = np.abs(np.subtract.outer(a, b))
    low = np.minimum.outer(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(gap > 0, -np.expm1(-gap * t) / gap, t)
    return np.exp(-low * t) * frac


def perturbation_identity_check(spec: OperatorSpec, t_values) -> PerturbationReport:
    """Verify both Duhamel-type identities linking the penalized semigroup.

    For ``f = 1`` evaluates ``R_t f - [P_t f - lam ∫_0^t P_s(phi R_{t-s} f) ds]``
    at the origin, and the mirrored form with the integrand
    ``R_s(phi P_{t-s} f)``; ``R`` is the spec's penalized semigroup and ``P``
    the plain one (``lam = 0``).  Both integrals are exact: with the
    eigenpairs ``(lambda_i, v_i)`` of the plain symmetrized operator,
    ``(mu_j, w_j)`` of the penalized one, and ``C = V^T diag(phi) W``, the
    first is ``v[o]^T (C∘K) W^T sqrt(pi) / sqrt(pi_o)`` and the second
    ``w[o]^T (C∘K)^T V^T sqrt(pi) / sqrt(pi_o)``, where ``K_ij`` integrates
    ``e^{-lambda_i s} e^{-mu_j (t-s)}`` over ``[0, t]`` (Van Loan, IEEE TAC
    1978).  Both eigenbases are the specs' cached ``dense_eig``, so the box
    must fit under the dense cutoff.
    """
    t_arr = np.atleast_1d(np.asarray(t_values, dtype=float))
    if t_arr.ndim != 1 or not t_arr.size or not np.all(np.isfinite(t_arr) & (t_arr > 0)):
        raise ValidationError("identity check needs a nonempty 1-D grid of positive finite times")
    plain = replace(spec, lam=0.0)
    mu, W, sqrt_pi = spec.dense_eig
    lams, V, _ = plain.dense_eig
    o = spec.stencil.origin
    C = V.T @ (spec.phi_box[:, None] * W)
    r_proj, p_proj = W.T @ sqrt_pi, V.T @ sqrt_pi
    dev1 = np.empty(len(t_arr))
    dev2 = np.empty(len(t_arr))
    for i, t in enumerate(t_arr):
        CK = C * _duhamel_kernel(lams, mu, t)
        first = float(V[o] @ CK @ r_proj) / sqrt_pi[o]  # ∫ P_s(phi R_{t-s} 1)(o) ds
        second = float(p_proj @ CK @ W[o]) / sqrt_pi[o]  # ∫ R_s(phi P_{t-s} 1)(o) ds
        r_t = feynman_kac_spectral(spec, t)
        p_t = feynman_kac_spectral(plain, t)
        dev1[i] = abs(r_t - (p_t - spec.lam * first))
        dev2[i] = abs(r_t - (p_t - spec.lam * second))
    return PerturbationReport(
        max_deviation=float(max(dev1.max(), dev2.max())),
        deviations_first=dev1,
        deviations_second=dev2,
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
    ritz_pairs: int  # Ritz pairs the run's checks solved


def survival_bound_check(spec: OperatorSpec, t: float | None = None) -> SurvivalBoundReport:
    """Check ``e^{lam t^eps} E[e^{-lam A}; t<tau] <= (2^{d+2} d)^{1/2} N^{d/2} e^{-t m(N)/2}``.

    The left side comes from one Lanczos run on the spec's symmetrized
    operator (``feynman_kac_lanczos``), the matrix the floor check reads;
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
    fk, steps, pairs = feynman_kac_lanczos(spec, t)
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
        ritz_pairs=pairs,
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
    products: int  # half products of ``heatkernel.exit_mass`` behind p_exit


def exit_time_tail_check(spec: OperatorSpec, t_grid) -> ExitTailReport:
    """Exact ``P(tau_N <= t)`` with its envelope ``C t N^{d-1} e^{-N^2/4t} + e^{-ct}``.

    ``N`` is ``spec.box_radius``.  The tail is the mass the plain killed walk
    on the spec's box has carried over the rim, with Poisson truncation error
    below ``_EXIT_TOL`` (the spec's killing rate plays no part): one
    ``heatkernel.exit_mass`` run to the truncation of the last time gives
    the per-jump sequence, and each time mixes its prefix (``products``
    counts that run's half products).  The free
    constants are chosen as the tightest dominating envelope over the grid
    points with ``p_exit > 0`` (reported, never assumed).  The Gaussian-slope
    regression of ``log P`` against ``N^2/(4t)`` over the same points should
    stay below -1 when the bound shape is respected.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or not t.size or not np.all(np.isfinite(t) & (t > 0)) or np.any(np.diff(t) <= 0):
        raise ValidationError("t grid must be a nonempty, finite, positive, increasing sequence")
    N = spec.box_radius
    weights = [poisson_weights(tj, poisson_truncation_k(tj, _EXIT_TOL)) for tj in t]
    k_max = max(len(w) for w in weights) - 1
    mass = exit_mass(spec.stencil, k_max)
    p_exit = np.array([float(w @ mass[: len(w)]) for w in weights])

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
        products=max(k_max - 1, 0),
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
    A = S.tocsc() - shift * identity(S.shape[0], format="csc")
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular: shift is an eigenvalue
        return None
    pivots = lu.U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(np.isfinite(pivots) & (pivots != 0)):
        return None
    return int(np.count_nonzero(pivots < 0))


def _test_vector_floor(spec: OperatorSpec, shift: float) -> bool:
    """Whether a positive test vector proves that every eigenvalue of ``S`` exceeds ``shift``.

    ``S`` is the spec's symmetrized operator, whose off-diagonal entries are
    nonpositive, so ``lambda_min(S) >= min_x (S v)_x / v_x`` for every
    ``v > 0`` (Collatz-Wielandt).  ``v = sqrt(pi)`` on the strong cluster,
    where ``(S v)_x / v_x = lam + exit_x >= lam`` away from the holes; on
    the hole sites (``phi_box == 0``) ``v`` solves
    ``(S_HH - 2 shift I) v_H = -S_HC v_C``, so there ``(S v)_x = 2 shift v_x``.
    No solve runs on a box without hole sites.  The proof holds when
    ``v > 0`` and ``(S - shift I) v`` exceeds, on every row, the rounding
    bound of its ``2d + 2`` products and sums,
    ``(2d + 3) eps (|S| v + |shift| v)`` (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 3.1).  A singular hole block, a
    nonpositive entry of ``v`` or a row at or below the bound declines.
    """
    S, sqrt_pi = spec.symmetrized
    v = sqrt_pi.copy()
    hole = np.flatnonzero(spec.phi_box == 0)
    if hole.size:
        rows = S.tocsr()[hole]
        v_cluster = v.copy()
        v_cluster[hole] = 0.0
        block = (rows[:, hole] - 2.0 * shift * identity(hole.size)).tocsc()
        try:
            v[hole] = splu(block).solve(-(rows @ v_cluster))
        except RuntimeError:  # exactly singular hole block
            return False
        if not np.all(v[hole] > 0):  # also refuses nan
            return False
    bound = (2 * spec.env.geometry.d + 3) * np.finfo(float).eps * (abs(S) @ v + abs(shift) * v)
    return bool(np.all(S @ v - shift * v > bound))


@dataclass(frozen=True)
class FloorCertificate:
    """Verdict on ``Lambda1 >= m_N`` and how it was reached.

    ``method`` names the route that settled it: ``"barta"`` when a positive
    test vector proved the floor (``_test_vector_floor``), ``"inertia"``
    when the factorization of ``S - m_N I`` had no negative pivot, and
    ``"eigsh"`` when the verdict came from ``lambda1``.  ``neg_pivots``
    counts the eigenvalues below ``m_N``: 0 on the first two routes (proven
    by the test vector, or read off the pivots), the factorization's
    negative-pivot count on the eigsh route, ``-1`` there when it gave no
    valid inertia.  ``iterations`` counts the shift-invert solves of the
    eigensolve (0 on the first two routes).
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

    Three routes, each tried only when the one before declines, with ``S``
    the spec's symmetrized operator:

    1. ``"barta"``: a positive test vector proves every eigenvalue of ``S``
       above ``m(N)`` with a few sparse products (``_test_vector_floor``);
    2. ``"inertia"``: one factorization of ``S - m(N) I`` with zero
       negative pivots proves the floor without an eigensolve;
    3. ``"eigsh"``: a negative pivot, or a factorization that is not a valid
       LDL^T (see ``negative_pivots``), falls back to ``lambda1(spec, tol)``,
       or to the caller's ``principal`` report of it, and the verdict is
       then ``Lambda1 >= m(N)``.

    So only a passing verdict skips the eigensolve.  The floor holds at the
    rate of ``prescribed_spec``.
    """
    m_n = eigenvalue_floor(spec.env.geometry.d, spec.env.gamma, spec.box_radius, spec.mu)
    if _test_vector_floor(spec, m_n):
        return FloorCertificate(m_N=m_n, passed=True, neg_pivots=0, method="barta", iterations=0)
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
    N = _integral_radius(N)
    if N < 0:
        raise ValidationError("box radius must be >= 0")
    return 1.0 - math.cos(math.pi / (2 * N + 2))

