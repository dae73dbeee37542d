"""Return probabilities: a Lanczos quadrature bracket, uniformization, Monte Carlo, fits.

Exact curves come from one Lanczos run started at the origin on the square
of the symmetrized jump matrix of the killed box chain, restricted to the
origin's sublattice: the walk is bipartite, so this folded run gives the
same Gauss rule as a run on the matrix itself in half the steps, and each
of its steps multiplies by the two parity blocks of the matrix, each on the
rows it reaches.  Its tridiagonal matrix gives, for every time of the grid
at once, a Gauss lower bound and a Gauss-Radau upper bound (node fixed at
1, the top of the spectrum of the square) on ``p(t) = P(X_t = 0)``, and the
run stops when the bracket is narrower than a relative tolerance.  Step
``i`` touches only the L1 ball of radius ``2i`` around the origin, and the
run takes about ``sqrt(t) / 2`` steps where the Poisson series takes about
``t`` full-box products; when ``2 steps <= n`` it never meets the rim of
``B_n`` and brackets the kernel of the walk on all of Z^d.  Only that ball
is read: the chain killed on leaving ``B_n ∩ {|x|_1 <= R}``, its sites by
(L1 distance, canonical index), ``R`` a few radii past the a priori reach
and grown in place when a run outlasts it (68k of the 231k sites of
``B_240`` at ``t <= 400``).  Its parity blocks come in two parts.  The
pattern (``_ball_pattern``) depends on ``(d, N, n, R)`` alone: the ball's
bonds as id ranges, numbered from the strides, and each site's bonds and
each block's rows, columns and entry bonds as places in those ranges.  The
gather (``_folded_operator``) reads one environment's conductances of those
ranges alone (``Environment.conductances``) into ``pi`` and the scaled
blocks, so a curve on a sampled environment draws and numbers only its
ball, and builds no conductance table, ``bond_id_table`` or
``all_coords`` of the box.  An exponent run passes one dict
(``patterns``) to all its curves, which share the box and the radii and so
build each pattern in it once, and drops it on return: a pattern that
outlived the run would make a later run in the same process cheaper than a
fresh one.  A curve given no dict builds its own, except a ball that is all
of ``B_n``, which it cuts from the killed box chain of
``walk.transition_matrix`` (``_box_operator``), the assembly perfbench's
operator counters trace, at about three times the cost of a whole-box
pattern used once.

``UniformizationCache`` keeps the Poisson-series engine,
``p(t) = e^{-t} sum_k t^k/k! P^k(0,0)`` with a Chernoff-certified truncation:
it is the independent oracle of the bracket, and it serves what needs the
jump powers or the whole law, namely the discrete-time kernel and its
Poisson-mixture lower bound, the full laws on a time grid and the
time-changed walk's chain on the strong cluster.  ``exit_mass`` propagates
the killed walk's mass over the rim of ``B_n``, the exit-time tail's
per-jump sequence, on the half of the box the walk can occupy after each
jump, by half blocks laid out on their diagonals from the box's stencil
(``walk.box_stencil``) with no sparse-row matrix built.  On
the penalized generator ``I - P + lam diag(phi)`` the engine's surviving
mass is the Feynman-Kac value ``E[exp(-lam A(t)); t < tau]``, the oracle of
``spectral.feynman_kac_lanczos``, which shares this module's step estimate,
check schedule and tridiagonal eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import coo_matrix, csr_matrix, diags
from scipy.special import gammaln, stdtrit

from .errors import NumericalError, ValidationError
from .lattice import _CONFIDENCE, BoxGeometry, Environment, _integral_radius
from .percolation import ClusterDecomposition
from .walk import (
    BoxChain,
    BoxStencil,
    EnsembleResult,
    _banded_product,
    _cluster_site,
    _on_diagonals,
    _path_count,
    _row_product,
    effective_conductance_matrix,
    ensemble_walk,
    transition_matrix,
)

_LAW_TOL = 1e-12  # Poisson mass left out of a full law ``UniformizationCache.distribution``


def poisson_truncation_k(rate: float, tol: float) -> int:
    """Smallest Chernoff-certified K with ``P(Poisson(rate) > K) < tol``."""
    if not 0 <= rate < math.inf:
        raise ValidationError(f"rate must be finite and >= 0, got {rate!r}")
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
    if not 0 < t_max < math.inf:
        raise ValidationError(f"horizon must be positive and finite, got {t_max!r}")
    if not 0 < c < math.inf:
        raise ValidationError(f"coupling constant must be positive and finite, got {c!r}")
    return max(2, int(math.ceil(c * math.sqrt(t_max) * max(math.log(t_max), 1.0))))


def default_time_grid(t_min: float, t_max: float, per_decade: int = 12) -> np.ndarray:
    """Geometric time grid with ``per_decade`` points per decade."""
    if not 0 < t_min < t_max < math.inf:
        raise ValidationError(f"need 0 < t_min < t_max < inf, got t_min={t_min!r}, t_max={t_max!r}")
    per_decade = _integral_radius(per_decade, "points per decade")
    if per_decade < 2:
        raise ValidationError(f"points per decade must be >= 2, got {per_decade!r}")
    n = max(2, int(math.ceil(per_decade * math.log10(t_max / t_min))) + 1)
    return np.geomspace(t_min, t_max, n)


def _time_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)) or np.any(t < 0) or np.any(np.diff(t) <= 0):
        raise ValidationError("t grid must be a nonempty, finite, nonnegative, increasing sequence")
    return t


class UniformizationCache:
    """Shared jump-chain propagation for all time points of one box.

    Uniformizes ``-G = I - P + lam diag(phi)`` at rate ``1 + lam`` through
    the substochastic matrix ``M = (P + lam diag(1 - phi)) / (1 + lam)``;
    ``phi`` is indexed by environment site, with values in ``[0, 1]`` (``M``
    is substochastic only then), and ``None`` means every site counts
    (``ensemble_walk``'s convention).  ``a_k = M^k(0,0)`` doubles as
    the discrete-time return probability and as the coefficient of the
    Poisson mixture; ``mass_k`` is the surviving mass after k jumps
    (identically 1 on a chain without exit), so ``survival`` is
    ``E[exp(-lam A(t)); t < tau]``.  The mass carried over the rim, which
    keeps the digits that ``1 - survival`` cancels, is ``exit_mass``'s.
    ``chain`` reuses an assembled chain of ``env`` in place of
    ``transition_matrix(env, box_radius)``; one of another environment or
    radius is refused.  ``env`` is kept, so a check can refuse a cache
    built on another environment.
    """

    def __init__(
        self,
        env: Environment,
        box_radius: int | None = None,
        lam: float = 0.0,
        phi: np.ndarray | None = None,
        chain: BoxChain | None = None,
    ):
        if not 0 <= lam < math.inf:
            raise ValidationError(f"killing rate must be finite and >= 0, got {lam!r}")
        if phi is not None:
            phi = np.asarray(phi)
            if phi.shape != (env.geometry.n_sites,) or not np.all((phi >= 0) & (phi <= 1)):
                raise ValidationError(f"phi must hold one value in [0, 1] for each of the {env.geometry.n_sites} sites")
        if chain is not None and chain.env is not env:
            raise ValidationError("the chain was read from a different environment")
        if chain is not None and box_radius is not None and _integral_radius(box_radius) != chain.box_radius:
            raise ValidationError(f"box radius {box_radius!r} given with a chain on radius {chain.box_radius}")
        self.env = env
        self.chain: BoxChain = transition_matrix(env, box_radius) if chain is None else chain
        self.lam = float(lam)
        M = self.chain.P
        if lam > 0:
            if phi is not None:
                M = M + diags(lam * (1.0 - phi[self.chain.sites]))
            M = M / (1.0 + lam)
        self._prop = M.T.tocsr()
        vec = np.zeros(M.shape[0])
        vec[self.chain.origin] = 1.0
        self._vec = vec
        self.a = [1.0]
        self.mass = [1.0]

    def ensure(self, k_max: int) -> None:
        while len(self.a) <= k_max:
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
        """Poisson mixture at time ``t`` of a per-jump sequence (``a`` or ``mass``)."""
        w = self._weights(t, tol)
        self.ensure(len(w) - 1)
        return float(w @ np.asarray(seq[: len(w)]))

    def return_prob(self, t: float, tol: float = 1e-12) -> float:
        return self._mixture(self.a, t, tol)

    def survival(self, t: float, tol: float = 1e-12) -> float:
        """P(walk still alive at time t), weighted by ``exp(-lam A(t))``."""
        return self._mixture(self.mass, t, tol)

    def discrete(self, n: int) -> float:
        """Discrete-time return probability ``M^n(0,0)``."""
        if n < 0:
            raise ValidationError("step count must be >= 0")
        self.ensure(n)
        return self.a[n]

    def distribution(self, t_grid) -> np.ndarray:
        """Full laws ``P(X_t = y)`` over the box sites, one row per time of ``t_grid``, Poisson tails below ``_LAW_TOL``.

        One propagation, to the truncation of the last time, serves every
        row, and each row adds the same terms in the same order as a
        propagation for its time alone would.  The propagation is fresh:
        it does not extend the cached sequences.
        """
        weights = [self._weights(tj, _LAW_TOL) for tj in _time_grid(t_grid)]
        vec = np.zeros(self._prop.shape[0])
        vec[self.chain.origin] = 1.0
        out = np.array([w[0] * vec for w in weights])
        for k in range(1, len(weights[-1])):
            vec = self._prop @ vec
            for row, w in zip(out, weights):
                if k < len(w):
                    row += w[k] * vec
        return out


def _half_blocks(stencil: BoxStencil) -> list:
    """``P^T`` of the killed box chain from the half of parity ``1 - p`` to that of ``p``, on ``2d`` diagonals.

    Column ``j`` of ``blocks[p]`` is site ``x = 2 j + 1 - p``, whose rate
    ``w / pi[x]`` along step ``s`` lands on row ``(x + s) // 2``.
    """
    m = len(stencil.pi)
    rate = np.zeros_like(stencil.w)
    np.divide(stencil.w, stencil.pi, out=rate, where=stencil.bonds)
    sizes = ((m + 1) // 2, m // 2)
    return [
        _on_diagonals(rate[:, 1 - p :: 2], (-stencil.steps - 1 + 2 * p) // 2, (sizes[p], sizes[1 - p])) for p in (0, 1)
    ]


def exit_mass(stencil: BoxStencil, k_max: int) -> np.ndarray:
    """The mass the killed walk on ``B_n`` has carried over the rim within ``k`` jumps, for ``k = 0..k_max``.

    Entry ``k`` is ``sum_{j < k} (P^j exit)(0)``, the probability that the
    jump chain started at the origin has left ``B_n`` by its ``k``-th jump,
    so its Poisson mixture at rate ``t`` is ``P(tau_n <= t)``.  The chain
    has no holding, so after ``j`` jumps it sits on the sites whose L1
    parity is that of ``j``.  The box side ``2n + 1`` is odd, hence so is
    every stride, and a site's parity is that of its canonical index: the
    two halves are ``[0::2]`` and ``[1::2]``.  The propagated vector holds
    only the live half, and each of the ``k_max - 1`` products multiplies it
    by a half block (``_half_blocks``); each step's rim flux is one dot
    product over the whole rim, the other half's sites held at zero, so the
    sequence is bit for bit that of propagating the full vector by the
    ``P^T`` of ``transition_matrix``.
    """
    if not isinstance(stencil, BoxStencil):
        raise ValidationError(f"the exit mass reads a box stencil (walk.box_stencil), got {type(stencil).__name__}")
    k_max = _integral_radius(k_max, "jump count")
    if k_max < 0:
        raise ValidationError(f"jump count must be >= 0, got {k_max}")
    blocks = _half_blocks(stencil)
    rim = np.flatnonzero(stencil.exit)
    rim_exit = stencil.exit[rim]
    halves = [(at, rim[at] // 2) for at in (np.flatnonzero(rim % 2 == p) for p in (0, 1))]  # rim places, half indices
    padded = [np.zeros(len(rim)), np.zeros(len(rim))]  # the whole rim, the other half's sites held at zero
    p = stencil.origin % 2
    live = np.zeros(blocks[p].shape[0])
    live[stencil.origin // 2] = 1.0
    out = np.zeros(k_max + 1)
    exited = 0.0
    for k in range(1, k_max + 1):
        at, pos = halves[p]
        padded[p][at] = live[pos]
        exited += float(padded[p] @ rim_exit)
        out[k] = exited
        if k < k_max:
            p = 1 - p
            live = _banded_product(blocks[p], live)
    return out


@dataclass
class ReturnProbabilityCurve:
    """Return probabilities on a time grid with provenance.

    ``stderr`` is zero for exact methods.  ``survival`` monitors the
    Dirichlet truncation (total mass still alive at each time).  Exact
    curves carry their quadrature bracket ``p_lo <= p(t) <= p_hi`` (``p`` is
    ``p_lo``), the Lanczos ``steps`` behind it and the number of
    conductances they read, ``bonds``; other methods leave the bracket
    ``None`` and ``bonds`` 0.
    """

    t: np.ndarray
    p: np.ndarray
    stderr: np.ndarray
    method: str  # "exact-lanczos" | "monte-carlo"
    d: int
    N: int  # operator box radius
    gamma: float
    seed: int
    survival: np.ndarray | None = None
    p_lo: np.ndarray | None = None
    p_hi: np.ndarray | None = None
    steps: int = 0
    bonds: int = 0


# Folded Lanczos steps between two convergence checks, the share of the a
# priori step count m* (counted in steps of the unfolded recurrence, two per
# folded step) at which the first check comes, and the coefficient below which
# the recurrence has found an invariant subspace (breakdown); the unfolded
# run of spectral.feynman_kac_lanczos takes the same three, in its own steps.
# The first ball reaches _BALL_MARGIN radii past m*, which most runs stay
# under: at n = 240, t <= 400 (m* = 174) the perfbench curves close after 84
# folded steps, which read L1 radius 168.  A run that outlasts its ball goes
# on in one that reaches _BLOCK_RADII radii further than its step.
_CHECK_EVERY = 5
_FIRST_CHECK = 0.8
_BREAKDOWN = 1e-14
_BLOCK_RADII = 10
_BALL_MARGIN = 10

@dataclass(frozen=True)
class _BallPattern:
    """The structure of the folded operator's parity blocks on ``B_n ∩ {|x|_1 <= R}``, without conductances.

    Only ``(d, N, n, R)`` determines it.  ``bond_ranges``, ``(k, 2)``, are
    the ascending bond-id ranges ``[start, stop)`` that hold every bond with
    an end in the ball, one per line of the last coordinate; a bond's
    position is its place in their concatenation, where ``pi`` and the
    blocks read its conductance.  Per parity, even first, over that
    parity's sites in (L1 distance, canonical index) order: ``site_bonds``,
    the ``(2d, sites)`` bond positions of each site in incidence order,
    which ``pi`` sums in; the block whose rows are those sites and whose
    columns are the other parity's, as CSR ``indptr`` and ``indices`` with
    each entry's bond position ``entry_bonds`` (each row by ascending
    canonical neighbor index); and ``balls[r]``, the number of its sites
    within L1 distance ``r``.  Index arrays are ``int32`` and read-only: the
    blocks of every environment share them.
    """

    bond_ranges: np.ndarray
    site_bonds: tuple[np.ndarray, np.ndarray]
    indptr: tuple[np.ndarray, np.ndarray]
    indices: tuple[np.ndarray, np.ndarray]
    entry_bonds: tuple[np.ndarray, np.ndarray]
    balls: tuple[np.ndarray, np.ndarray]


def _ball_pattern(geom: BoxGeometry, box_radius: int, radius: int) -> _BallPattern:
    """The pattern of the parity blocks on ``B_n ∩ {|x|_1 <= radius}``, from the strides alone.

    The walk is killed on leaving that set; ``n <= N - 1`` gives every site
    all ``2d`` of its bonds inside the stored environment, so ``pi`` is the
    full invariant measure.  Each parity keeps the ball's order, (L1
    distance, canonical index), which does not depend on either radius, so
    two balls share every prefix that fits in both.

    A bond ``(x, +e_i)`` with an end in the ball has its lower end ``x`` in
    the ball or one step below it, so ``x`` lies on a line of the last
    coordinate whose head (the first ``d - 1`` coordinates) is in
    ``[-a - 1, a]^(d-1)``, ``a = min(n, radius)``.  On each line these ends
    fill one span of the last coordinate: the ball's own sites, reaching
    ``r`` from 0, with one more below, and those below the lines one step
    up.  Every site of ``B_(n+1)`` short of the top face has all ``d`` of its
    bonds, so a span's bonds are one id range, whose start
    ``BoxGeometry.bond_ids`` gives in closed form, and a bond's position
    follows from its line and last coordinate: no bond is looked up or
    sorted.
    """
    n = _integral_radius(box_radius)
    if not 0 <= n <= geom.N - 1:
        raise ValidationError(f"killed chain needs box radius in [0, {geom.N - 1}] (environment radius {geom.N})")
    d, strides = geom.d, geom.strides
    a = min(n, radius)
    width = 2 * a + 2  # heads on each axis, from -a - 1
    line_strides = width ** np.arange(d - 2, -1, -1)
    sites = geom.l1_ball_indices(n, radius)
    coords = geom.site_coords(sites)
    l1 = np.abs(coords).sum(axis=1)
    line, last = (coords[:, :-1] + a + 1) @ line_strides, d * coords[:, -1]  # each site's line, and d x_d
    del coords
    heads = np.indices((width,) * (d - 1)).reshape(d - 1, -1).T - (a + 1)
    head_l1 = np.abs(heads).sum(axis=1)
    reach = np.where((heads >= -a).all(axis=1) & (head_l1 <= radius), np.minimum(radius - head_l1, a), -1)
    above = np.full((width,) * (d - 1), -1)  # the reach of the lines one step up, the most of them
    for i in range(d - 1):
        up, line_reach = np.moveaxis(above, i, 0), np.moveaxis(reach.reshape(above.shape), i, 0)
        np.maximum(up[:-1], line_reach[1:], out=up[:-1])
    above = above.ravel()
    lo, hi = -np.maximum(np.where(reach >= 0, reach + 1, -1), above), np.maximum(reach, above)
    count = d * np.maximum(hi - lo + 1, 0)
    first = np.cumsum(count) - count - d * lo  # the position of the first bond of a line's site at last coordinate 0
    full = np.flatnonzero(count)
    start = geom.bond_ids((heads[full] + geom.N) @ strides[:-1] + (lo[full] + geom.N))[:, 0]
    bond_ranges = np.column_stack((start, start + count[full]))
    sides = [np.flatnonzero(l1 % 2 == parity) for parity in (0, 1)]
    rank = np.full(geom.n_sites, -1, dtype=np.int32)  # position among the ball's sites of its parity
    for rows in sides:
        rank[sites[rows]] = np.arange(len(rows))
    ascending = np.r_[0 : 2 * d : 2, 2 * d - 1 : 0 : -2]  # -e_1, ..., -e_d, +e_d, ..., +e_1
    parts = []
    for rows in sides:  # one parity, and one direction, at a time: no (2d, sites) index array of the ball
        on, on_line, on_last = sites[rows], line[rows], last[rows]
        base = first[on_line] + on_last  # the position of each site's first bond
        bonds = np.empty((2 * d, len(rows)), dtype=np.int32)
        for i in range(d):  # the incidence order -e_1, +e_1, -e_2, ...
            below = base - d if i == d - 1 else first[on_line - line_strides[i]] + on_last
            bonds[2 * i], bonds[2 * i + 1] = below + i, base + i
        cols = np.empty((len(rows), 2 * d), dtype=np.int32)  # a neighbor's parity is the other one
        for k, c in enumerate(ascending):  # by ascending neighbor index
            cols[:, k] = rank[on + geom.steps[c]]
        inside = cols >= 0
        indptr = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(inside.sum(axis=1), out=indptr[1:])
        side = (bonds, indptr, cols[inside], bonds[ascending].T[inside])
        for array in side:
            array.flags.writeable = False
        parts.append(side + (np.searchsorted(l1[rows], np.arange(radius + 1), side="right"),))
    bond_ranges.flags.writeable = False
    return _BallPattern(bond_ranges, *(tuple(part) for part in zip(*parts)))


def _folded_operator(env: Environment, pattern: _BallPattern):
    """The parity blocks of ``A = D^(1/2) P D^(-1/2)`` on the pattern's ball, read from ``env``'s conductances.

    The walk only jumps between sites of opposite parity (that of the L1
    distance from the origin), so over the even sites, then the odd ones,
    ``A = [[0, C^T], [C, 0]]``.  The conductances come in one read of the
    pattern's bond ranges (``Environment.conductances``), which on a
    sampled environment draws those bonds alone and no table.  ``pi`` sums
    each site's conductances in the incidence order of
    ``Environment.pi_all`` and each entry is ``omega / pi[row] * (sqrt(pi[row])
    / sqrt(pi[col]))``, the bits of the jump matrix and then the
    similarity, so the blocks are those of the killed chain on the ball bit
    for bit.  Returns, even parity first, the blocks ``(C^T, C)`` on the
    pattern's index arrays, the survival weights ``sqrt(pi / pi_0)`` and the
    pattern's ``balls``.  The pattern costs about two gathers to build
    (n = 240, R = 184, on two cores: 10-15 ms against 6-9 ms for a gather
    that draws the ball's 137k bonds), so an exponent run builds it once for
    all its environments.
    """
    omega = env.conductances(pattern.bond_ranges)
    pis = []
    for site_bonds in pattern.site_bonds:
        pi = np.zeros(site_bonds.shape[1])
        for bonds in site_bonds:
            pi += omega[bonds]
        pis.append(pi)
    sqs = [np.sqrt(pi) for pi in pis]
    blocks = []
    for parity in (0, 1):
        pi, sq, indptr, indices = pis[parity], sqs[parity], pattern.indptr[parity], pattern.indices[parity]
        count = np.diff(indptr)
        pi_row, sq_row = np.repeat(pi, count), np.repeat(sq, count)
        data = omega[pattern.entry_bonds[parity]] / pi_row * (sq_row / sqs[1 - parity][indices])
        blocks.append(csr_matrix((data, indices, indptr), shape=(len(pi), len(pis[1 - parity]))))
    return blocks, [sq / sqs[0][0] for sq in sqs], list(pattern.balls)


def _box_operator(chain: BoxChain):
    """``_folded_operator``'s blocks, weights and balls on all of ``B_n``, cut from the killed box chain.

    A ball of L1 radius ``d n`` is the whole box, and its killed chain is
    ``transition_matrix(env, n)``: its ``W`` and ``pi`` carry the bits the
    gather reads, its rows list their entries by ascending canonical
    neighbor index, and a stable sort of its canonical sites by L1 distance
    gives the ball's order, so the result equals the gather bit for bit.
    """
    W, pi, geom = chain.W, chain.pi, chain.env.geometry
    l1 = np.abs(geom.site_coords(chain.sites)).sum(axis=1)
    order = np.argsort(l1, kind="stable")
    sides = [order[l1[order] % 2 == parity] for parity in (0, 1)]
    sq = np.sqrt(pi)
    rank = np.empty(len(l1), dtype=W.indices.dtype)  # position among the sites of its parity
    for rows in sides:
        rank[rows] = np.arange(len(rows))
    blocks, weights, balls = [], [], []
    for rows, other in zip(sides, sides[::-1]):
        count = np.diff(W.indptr)[rows]
        indptr = np.zeros(len(rows) + 1, dtype=W.indptr.dtype)
        np.cumsum(count, out=indptr[1:])
        take = np.arange(indptr[-1]) + np.repeat(W.indptr[rows] - indptr[:-1], count)
        cols = W.indices[take]
        row = np.repeat(rows, count)
        data = W.data[take] / pi[row] * (sq[row] / sq[cols])  # the bits of P, then the similarity
        blocks.append(csr_matrix((data, rank[cols], indptr), shape=(len(rows), len(other))))
        weights.append(sq[rows] / sq[chain.origin])
        balls.append(np.searchsorted(l1[rows], np.arange(geom.d * chain.box_radius + 1), side="right"))
    return blocks, weights, balls


def _krylov_steps(t_max: float, tol: float, width: float = 2.0) -> float:
    """Lanczos steps that bring ``exp(-tH) v`` within ``tol`` at every ``t <= t_max``.

    The Hochbruck-Lubich bound (SIAM J. Numer. Anal. 1997) for a symmetric
    ``H`` whose spectrum lies in an interval of length ``width``.
    """
    return math.sqrt(1.25 * width * t_max * math.log(10.0 / tol))


def _ritz(diag: np.ndarray, off: np.ndarray):
    """Eigenvalues and eigenvectors of the symmetric tridiagonal matrix ``(diag, off)``.

    LAPACK's MRRR routine is named because scipy's default, divide and
    conquer, multiplies through threaded BLAS, whose idle workers then spin
    beside the recurrence.  MRRR can fail to converge on clustered ghost Ritz
    values, which a run that went on past an exhausted box produced (d = 2,
    n = 1, gamma = 8, t <= 400: 3 of 120 curves before such runs stopped at
    the dimension of the box); the implicit QL routine takes over there.
    """
    try:
        return eigh_tridiagonal(diag, off, lapack_driver="stemr")
    except LinAlgError:
        return eigh_tridiagonal(diag, off, lapack_driver="stev")


def _quadrature(
    diag: np.ndarray, off: np.ndarray, t: np.ndarray, c_even: np.ndarray | None = None, c_odd: np.ndarray | None = None
):
    """``e^{-t} e_1^T cosh(t T^(1/2)) e_1`` for the symmetric tridiagonal ``T`` at every ``t``.

    With ``c_even`` and ``c_odd`` also ``e^{-t} (c_even^T cosh(t T^(1/2)) e_1
    + c_odd^T sinh(t T^(1/2)) T^(-1/2) e_1)``.  Over the eigenvalues
    ``theta = r^2`` both come as ``e^{-t(1 - r)}`` times a factor at most 1
    (``T``'s spectrum lies in ``[0, 1]`` up to rounding), so nothing
    overflows; ``1 - r`` is taken as ``(1 - theta) / (1 + r)``, which keeps
    the digits of ``theta`` near 1.
    """
    theta, U = _ritz(diag, off)
    theta = np.maximum(theta, 0.0)
    r = np.sqrt(theta)
    tr = np.multiply.outer(t, r)
    slow = np.exp(-np.multiply.outer(t, (1.0 - theta) / (1.0 + r)))  # e^{-t(1 - r)}
    cosh = 0.5 * slow * (1.0 + np.exp(-2.0 * tr))
    p = (cosh * (U[0] * U[0])).sum(axis=1)
    if c_even is None:
        return p, None
    # e^{-t} sinh(tr) / r, with its limit t e^{-t} at r = 0
    sinh = np.where(r > 0, slow * -np.expm1(-2.0 * tr) / (2.0 * np.where(r > 0, r, 1.0)), (t * np.exp(-t))[:, None])
    surv = cosh * (U[0] * (c_even[:, None] * U).sum(axis=0)) + sinh * (U[0] * (c_odd[:, None] * U).sum(axis=0))
    return p, surv.sum(axis=1)


def _lanczos_bracket(env: Environment, box_radius: int, t: np.ndarray, tol: float, patterns: dict | None):
    """Gauss and Gauss-Radau brackets of ``p(t)``, the Krylov survival, and the step count.

    ``p(t) = e_0^T exp(-t(I - A)) e_0`` for the symmetrized jump matrix
    ``A``.  The walk is bipartite, so the odd powers of ``A`` vanish at the
    origin, and ``p(t) = e^{-t} e_0^T cosh(t B^(1/2)) e_0`` with ``B = A^2 =
    C^T C`` on the even sites (``_folded_operator``), whose spectrum lies in
    ``[0, 1]``.  The Lanczos recurrence runs on ``B`` from ``e_0``: on ``A``
    it would have zero diagonal and keep each vector on one parity, so every
    product would spend half its rows on zeros, and the folded run gives the
    same Gauss rule in half the steps (Golub & Kahan 1965).
    ``cosh(t sqrt(s))`` is absolutely monotone on ``s >= 0``, so the Gauss
    rule of the tridiagonal ``T_m`` is a lower bound at every ``t``, and the
    Gauss-Radau rule with a node fixed at 1, the top of the spectrum, an
    upper bound (Golub & Meurant 2010).  The Radau matrix is ``T_m``
    bordered by ``beta_m`` and the diagonal entry ``1 + beta_m^2 / d_m``,
    with ``d_m`` the last pivot of the LDL^T factorization of ``T_m - I``,
    updated once per step.

    Step ``i`` multiplies ``u_i``, which lives on the even sites within L1
    distance ``2i - 2``, by ``C`` (the odd rows within ``2i - 1``) and the
    result by ``C^T`` (the even rows within ``2i``), each product on those
    rows alone (``walk._row_product``).  The operator is read on
    ``B_n ∩ {|x|_1 <= R}`` alone, ``R`` starting at ``m* + _BALL_MARGIN``
    (below).  A run that would read past distance ``R`` before it closes
    goes on with the same vectors on a ball that covers the next
    ``_BLOCK_RADII`` radii: the smaller ball's order is a prefix of the
    larger one's, and the rows it reads equal those of all of ``B_n``.
    While ``2 i <= n`` the L1 ball of radius ``2 i`` lies in ``B_n``, so the
    products, and with them the coefficients and the bracket, are those of
    the operator on all of Z^d.  Only the last two vectors are kept.  The
    survival ``pi_0^(-1/2) sqrt(pi)^T exp(-t(I - A)) e_0`` splits into the
    even sites' ``cosh`` part and the odd sites' ``sinh(t B^(1/2))
    B^(-1/2)`` part (``A e_0 = C e_0`` carries the odd powers), read from
    the Krylov space through ``w_even . u_i`` and ``w_odd . C u_i``.  Each
    ball's pattern is looked up in ``patterns`` by ``(d, N, n, R)`` and
    built there when missing (``_ball_pattern``); with ``patterns=None`` a
    ball that is all of ``B_n`` is cut from the killed box chain instead
    (``_box_operator``), once, since the ball grows no further.

    Stops when the relative bracket width and the change of the survival
    since the previous check are below ``tol`` at every grid point, or on
    breakdown, where the Gauss rule is exact.  Step ``i`` equal to the
    number of even sites of ``B_n`` counts as breakdown: the Krylov space is
    then the whole sublattice, and a run that went on would only add ghost
    Ritz values.  That closure is taken, not checked: ``T_dim`` is exact in
    exact arithmetic, but in floating point ``beta_dim`` is not zero, and the
    Radau rule bordered by it does not close (relative width up to 1e20 at
    t = 400 on ``B_1`` in d = 2), so the run returns ``p_hi = p_lo``, which
    on 443 tiny-box curves (d = 2 and 3, t up to 400) stayed within 2.8e-13
    relative of the uniformization engine.  Let ``m*`` be the step count at
    which the Hochbruck-Lubich bound (``_krylov_steps``) on the Krylov error
    of ``exp(-t(I - A)) e_0`` (spectrum in ``[0, 2]``) falls below ``tol``
    at the last time, ``m* / 2`` in folded steps.  The checks start at ``0.8
    m* / 2``, and the run gives up, raising ``NumericalError`` with the last
    check's width, after ``2 m* + 32`` folded steps.  Each check solves the
    Gauss rule, and the Radau rule only once the survival has settled: the
    bench curves' brackets are closed from their first check (relative
    width 3e-15 to 8e-14 at steps 69-84), where only the survival decides,
    so a Radau solve before then decides nothing.
    """
    expected = _krylov_steps(float(t.max()), tol)
    first = max(_CHECK_EVERY, int(_FIRST_CHECK * expected / 2))
    max_steps = 32 + 2 * math.ceil(expected)
    d = env.geometry.d
    reach = d * box_radius  # the L1 radius of B_n
    dim = ((2 * box_radius + 1) ** d + (-1) ** (box_radius * d)) // 2  # the even sites of B_n
    radius = min(reach, max(0, math.ceil(expected) + _BALL_MARGIN))
    alone = patterns is None
    patterns = {} if alone else patterns

    def folded():
        if alone and radius == reach:
            return *_box_operator(transition_matrix(env, box_radius)), env.geometry.n_bonds
        key = (d, env.geometry.N, box_radius, radius)
        if key not in patterns:
            if alone:  # no later curve reads the smaller ball
                patterns.clear()
            patterns[key] = _ball_pattern(env.geometry, box_radius, radius)
        pattern = patterns[key]
        return *_folded_operator(env, pattern), int(np.diff(pattern.bond_ranges).sum())

    (CT, C), (w_even, w_odd), (even, odd), read = folded()
    u_prev, u, z = np.zeros(CT.shape[0]), np.zeros(CT.shape[0]), np.zeros(C.shape[0])
    u[0] = 1.0
    diag, off, c_even, c_odd = [], [], [], []
    beta, pivot, surv_prev, moved = 0.0, 1.0, None, math.inf
    for i in range(1, max_steps + 1):
        if radius < min(2 * i, reach):  # step i reads the sites at distance 2i
            radius = min(reach, 2 * i + _BLOCK_RADII - 2)
            (CT, C), (w_even, w_odd), (even, odd), more = folded()
            read += more
            u_prev, u = (np.concatenate((v, np.zeros(CT.shape[0] - len(v)))) for v in (u_prev, u))
            z = np.concatenate((z, np.zeros(C.shape[0] - len(z))))
        live, prev, rows = (even[min(r, radius)] for r in (2 * i - 2, max(2 * i - 4, 0), 2 * i))
        reached = odd[min(2 * i - 1, radius)]
        _row_product(C, u, z[:reached])  # rows beyond distance 2i - 1 meet no support of u
        y = _row_product(CT, z, np.empty(rows))
        alpha = float((u[:live] * y[:live]).sum())
        c_even.append(float((w_even[:live] * u[:live]).sum()))
        c_odd.append(float((w_odd[:reached] * z[:reached]).sum()))
        y[:live] -= alpha * u[:live]
        y[:prev] -= beta * u_prev[:prev]
        diag.append(alpha)
        pivot = alpha - 1.0 - beta * beta / pivot
        beta = 0.0 if i == dim else math.sqrt(float((y * y).sum()))  # i == dim: the space is exhausted
        off.append(beta)
        u_prev, u = u, u_prev
        broke = beta <= _BREAKDOWN
        if not broke:
            u[:rows] = y / beta
        if (i < first or (i - first) % _CHECK_EVERY) and not broke:
            continue
        p_lo, surv = _quadrature(np.array(diag), np.array(off[:-1]), t, np.array(c_even), np.array(c_odd))
        radau = (np.array(diag + [1.0 + beta * beta / pivot]), np.array(off))
        if surv_prev is not None:
            moved = float(np.max(np.abs(surv - surv_prev)))
        surv_prev = surv
        if not (broke or moved <= tol):  # the survival alone keeps the run going
            continue
        p_hi, _ = _quadrature(*radau, t)
        if broke or np.all(np.abs(p_hi - p_lo) <= tol * p_lo):
            # closed, the two rules agree to rounding, which can put Radau an ulp below Gauss
            p_hi = np.maximum(p_hi, p_lo)
            at_zero = t == 0
            p_lo[at_zero], p_hi[at_zero], surv[at_zero] = 1.0, 1.0, 1.0
            return p_lo, p_hi, surv, i, read
    p_hi, _ = _quadrature(*radau, t)  # the last check's width, for the message
    raise NumericalError(
        f"Lanczos bracket did not settle within tolerance {tol:g} in {max_steps} steps "
        f"(box radius {box_radius}, t_max {float(t.max()):g}: relative width "
        f"{float(np.max(np.abs(p_hi - p_lo) / p_lo)):.2e}, last survival change {moved:.2e})"
    )


def return_prob_exact(
    env: Environment,
    t: float,
    tol: float = 1e-12,
    box_radius: int | None = None,
) -> float:
    """``P(X_t = 0)`` for the walk killed on leaving ``B_n``, bracketed within relative ``tol``."""
    return float(return_prob_curve_exact(env, [t], tol, box_radius).p[0])


def return_prob_curve_exact(
    env: Environment,
    t_grid,
    tol: float = 1e-12,
    box_radius: int | None = None,
    patterns: dict | None = None,
) -> ReturnProbabilityCurve:
    """Exact return-probability curve from one Lanczos run serving every time.

    ``p_lo <= p(t) <= p_hi`` with ``p_hi - p_lo <= tol * p_lo`` at each grid
    point; ``p`` is ``p_lo``, and ``tol`` must lie in (0, 1): a relative
    width of 1 certifies nothing.  ``steps`` counts folded Lanczos steps,
    each of two half products.  When ``2 * steps <= N`` the bracket holds
    for the walk on Z^d in any extension of the environment.  Below about
    ``1e-13`` at ``t`` near 800 the width and the survival change wander on
    rounding noise, and a run can go on to near its step cap (environment 3
    of ``demos/annealed_small_gamma.cfg`` took 530 of 558 folded steps at
    ``tol = 1e-14``, 112 at the default).  A ``patterns`` dict keeps the ball
    patterns for later curves on the box; the curve does not depend on it.
    """
    if not 0 < tol < 1:
        raise ValidationError(f"tolerance must lie in (0, 1), got {tol!r}")
    t = _time_grid(t_grid)
    n = env.geometry.N - 1 if box_radius is None else _integral_radius(box_radius)
    p_lo, p_hi, surv, steps, bonds = _lanczos_bracket(env, n, t, tol, patterns)
    return ReturnProbabilityCurve(
        t=t,
        p=p_lo,
        stderr=np.zeros_like(p_lo),
        method="exact-lanczos",
        d=env.geometry.d,
        N=n,
        gamma=env.gamma,
        seed=env.seed,
        survival=surv,
        p_lo=p_lo,
        p_hi=p_hi,
        steps=steps,
        bonds=bonds,
    )


def _mc_estimate(res: EnsembleResult, origin: int) -> tuple[np.ndarray, np.ndarray]:
    """The share of an ensemble's paths at ``origin`` at each time of its grid, and its binomial standard error."""
    p = (res.site_at == origin).mean(axis=0)
    return p, np.sqrt(np.maximum(p * (1 - p), 0.0) / res.n_paths)


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
    n_paths = _path_count(n_paths)
    kill = env.geometry.N - 1 if box_radius is None else _integral_radius(box_radius)
    positive = t > 0
    origin = env.geometry.origin
    p, stderr = np.ones(len(t)), np.zeros(len(t))  # p(0) = 1, with stderr 0
    if positive.any():
        res = ensemble_walk(env, origin, n_paths, float(t[-1]), rng, kill_radius=kill, real_grid=t[positive])
        p[positive], stderr[positive] = _mc_estimate(res, origin)
    return ReturnProbabilityCurve(
        t=t,
        p=p,
        stderr=stderr,
        method="monte-carlo",
        d=env.geometry.d,
        N=kill,
        gamma=env.gamma,
        seed=env.seed,
    )


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
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError(f"time must be finite and >= 0, got {t!r}")
    n = int(math.floor(t))
    disc = cache.discrete(2 * n)
    return disc, float(poisson_weights(t, 2 * n)[::2].sum())


@dataclass
class HeatKernelHatCurve:
    """The time-changed kernel's envelope ``sup_y P(Xhat_t = y)`` on a time grid."""

    t: np.ndarray
    sup: np.ndarray
    rescaled: np.ndarray  # t^{d/2} * sup


def _time_changed_chain(env: Environment, decomp: ClusterDecomposition, x: int) -> BoxChain:
    """The time-changed walk's chain on the strong cluster, started at ``x``: conductances ``M``, no exit.

    ``M`` is the effective-conductance matrix over the cluster sites in
    canonical order; a jump may return to its start through a hole.
    """
    _cluster_site(env, decomp, x)
    M = effective_conductance_matrix(env, decomp)
    sites = np.flatnonzero(decomp.in_cluster)
    local = np.cumsum(decomp.in_cluster) - 1  # position among the cluster sites
    m = len(sites)
    W = coo_matrix((M.data, (local[M.row], local[M.col])), shape=(m, m)).tocsr()
    return BoxChain(W, sites, env.pi_all[sites], np.zeros(m), int(local[x]), env.geometry.N, env=env)


def heat_kernel_hat(env: Environment, decomp: ClusterDecomposition, x: int, t_grid) -> HeatKernelHatCurve:
    """Exact ``sup_y P(Xhat_t = y)`` of the time-changed walk from ``x``, with its rescaling.

    The time-changed walk is the rate-1 chain on the strong cluster with jump
    matrix ``diag(pi)^{-1} M``, ``M`` the effective-conductance matrix
    (``_time_changed_chain``); its laws on the grid come from one
    propagation of the uniformization engine on that chain, which has no
    exit.
    """
    chain = _time_changed_chain(env, decomp, x)
    t = _time_grid(t_grid)
    sup = UniformizationCache(env, chain=chain).distribution(t).max(axis=1)
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


def fit_exponent(curve: ReturnProbabilityCurve, window: tuple[float, float]) -> ExponentFit:
    """Weighted least-squares slope of ``log p`` against ``log t``.

    Exact curves are fitted unweighted; Monte Carlo curves use inverse
    variances of ``log p``.  The 95% confidence interval comes from the
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
    tq = float(stdtrit(dof, 0.5 + _CONFIDENCE / 2))
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
    box_radius: int | None = None,
    cache: UniformizationCache | None = None,
) -> CltBoundReport:
    """Check ``P(X_t=0) >= P(|X_{t/2}| <= sqrt(t))^2 (pi(0)/2d) / |C ∩ ball|``.

    Both sides come from exact propagation on the killed box (Poisson tails below 1e-12).
    A ``cache`` must hold the unpenalized chain of ``env``, on ``box_radius`` when that is given.
    """
    geom = env.geometry
    decomp.check_env(env)
    if not decomp.in_cluster[geom.origin]:
        raise ValidationError("origin is not on the strong cluster")
    if not (math.isfinite(t) and t > 0):
        raise ValidationError(f"time must be positive and finite, got {t!r}")
    if cache is None:
        cache = UniformizationCache(env, box_radius)
    elif cache.env is not env:
        raise ValidationError("the uniformization cache was built on a different environment")
    elif cache.lam:
        raise ValidationError("the bound needs the unpenalized chain")
    elif box_radius is not None and _integral_radius(box_radius) != cache.chain.box_radius:
        raise ValidationError(f"box radius {box_radius!r} given with a cache on radius {cache.chain.box_radius}")
    r = int(math.floor(math.sqrt(t)))
    if r > cache.chain.box_radius:
        raise ValidationError("sqrt(t) ball does not fit in the operator box")
    lhs = cache.return_prob(t)
    q = cache.distribution([t / 2.0])[0]
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
