"""Discrete chain, the Poisson-clock path ensemble, time change and effective conductances.

The walk jumps along bonds with probability proportional to their
conductance after independent Exp(1) waiting times.  Box experiments kill
the walk on its first exit from ``B_n``; because an environment stores only
in-box bonds, the genuine killed dynamics (full invariant measure at every
living site) are available for ``n <= N - 1``, which is the default
(``None``) kill radius of ``ensemble_walk`` and box radius of
``transition_matrix``.  Every box operator is read from one stencil
(``box_stencil``): ``transition_matrix`` lays it out as the killed chain's
sparse rows, the bound suite its operators on their diagonals.

The additive functional ``A(t)`` measures the time spent on the strong
cluster; suppressing hole visits through its inverse yields the
time-changed walk, whose one-step law from a site is the "next strong
cluster point" distribution: jumps into a hole fold through the hitting
law that ``ClusterDecomposition.hitting`` solves for all holes in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, dia_matrix
from scipy.sparse._sparsetools import csr_matvec, dia_matvec  # the compiled kernels behind sparse products

from .errors import ValidationError
from .lattice import BoxGeometry, Environment, _integral_radius
from .percolation import STRONG_LABEL, ClusterDecomposition


# ---------------------------------------------------------------------------
# one-step law and chain matrices
# ---------------------------------------------------------------------------


def step_distribution(env: Environment, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Jump law from ``x``: neighbors and probabilities ``omega/pi(x)``.

    Neighbors are returned in canonical incidence order, restricted to the
    box.  ``pi`` is the in-box conductance sum at ``x``.
    """
    geom = env.geometry
    x = geom.site(x)
    w = env.omega_by_direction[x]
    total = env.pi_all[x]
    if total <= 0:
        raise ValidationError(f"site {x} is isolated (pi = 0)")
    keep = w > 0
    return x + geom.steps[keep], w[keep] / total


def _cluster_site(env: Environment, decomp: ClusterDecomposition, x: int) -> None:
    """Refuse ``x`` unless it is a box site on the strong cluster of ``decomp``, computed on ``env``."""
    decomp.check_env(env)
    if decomp.labels[env.geometry.site(x)] != STRONG_LABEL:
        raise ValidationError(f"site {x} is not on the strong cluster")


@dataclass(frozen=True)
class BoxChain:
    """The walk killed on leaving ``B_n`` or another domain, as the conductances of its bonds.

    ``W`` holds ``omega_xy`` for each bond between two sites of the domain, in
    the domain's order (symmetric bit for bit on an environment's box); the
    jump matrix ``P = diag(pi)^-1 W`` and the symmetrized operators are
    scalings of it.  Rows use the full invariant measure, so the rows of
    ``P`` fall below 1 by ``exit``, the per-jump probability of leaving the
    domain (exactly 0 off its rim, and everywhere on a domain the walk
    cannot leave, such as the time-changed walk's strong cluster).  On
    ``B_n`` the sites come in canonical order; each row lists its entries by
    ascending canonical site index.  ``env`` is the environment the chain was
    read from, kept out of ``==`` and ``repr``.
    """

    W: csr_matrix
    sites: np.ndarray  # environment site indices, in the domain's order
    pi: np.ndarray
    exit: np.ndarray  # P(the next jump leaves the domain), per site
    origin: int  # position of the lattice origin among ``sites``
    box_radius: int
    env: Environment = field(compare=False, repr=False)

    @cached_property
    def P(self) -> csr_matrix:
        """The jump matrix ``w / pi[row]``, on ``W``'s index arrays."""
        W = self.W
        return csr_matrix((W.data / np.repeat(self.pi, np.diff(W.indptr)), W.indices, W.indptr), shape=W.shape)


@dataclass(frozen=True)
class BoxStencil:
    """The chain killed on leaving ``B_n`` as a stencil read off the environment, with no sparse matrix.

    ``w[c, x]`` is the conductance from site ``x`` of ``B_n`` (canonical
    order) toward its neighbor in direction ``c`` (incidence order ``-e_1,
    +e_1, -e_2, ...``), ``bonds[c, x]`` whether that bond carries
    conductance inside ``B_n``, and ``steps[c]`` its move of the canonical
    index; ``pi`` is bit for bit ``env.pi_all`` on ``B_n``.
    """

    w: np.ndarray
    bonds: np.ndarray
    pi: np.ndarray
    exit: np.ndarray
    steps: np.ndarray

    @property
    def origin(self) -> int:
        return (len(self.pi) - 1) // 2


def box_stencil(env: Environment, box_radius: int) -> BoxStencil:
    """The stencil of ``B_n``, ``n = box_radius <= N - 1``, so that every site has all its bonds."""
    geom = env.geometry
    n = geom.operator_radius(box_radius)
    w = np.ascontiguousarray(geom.sub_box_rows(env.omega_by_direction, n).T)
    bonds = w > 0
    grid = bonds.reshape((2 * geom.d,) + (2 * n + 1,) * geom.d)
    for i in range(geom.d):  # on B_n's own grid, -e_i leaves it at x_i = -n and +e_i at x_i = n
        np.moveaxis(grid[2 * i], i, 0)[0] = False
        np.moveaxis(grid[2 * i + 1], i, 0)[-1] = False
    pi = geom.sub_box_rows(env.pi_all, n)
    rim = np.zeros(len(pi))
    for row, inside in zip(w, bonds):  # in incidence order, the order pi sums in
        rim += np.where(inside, 0.0, row)
    return BoxStencil(w=w, bonds=bonds, pi=pi, exit=rim / pi, steps=BoxGeometry(geom.d, n).steps)


def _on_diagonals(values: np.ndarray, offsets: np.ndarray, shape: tuple[int, int]) -> dia_matrix:
    """The operator with entry ``(j - offsets[c], j) = values[c, j]``, stored by ascending diagonal.

    scipy's DIA product adds a row's terms in storage order, and ascending
    offsets are ascending columns, the order of a canonical sparse row, so
    each product is bit for bit the sparse-row one (absent bonds add zeros).
    On ``B_0`` the steps coincide, every bond leaves the box, and the zero
    columns that share a diagonal are summed.
    """
    diagonals, where = np.unique(offsets, return_inverse=True)
    data = np.zeros((len(diagonals), shape[1]))
    for c, k in enumerate(where):
        data[k] += values[c]
    return dia_matrix((data, diagonals), shape=shape)


def _banded_product(A: dia_matrix, x: np.ndarray) -> np.ndarray:
    """``A @ x`` through scipy's DIA kernel, the same sums in the same order, without the per-call dispatch.

    The long loops of the bound suite make thousands of short products, and
    the dispatch of ``@`` took about a quarter of each half product of the
    exit tail at N = 32 (6.9 us against 5.3 us through the kernel alone).
    """
    if x.shape != (A.shape[1],) or x.dtype != np.float64 or not x.flags.c_contiguous:
        raise ValidationError(f"a banded product needs a contiguous float64 vector of length {A.shape[1]}")
    y = np.zeros(A.shape[0])
    dia_matvec(A.shape[0], A.shape[1], len(A.offsets), A.data.shape[1], A.offsets, A.data, x, y)
    return y


def _row_product(A: csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(A @ x)[:len(out)]`` into ``out`` through scipy's CSR kernel, which checks no bounds and adds to ``out``."""
    fits = out.ndim == 1 and len(out) <= A.shape[0] and x.shape == (A.shape[1],)
    if not (fits and A.dtype == x.dtype == out.dtype == np.float64 and x.flags.c_contiguous and out.flags.c_contiguous):
        raise ValidationError(
            f"a row product needs contiguous float64 x of length {A.shape[1]} and out of at most {A.shape[0]} rows"
        )
    out.fill(0.0)
    csr_matvec(len(out), A.shape[1], A.indptr, A.indices, A.data, x, out)
    return out


def transition_matrix(env: Environment, box_radius: int | None = None) -> BoxChain:
    """The chain killed on leaving ``B_n``, ``n = box_radius <= N - 1`` (default ``N - 1``), laid out from its stencil.

    Each row takes its bonds in ascending neighbor order, that of a canonical sparse row.
    """
    geom = env.geometry
    n = geom.operator_radius(box_radius)
    st = box_stencil(env, n)
    ascending = np.r_[0 : 2 * geom.d : 2, 2 * geom.d - 1 : 0 : -2]  # -e_1, ..., -e_d, +e_d, ..., +e_1
    row, k = np.nonzero(st.bonds[ascending].T)
    c = ascending[k]
    indptr = np.r_[0, np.cumsum(st.bonds.sum(axis=0))]
    W = csr_matrix((st.w[c, row], row + st.steps[c], indptr), shape=(len(st.pi),) * 2)
    return BoxChain(W, geom.sub_box_indices(n), st.pi, st.exit, st.origin, n, env=env)


# ---------------------------------------------------------------------------
# effective conductances via absorbing solves on the holes
# ---------------------------------------------------------------------------


@dataclass
class EffectiveConductances:
    """Next-strong-cluster-point weights from a base site.

    ``values[k] / eta`` is the probability that ``sites[k]`` is the next
    strong-cluster point visited; ``eta`` is the invariant measure at the
    base site, so the table sums to ``eta``.  The diagonal entry (next point
    equals the base site itself, via a hole excursion) is included.
    """

    x: int
    eta: float
    sites: np.ndarray
    values: np.ndarray

    def weight(self, y: int) -> float:
        """The weight of site ``y``, 0 off the table; ``y`` must be an integer."""
        y = _integral_radius(y, "site")
        k = int(np.searchsorted(self.sites, y))
        if k < len(self.sites) and self.sites[k] == y:
            return float(self.values[k])
        return 0.0

    def as_dict(self) -> dict[int, float]:
        return {int(s): float(v) for s, v in zip(self.sites, self.values)}


def effective_conductances(env: Environment, decomp: ClusterDecomposition, x: int) -> EffectiveConductances:
    """Exact next-strong-cluster-point weights from ``x``.

    Direct jumps to in-cluster neighbors contribute their bond conductance;
    jumps into a hole are folded through the hitting law of that hole
    (``decomp.hitting``, every hole solved once per decomposition).  The
    resulting table is symmetric across base sites up to solver precision.
    """
    _cluster_site(env, decomp, x)
    H = decomp.hitting
    labels = decomp.labels
    acc: dict[int, float] = {}
    for step, w in zip(env.geometry.steps.tolist(), env.omega_by_direction[x].tolist()):
        if w <= 0:  # no bond
            continue
        y = x + step
        if labels[y] == STRONG_LABEL:
            acc[y] = acc.get(y, 0.0) + w
        else:
            lo, hi = H.indptr[y], H.indptr[y + 1]
            for u, h in zip(H.indices[lo:hi].tolist(), H.data[lo:hi].tolist()):
                acc[u] = acc.get(u, 0.0) + w * h
    targets = np.array(sorted(acc), dtype=np.int64)
    values = np.array([acc[t] for t in targets.tolist()], dtype=np.float64)
    return EffectiveConductances(x=x, eta=float(env.pi_all[x]), sites=targets, values=values)


def effective_conductance_matrix(env: Environment, decomp: ClusterDecomposition) -> coo_matrix:
    """Full table of effective conductances over the box (small boxes only).

    Row ``x`` is ``effective_conductances`` at ``x``, bit for bit: every bond
    out of a cluster site contributes its conductance times the
    first-cluster-site law of its far end (a point mass on a cluster site,
    the hitting row on a hole site), summed in the same order.
    """
    decomp.check_env(env)
    H = decomp.hitting
    n = env.geometry.n_sites
    xs = np.flatnonzero(decomp.in_cluster)
    fold = (H + coo_matrix((np.ones(len(xs)), (xs, xs)), shape=(n, n))).tocsr()
    w_dir = env.omega_by_direction
    slot_x, slot_c = np.nonzero(w_dir[xs] > 0)  # bonds by site, then in incidence order
    x = xs[slot_x]
    y = x + env.geometry.steps[slot_c]
    count = np.diff(fold.indptr)[y]
    slot = np.repeat(np.arange(len(y)), count)
    entry = np.arange(len(slot)) + np.repeat(fold.indptr[y] - (np.cumsum(count) - count), count)
    keys, where = np.unique(x[slot] * n + fold.indices[entry], return_inverse=True)
    values = np.bincount(where, weights=w_dir[x, slot_c][slot] * fold.data[entry])
    return coo_matrix((values, (keys // n, keys % n)), shape=(n, n))


# ---------------------------------------------------------------------------
# vectorized path ensembles
# ---------------------------------------------------------------------------


@dataclass
class EnsembleResult:
    """Aggregated output of a vectorized path ensemble."""

    n_paths: int
    tau: np.ndarray
    exit_site: np.ndarray
    n_jumps: np.ndarray
    ahat_final: np.ndarray
    site_at: np.ndarray | None = None  # (n_paths, len(real_grid)), -1 after death


def _jump_table(env: Environment) -> np.ndarray:
    """Cumulative jump law over the incidence order (direction ``c`` moves by ``steps[c]``), cached on the environment."""
    cached = env.__dict__.get("_jump_table")
    if cached is not None:
        return cached
    w = env.omega_by_direction
    pi = env.pi_all
    if np.any(pi <= 0):
        raise ValidationError("environment contains an isolated site")
    cum = np.cumsum(w, axis=1) / pi[:, None]
    cum[:, -1] = 1.0  # guard against roundoff at the top of the table
    env.__dict__["_jump_table"] = cum
    return cum


def _start_and_kill_radius(geom: BoxGeometry, x0: int, kill_radius: int | None) -> int:
    """Check the start site and resolve ``kill_radius`` (``None`` is ``N - 1``); both must be integers."""
    x0 = geom.site(x0, "start site")
    kill = geom.operator_radius(kill_radius, "kill radius")
    if geom.linf_norm[x0] > kill:
        raise ValidationError("start site outside the kill radius")
    return kill


def _path_count(n_paths) -> int:
    """``n_paths`` as an ``int`` of at least 1, refusing what is not an integer."""
    if (n := _integral_radius(n_paths, "path count")) < 1:
        raise ValidationError(f"need at least one path, got {n}")
    return n


def ensemble_walk(
    env: Environment,
    x0: int,
    n_paths: int,
    horizon: float,
    rng: np.random.Generator,
    kill_radius: int | None = None,
    phi: np.ndarray | None = None,
    real_grid: np.ndarray | None = None,
) -> EnsembleResult:
    """Run ``n_paths`` independent CTMC paths with one synchronized stepper.

    Each path is killed on its first jump past sup-norm ``kill_radius``
    (default ``N - 1``, the largest radius whose sites have all their bonds),
    which sets its ``tau`` and ``exit_site``.  Optionally records the
    occupied site when real time crosses each point of ``real_grid``, a 1-D
    grid in ``(0, horizon]``.  All paths draw from the single ``rng``, so
    results are reproducible for a fixed seed and path count.
    """
    geom = env.geometry
    kill = _start_and_kill_radius(geom, x0, kill_radius)
    n_paths = _path_count(n_paths)
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValidationError(f"horizon must be finite and >= 0, got {horizon!r}")
    rg = None if real_grid is None else np.asarray(real_grid, dtype=float)
    if rg is not None and (rg.ndim != 1 or not np.all((rg > 0) & (rg <= horizon))):  # NaN fails both
        raise ValidationError(f"real grid must be 1-D with every point in (0, {horizon!r}]")

    cum, steps = _jump_table(env), geom.steps
    linf = geom.linf_norm

    state = np.full(n_paths, x0, dtype=np.int64)
    t_now = np.zeros(n_paths)
    a_now = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    tau = np.full(n_paths, math.inf)
    exit_site = np.full(n_paths, -1, dtype=np.int64)
    n_jumps = np.zeros(n_paths, dtype=np.int64)
    site_at = None if rg is None else np.full((n_paths, len(rg)), -1, dtype=np.int64)

    while True:
        act = np.flatnonzero(alive)
        if len(act) == 0:
            break
        dt = -np.log1p(-rng.random(len(act)))
        t_next = t_now[act] + dt
        over = t_next >= horizon
        t_step_end = np.minimum(t_next, horizon)
        ph = np.ones(len(act)) if phi is None else phi[state[act]]
        a_next = a_now[act] + ph * (t_step_end - t_now[act])

        if site_at is not None:
            for j, tg in enumerate(rg):
                hit = (t_now[act] < tg) & (tg <= t_step_end)
                if hit.any():
                    site_at[act[hit], j] = state[act[hit]]

        t_now[act] = t_step_end
        a_now[act] = a_next
        if over.any():
            alive[act[over]] = False
        go = act[~over]
        if len(go) == 0:
            continue

        u = rng.random(len(go))
        k = (u[:, None] > cum[state[go]]).sum(axis=1)
        dest = state[go] + steps[k]
        n_jumps[go] += 1
        out = linf[dest] > kill
        if out.any():
            dead = go[out]
            tau[dead] = t_now[dead]
            exit_site[dead] = dest[out]
            alive[dead] = False
        state[go[~out]] = dest[~out]

    return EnsembleResult(n_paths, tau, exit_site, n_jumps, a_now, site_at)


def next_point_frequencies(
    env: Environment,
    decomp: ClusterDecomposition,
    x: int,
    n_paths: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo law of the next strong-cluster point visited from ``x``.

    Counts where each of ``n_paths`` walks first returns to the strong
    cluster after one jump from ``x`` (free-boundary dynamics, matching the
    absorbing-solve computation).  Returns (sites, counts).
    """
    _cluster_site(env, decomp, x)
    n_paths = _path_count(n_paths)
    cum, steps = _jump_table(env), env.geometry.steps
    in_cluster = decomp.in_cluster

    state = np.full(n_paths, x)
    pending = np.ones(n_paths, dtype=bool)  # the first jump is taken from x whatever it is
    while pending.any():
        idx = np.flatnonzero(pending)
        u = rng.random(len(idx))
        k = (u[:, None] > cum[state[idx]]).sum(axis=1)
        state[idx] += steps[k]
        pending[idx] = ~in_cluster[state[idx]]
    sites, counts = np.unique(state, return_counts=True)
    return sites, counts
