"""Discrete chain, Poisson-clock CTMC, time change and effective conductances.

The walk jumps along bonds with probability proportional to their
conductance after independent Exp(1) waiting times.  Box experiments kill
the walk on its first exit from ``B_n``; because an environment stores only
in-box bonds, the genuine killed dynamics (full invariant measure at every
living site) are available for ``n <= N - 1``, which is the default kill
radius.  ``kill_radius=None`` gives the free-boundary chain on the whole
box, used for exploratory runs and mass-conservation tests only.

The additive functional ``A(t)`` measures the time spent on the strong
cluster; suppressing hole visits through its inverse yields the
time-changed walk, whose one-step law from a site is the "next strong
cluster point" distribution computed exactly by absorbing solves on the
holes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .errors import ValidationError
from .lattice import Environment
from .percolation import STRONG_LABEL, ClusterDecomposition


# ---------------------------------------------------------------------------
# one-step law and chain matrices
# ---------------------------------------------------------------------------


def _restrict(env: Environment, sites: np.ndarray, inverse_index: bool = False):
    """Bonds of the conductance graph seen from an ascending set of sites.

    Returns ``(row, col, w)``, the directed bonds inside the set in local
    indices (each undirected bond twice, row-major in incidence order), and
    ``(rim_row, outside, rim_w)``, the bonds from local ``rim_row`` to the
    site ``outside`` beyond the set.  Local positions come from a full-size
    inverse index when ``inverse_index`` is set (large sets such as ``B_n``)
    and from a binary search otherwise (many small sets such as holes).
    """
    m = len(sites)
    neigh = env.geometry.neighbor_table[sites]
    w = env.omega_by_direction[sites]
    if inverse_index:
        inv = np.full(env.geometry.n_sites, -1, dtype=np.int64)
        inv[sites] = np.arange(m, dtype=np.int64)
        local = inv[neigh]
    else:
        pos = np.minimum(np.searchsorted(sites, neigh), m - 1)
        local = np.where(sites[pos] == neigh, pos, -1)
    bonded = w > 0  # absent neighbors (-1) carry no conductance
    inside = bonded & (local >= 0)
    row, k = np.nonzero(inside)
    rim_row, rim_k = np.nonzero(bonded & ~inside)
    return (row, local[row, k], w[row, k]), (rim_row, neigh[rim_row, rim_k], w[rim_row, rim_k])


def step_distribution(env: Environment, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Jump law from ``x``: neighbors and probabilities ``omega/pi(x)``.

    Neighbors are returned in canonical incidence order, restricted to the
    box.  ``pi`` is the in-box conductance sum at ``x``.
    """
    geom = env.geometry
    if not 0 <= x < geom.n_sites:
        raise ValidationError(f"site {x} outside the box")
    w = env.omega_by_direction[x]
    total = env.pi_all[x]
    if total <= 0:
        raise ValidationError(f"site {x} is isolated (pi = 0)")
    keep = w > 0
    return geom.neighbor_table[x][keep], w[keep] / total


@dataclass
class BoxChain:
    """Transition matrix of the walk restricted to ``B_n``.

    ``killed=True`` rows use the full invariant measure, so row sums below 1
    are the per-jump exit probabilities (Dirichlet killing).  ``killed=False``
    is the free-boundary chain on the whole environment box (stochastic).
    """

    P: csr_matrix
    sites: np.ndarray  # environment site indices, canonical sub-box order
    pi: np.ndarray
    origin: int  # position of the lattice origin among ``sites``
    box_radius: int
    killed: bool


def transition_matrix(env: Environment, box_radius: int | None = None, killed: bool = True) -> BoxChain:
    """Assemble the (killed or free) jump matrix on ``B_n``.

    Killed chains need ``n <= N - 1`` so that every living site carries all
    of its lattice bonds inside the stored environment.
    """
    geom = env.geometry
    if killed:
        n = geom.N - 1 if box_radius is None else int(box_radius)
        if not 0 <= n <= geom.N - 1:
            raise ValidationError(
                f"killed chain needs box radius in [0, {geom.N - 1}] (environment radius {geom.N})"
            )
    else:
        n = geom.N if box_radius is None else int(box_radius)
        if n != geom.N:
            raise ValidationError("the free-boundary chain lives on the full environment box")

    sub = geom.sub_box_indices(n)
    pi = env.pi_all[sub]
    (row, col, w), _ = _restrict(env, sub, inverse_index=True)
    P = coo_matrix((w / pi[row], (row, col)), shape=(len(sub), len(sub))).tocsr()
    return BoxChain(
        P=P,
        sites=sub,
        pi=pi,
        origin=(len(sub) - 1) // 2,
        box_radius=n,
        killed=killed,
    )


def _walk_tables(env: Environment) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative jump table and neighbor table, cached on the environment."""
    cached = env.__dict__.get("_walk_tables")
    if cached is not None:
        return cached
    w = env.omega_by_direction
    pi = env.pi_all
    if np.any(pi <= 0):
        raise ValidationError("environment contains an isolated site")
    cum = np.cumsum(w, axis=1) / pi[:, None]
    cum[:, -1] = 1.0  # guard against roundoff at the top of the table
    tables = (cum, env.geometry.neighbor_table)
    env.__dict__["_walk_tables"] = tables
    return tables


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryRecord:
    """One CTMC path with its additive functional.

    ``sites[k]`` is occupied on ``[T_k, T_{k+1})`` where ``T_k`` is the sum
    of the first ``k`` waiting-time increments; the record covers
    ``[0, min(horizon, tau_N)]``.  ``A_at_jumps[k]`` is the strong-cluster
    occupation time accumulated up to ``T_k``; between jumps it grows with
    slope ``phi_sites[k]``.  Waiting times are stored as increments to avoid
    cancellation at large horizons.

    Direct simulation output has nearest-neighbor steps; time-changed
    records may contain long (or repeated-site) jumps where hole excursions
    were excised.
    """

    start: int
    sites: np.ndarray
    increments: np.ndarray
    horizon: float
    tau_N: float
    phi_sites: np.ndarray
    A_at_jumps: np.ndarray

    @property
    def n_jumps(self) -> int:
        return len(self.increments)

    @property
    def jump_times(self) -> np.ndarray:
        return np.cumsum(self.increments)

    @property
    def end_time(self) -> float:
        return min(self.horizon, self.tau_N)

    def A_hat(self, t) -> np.ndarray | float:
        """The additive functional at time ``t`` (scalar or array)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < 0) or np.any(t_arr > self.end_time + 1e-12):
            raise ValidationError("time outside the recorded range")
        times = self.jump_times
        k = np.searchsorted(times, t_arr, side="right")
        if len(times):
            seg_start = np.where(k > 0, times[np.maximum(k - 1, 0)], 0.0)
        else:
            seg_start = np.zeros_like(t_arr)
        out = self.A_at_jumps[k] + self.phi_sites[k] * (t_arr - seg_start)
        return out if np.ndim(t) else float(out[0])

    def position(self, t) -> np.ndarray | int:
        """Occupied site at time ``t``."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < 0) or np.any(t_arr > self.end_time + 1e-12):
            raise ValidationError("time outside the recorded range")
        k = np.searchsorted(self.jump_times, t_arr, side="right")
        out = self.sites[k]
        return out if np.ndim(t) else int(out[0])


def simulate_ctmc(
    env: Environment,
    x0: int,
    horizon: float,
    rng: np.random.Generator,
    decomp: ClusterDecomposition | None = None,
    kill_radius: int | None | str = "interior",
) -> TrajectoryRecord:
    """Simulate one Poisson(1)-clock path started at ``x0``.

    ``kill_radius="interior"`` (the default) kills the walk on its first
    jump out of ``B_{N-1}``, recording the exit time as ``tau_N``; ``None``
    disables killing (free boundary, exploratory only).  When ``decomp`` is
    given the additive functional tracks time spent on its strong cluster,
    otherwise it equals elapsed time.
    """
    geom = env.geometry
    if not 0 <= x0 < geom.n_sites:
        raise ValidationError(f"start site {x0} outside the box")
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    if kill_radius == "interior":
        kill: int | None = geom.N - 1
    else:
        kill = kill_radius  # type: ignore[assignment]
    if kill is not None:
        if not 0 <= kill <= geom.N - 1:
            raise ValidationError(f"kill radius must lie in [0, {geom.N - 1}]")
        if geom.linf_norm[x0] > kill:
            raise ValidationError("start site outside the kill radius")

    phi = decomp.in_cluster.astype(np.float64) if decomp is not None else None
    cum, neigh = _walk_tables(env)
    linf = geom.linf_norm

    sites = [x0]
    increments: list[float] = []
    a_vals = [0.0]
    phis = [1.0 if phi is None else float(phi[x0])]
    t_now = 0.0
    a_now = 0.0
    tau = math.inf
    state = x0
    while True:
        dt = -math.log1p(-rng.random())
        if t_now + dt >= horizon:
            break
        t_now += dt
        a_now += phis[-1] * dt
        u = rng.random()
        k = int((u > cum[state]).sum())
        dest = int(neigh[state, k])
        sites.append(dest)
        increments.append(dt)
        a_vals.append(a_now)
        phis.append(1.0 if phi is None else float(phi[dest]))
        if kill is not None and linf[dest] > kill:
            tau = t_now
            break
        state = dest

    return TrajectoryRecord(
        start=x0,
        sites=np.asarray(sites, dtype=np.int64),
        increments=np.asarray(increments, dtype=np.float64),
        horizon=float(horizon),
        tau_N=tau,
        phi_sites=np.asarray(phis, dtype=np.float64),
        A_at_jumps=np.asarray(a_vals, dtype=np.float64),
    )


def time_changed_trajectory(traj: TrajectoryRecord, decomp: ClusterDecomposition) -> TrajectoryRecord:
    """Excise hole excursions and rebase the clock to strong-cluster time.

    The output visits exactly the strong-cluster subsequence of the input's
    sites; its total duration is the input's additive functional at the end
    of the record, so each hole excursion shortens the clock by its length.
    """
    if decomp.labels[traj.start] != STRONG_LABEL:
        raise ValidationError("time change requires a start site on the strong cluster")
    on_cluster = decomp.in_cluster[traj.sites]
    end = traj.end_time
    times = traj.jump_times
    holdings = np.empty(len(traj.sites), dtype=np.float64)
    if len(traj.increments):
        holdings[:-1] = traj.increments
        holdings[-1] = end - times[-1]
    else:
        holdings[0] = end

    new_sites = traj.sites[on_cluster]
    new_hold = holdings[on_cluster]
    total = float(new_hold.sum())
    killed = math.isfinite(traj.tau_N)
    increments = new_hold[:-1] if len(new_hold) else new_hold
    return TrajectoryRecord(
        start=traj.start,
        sites=new_sites,
        increments=np.asarray(increments, dtype=np.float64),
        horizon=total,
        tau_N=total if killed else math.inf,
        phi_sites=np.ones(len(new_sites), dtype=np.float64),
        A_at_jumps=np.concatenate([[0.0], np.cumsum(increments)]) if len(new_sites) else np.zeros(1),
    )


# ---------------------------------------------------------------------------
# effective conductances via absorbing solves on the holes
# ---------------------------------------------------------------------------


def _hole_hitting_matrix(env: Environment, decomp: ClusterDecomposition, hole_id: int):
    """Hitting distribution on a hole's outer boundary, cached per hole.

    Solves ``(diag(pi) - W) H = B`` on the hole sites, where ``W`` holds the
    bonds inside the hole and ``B`` the conductances toward each boundary
    site; row ``z`` of ``H`` is the distribution of the first strong-cluster
    site reached from ``z``.  One dense solve per hole: it needs
    ``8 m (m + nb)`` bytes, about 59 MB for a 2,632-site hole.
    """
    cached = decomp._hitting_cache.get(hole_id)
    if cached is not None:
        return cached
    hole = decomp.holes[hole_id]
    sites, bdry = hole.sites, hole.boundary
    m = len(sites)
    (row, col, w), (rim_row, outside, rim_w) = _restrict(env, sites)
    A = np.zeros((m, m))
    A[row, col] = -w
    A[np.arange(m), np.arange(m)] = env.pi_all[sites]
    B = np.zeros((m, len(bdry)))
    B[rim_row, np.searchsorted(bdry, outside)] = rim_w
    result = (sites, bdry, np.linalg.solve(A, B))
    decomp._hitting_cache[hole_id] = result
    return result


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

    def probability(self, y: int) -> float:
        k = int(np.searchsorted(self.sites, y))
        if k < len(self.sites) and self.sites[k] == y:
            return float(self.values[k] / self.eta)
        return 0.0

    def weight(self, y: int) -> float:
        k = int(np.searchsorted(self.sites, y))
        if k < len(self.sites) and self.sites[k] == y:
            return float(self.values[k])
        return 0.0

    def as_dict(self) -> dict[int, float]:
        return {int(s): float(v) for s, v in zip(self.sites, self.values)}


def effective_conductances(env: Environment, decomp: ClusterDecomposition, x: int) -> EffectiveConductances:
    """Exact next-strong-cluster-point weights from ``x``.

    Direct jumps to in-cluster neighbors contribute their bond conductance;
    jumps into a hole are folded through that hole's absorbing hitting
    distribution.  The resulting table is symmetric across base sites up to
    solver precision.
    """
    if decomp.labels[x] != STRONG_LABEL:
        raise ValidationError(f"site {x} is not on the strong cluster")
    geom = env.geometry
    acc: dict[int, float] = {}
    neigh = geom.neighbor_table
    w_dir = env.omega_by_direction
    for col in range(2 * geom.d):
        y = int(neigh[x, col])
        w = float(w_dir[x, col])
        if w <= 0:
            continue
        lab = decomp.labels[y]
        if lab == STRONG_LABEL:
            acc[y] = acc.get(y, 0.0) + w
        else:
            sites, bdry, H = _hole_hitting_matrix(env, decomp, int(lab))
            z = int(np.searchsorted(sites, y))
            for u, h in zip(bdry, H[z]):
                acc[int(u)] = acc.get(int(u), 0.0) + w * float(h)
    targets = np.array(sorted(acc), dtype=np.int64)
    values = np.array([acc[int(t)] for t in targets], dtype=np.float64)
    return EffectiveConductances(x=x, eta=float(env.pi_all[x]), sites=targets, values=values)


def effective_conductance_matrix(env: Environment, decomp: ClusterDecomposition) -> coo_matrix:
    """Full table of effective conductances over the box (small boxes only)."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for x in np.flatnonzero(decomp.in_cluster):
        ec = effective_conductances(env, decomp, int(x))
        rows.extend([int(x)] * len(ec.sites))
        cols.extend(int(s) for s in ec.sites)
        vals.extend(float(v) for v in ec.values)
    n = env.geometry.n_sites
    return coo_matrix((vals, (rows, cols)), shape=(n, n))


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
    xhat_at: np.ndarray | None = None  # (n_paths, len(ahat_grid)), -1 if unreached


def ensemble_walk(
    env: Environment,
    x0: int,
    n_paths: int,
    horizon: float,
    rng: np.random.Generator,
    kill_radius: int | None | str = "interior",
    phi: np.ndarray | None = None,
    real_grid: np.ndarray | None = None,
    ahat_grid: np.ndarray | None = None,
) -> EnsembleResult:
    """Run ``n_paths`` independent CTMC paths with one synchronized stepper.

    Optionally records the occupied site when real time crosses each point
    of ``real_grid`` and when the additive functional crosses each point of
    ``ahat_grid`` (the time-changed position).  All paths draw from the
    single ``rng``, so results are reproducible for a fixed seed and path
    count.
    """
    geom = env.geometry
    if n_paths < 1:
        raise ValidationError("need at least one path")
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    if kill_radius == "interior":
        kill: int | None = geom.N - 1
    else:
        kill = kill_radius  # type: ignore[assignment]
    if kill is not None and not 0 <= kill <= geom.N - 1:
        raise ValidationError(f"kill radius must lie in [0, {geom.N - 1}]")
    if kill is not None and geom.linf_norm[x0] > kill:
        raise ValidationError("start site outside the kill radius")

    cum, neigh = _walk_tables(env)
    linf = geom.linf_norm
    rg = None if real_grid is None else np.asarray(real_grid, dtype=float)
    ag = None if ahat_grid is None else np.asarray(ahat_grid, dtype=float)

    state = np.full(n_paths, x0, dtype=np.int64)
    t_now = np.zeros(n_paths)
    a_now = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    tau = np.full(n_paths, math.inf)
    exit_site = np.full(n_paths, -1, dtype=np.int64)
    n_jumps = np.zeros(n_paths, dtype=np.int64)
    site_at = None if rg is None else np.full((n_paths, len(rg)), -1, dtype=np.int64)
    xhat_at = None if ag is None else np.full((n_paths, len(ag)), -1, dtype=np.int64)

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
        if xhat_at is not None:
            for j, av in enumerate(ag):
                hit = (a_now[act] < av) & (av <= a_next)
                if hit.any():
                    xhat_at[act[hit], j] = state[act[hit]]

        t_now[act] = t_step_end
        a_now[act] = a_next
        if over.any():
            alive[act[over]] = False
        go = act[~over]
        if len(go) == 0:
            continue

        u = rng.random(len(go))
        k = (u[:, None] > cum[state[go]]).sum(axis=1)
        dest = neigh[state[go], k]
        n_jumps[go] += 1
        if kill is not None:
            out = linf[dest] > kill
            if out.any():
                dead = go[out]
                tau[dead] = t_now[dead]
                exit_site[dead] = dest[out]
                alive[dead] = False
            state[go[~out]] = dest[~out]
        else:
            state[go] = dest

    return EnsembleResult(
        n_paths=n_paths,
        tau=tau,
        exit_site=exit_site,
        n_jumps=n_jumps,
        ahat_final=a_now,
        site_at=site_at,
        xhat_at=xhat_at,
    )


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
    if decomp.labels[x] != STRONG_LABEL:
        raise ValidationError(f"site {x} is not on the strong cluster")
    if n_paths < 1:
        raise ValidationError("need at least one path")
    cum, neigh = _walk_tables(env)
    in_cluster = decomp.in_cluster

    u = rng.random(n_paths)
    state = neigh[x, (u[:, None] > cum[np.full(n_paths, x)]).sum(axis=1)]
    pending = ~in_cluster[state]
    while pending.any():
        idx = np.flatnonzero(pending)
        u = rng.random(len(idx))
        k = (u[:, None] > cum[state[idx]]).sum(axis=1)
        state[idx] = neigh[state[idx], k]
        pending[idx] = ~in_cluster[state[idx]]
    sites, counts = np.unique(state, return_counts=True)
    return sites, counts


@dataclass
class HeatKernelHatCurve:
    """Monte Carlo envelope of the time-changed kernel ``sup_y P(Xhat_t = y)``."""

    t: np.ndarray
    sup_estimate: np.ndarray
    rescaled: np.ndarray  # t^{d/2} * sup
    stderr: np.ndarray
    n_paths: int
    n_unreached: np.ndarray


def empirical_heat_kernel_hat(
    env: Environment,
    decomp: ClusterDecomposition,
    x: int,
    t_grid,
    n_paths: int,
    rng: np.random.Generator,
) -> HeatKernelHatCurve:
    """Estimate ``sup_y P(Xhat_t = y)`` with its ``t^{d/2}`` rescaling.

    Uses the free-boundary walk so the time change is never interrupted by
    killing; the horizon is padded so the strong-cluster clock reaches the
    last grid point on essentially every path.
    """
    if decomp.labels[x] != STRONG_LABEL:
        raise ValidationError(f"site {x} is not on the strong cluster")
    t = np.asarray(t_grid, dtype=float)
    if np.any(t < 0) or np.any(np.diff(t) <= 0):
        raise ValidationError("t grid must be nonnegative and increasing")
    d = env.geometry.d
    positive = t[t > 0]
    horizon = float(2.0 * positive.max() + 10.0) if len(positive) else 1.0
    res = ensemble_walk(
        env,
        x,
        n_paths,
        horizon,
        rng,
        kill_radius=None,
        phi=decomp.in_cluster.astype(np.float64),
        ahat_grid=positive,
    )
    sup = np.empty(len(t))
    unreached = np.zeros(len(t), dtype=np.int64)
    pos_index = 0
    for j, tj in enumerate(t):
        if tj == 0:
            sup[j] = 1.0
            continue
        col = res.xhat_at[:, pos_index]
        pos_index += 1
        reached = col >= 0
        unreached[j] = int((~reached).sum())
        counts = np.bincount(col[reached])
        sup[j] = counts.max() / n_paths if counts.size else 0.0
    stderr = np.sqrt(np.maximum(sup * (1 - sup), 0.0) / n_paths)
    return HeatKernelHatCurve(
        t=t,
        sup_estimate=sup,
        rescaled=t ** (d / 2.0) * sup,
        stderr=stderr,
        n_paths=n_paths,
        n_unreached=unreached,
    )
