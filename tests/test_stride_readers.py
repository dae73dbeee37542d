"""The package's readers find neighbors, coordinates and sup-norms from the strides.

Each reader is checked against a reference kept here that reads the
whole-box tables ``neighbor_table``, ``all_coords`` and ``linf_norm``, as
the package once did; the package's own source reads neither of the first
two outside ``lattice.py`` (a static check), and an archive pass, a bound
job and an exact curve leave none of the three built.
"""

import ast
import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from rcmwalk import (
    STRONG_LABEL,
    BoxGeometry,
    EmptyClusterError,
    box_stencil,
    default_time_grid,
    effective_conductance_matrix,
    effective_conductances,
    ensemble_walk,
    hole_volume_report,
    load_environment,
    next_point_frequencies,
    return_prob_curve_exact,
    sample_environment,
    save_environment,
    step_distribution,
    strong_cluster,
    threshold_for_density,
    write_decomposition_csv,
)
from rcmwalk import experiments

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rcmwalk"
TABLES = ("neighbor_table", "all_coords", "linf_norm")
# small boxes at d = 2, 3 and 5; every one has a site off the top face, so
# B_(N-1) is not empty
SHAPES = [(2, 1), (2, 4), (2, 9), (3, 1), (3, 2), (3, 4), (5, 1), (5, 2)]


# ---------------------------------------------------------------------------
# table-based references
# ---------------------------------------------------------------------------


def _table_lattice(env):
    """``_bond_arrays``, ``bond_id_table``, ``omega_by_direction`` and ``pi_all`` from ``all_coords < N`` and
    ``neighbor_table``: bond ``(u, u + e_i)`` fills column ``+e_i`` of ``u`` and ``-e_i`` of its far end."""
    geom = env.geometry
    below = geom.all_coords < geom.N
    u, axis = np.divmod(np.flatnonzero(below), geom.d)
    v = geom.neighbor_table[u, 2 * axis + 1]
    ids = np.full((geom.n_sites, geom.d), -1, dtype=np.int64)
    ids[below] = np.arange(geom.n_bonds)
    w = np.zeros((geom.n_sites, 2 * geom.d))
    w[u, 2 * axis + 1], w[v, 2 * axis] = env.omega, env.omega
    pi = np.zeros(geom.n_sites)
    for c in range(2 * geom.d):
        pi += w[:, c]
    return (u, axis, v), ids, w, pi


def _table_strong_cluster(env, xi):
    """Labels and each hole's ``(sites, boundary, anchor)``, every neighbor read off ``neighbor_table``;
    ``None`` where the package raises :class:`EmptyClusterError`."""
    geom, w = env.geometry, env.omega_by_direction
    n, nbr = geom.n_sites, geom.neighbor_table

    def components(keep):  # components under the bonds (x, nbr[x, c]) with keep[x, c]
        x, c = np.nonzero(keep)
        return connected_components(coo_matrix((np.ones(len(x)), (x, nbr[x, c])), shape=(n, n)), directed=False)[1]

    comp = components(w >= xi)
    sizes = np.bincount(comp)
    if not (w >= xi).any() or sizes.max() < 2:
        return None
    in_cluster = comp == np.argmax(sizes)
    off = ~in_cluster
    hole = components((w > 0) & off[:, None] & off[nbr])  # -1 entries carry no conductance
    labels = np.full(n, STRONG_LABEL, dtype=np.int64)
    ids = {}
    for s in np.flatnonzero(off).tolist():  # numbered by smallest site
        labels[s] = ids.setdefault(int(hole[s]), len(ids))
    sites = [[] for _ in ids]
    bdry = [set() for _ in ids]
    for s in np.flatnonzero(off).tolist():
        sites[labels[s]].append(s)
        bdry[labels[s]].update(int(y) for y, c in zip(nbr[s], w[s]) if c > 0 and in_cluster[y])
    return labels, [(np.array(m), np.array(sorted(b)), min(b)) for m, b in zip(sites, bdry)]


def _table_hitting(env, decomp, hole):
    """The hole's hitting law on its boundary, one dense solve of ``(diag(pi) - W) H = B`` over ``neighbor_table``."""
    nbr, w = env.geometry.neighbor_table, env.omega_by_direction
    at = {s: k for k, s in enumerate(hole.sites.tolist())}
    col = {b: k for k, b in enumerate(hole.boundary.tolist())}
    A = np.diag(env.pi_all[hole.sites])
    B = np.zeros((len(at), len(col)))
    for s, k in at.items():
        for y, c in zip(nbr[s].tolist(), w[s].tolist()):
            if c > 0:
                if y in at:
                    A[k, at[y]] -= c
                else:
                    B[k, col[y]] += c
    return np.linalg.solve(A, B)


def _table_effective_conductances(env, decomp, x):
    """``effective_conductances``'s row at ``x`` as a dict loop over ``neighbor_table[x]``."""
    H, acc = decomp.hitting, {}
    for y, w in zip(env.geometry.neighbor_table[x].tolist(), env.omega_by_direction[x].tolist()):
        if w <= 0:
            continue
        if decomp.labels[y] == STRONG_LABEL:
            acc[y] = acc.get(y, 0.0) + w
        else:
            lo, hi = H.indptr[y], H.indptr[y + 1]
            for u, h in zip(H.indices[lo:hi].tolist(), H.data[lo:hi].tolist()):
                acc[u] = acc.get(u, 0.0) + w * h
    sites = sorted(acc)
    return np.array(sites, dtype=np.int64), np.array([acc[s] for s in sites])


def _table_stencil(env, n):
    """``box_stencil``'s fields, its in-box mask read off ``linf_norm`` at ``neighbor_table``'s rows."""
    geom = env.geometry
    w = np.ascontiguousarray(geom.sub_box_rows(env.omega_by_direction, n).T)
    bonds = (geom.linf_norm[geom.sub_box_rows(geom.neighbor_table, n).T] <= n) & (w > 0)
    pi = geom.sub_box_rows(env.pi_all, n)
    rim = np.zeros(len(pi))
    for row, inside in zip(w, bonds):
        rim += np.where(inside, 0.0, row)
    strides = (2 * n + 1) ** np.arange(geom.d - 1, -1, -1, dtype=np.int64)
    return w, bonds, pi, rim / pi, np.stack((-strides, strides), axis=1).ravel()


def _table_csv(decomp, path):
    geom = decomp.env.geometry
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_index"] + [f"x_{i + 1}" for i in range(geom.d)] + ["label"])
        for s in range(geom.n_sites):
            writer.writerow([s] + geom.all_coords[s].tolist() + [int(decomp.labels[s])])


def _table_walk(env, x0, n_paths, horizon, rng):
    """``ensemble_walk`` with no ``phi`` or grid, stepping through ``neighbor_table``, killed past sup-norm ``N - 1``."""
    geom = env.geometry
    kill = geom.N - 1
    cum = np.cumsum(env.omega_by_direction, axis=1) / env.pi_all[:, None]
    cum[:, -1] = 1.0
    state, t = np.full(n_paths, x0, dtype=np.int64), np.zeros(n_paths)
    alive, tau = np.ones(n_paths, dtype=bool), np.full(n_paths, math.inf)
    exit_site, jumps = np.full(n_paths, -1, dtype=np.int64), np.zeros(n_paths, dtype=np.int64)
    while alive.any():
        act = np.flatnonzero(alive)
        t_next = t[act] - np.log1p(-rng.random(len(act)))
        over = t_next >= horizon
        t[act] = np.minimum(t_next, horizon)
        alive[act[over]] = False
        go = act[~over]
        if len(go) == 0:
            continue
        k = (rng.random(len(go))[:, None] > cum[state[go]]).sum(axis=1)
        dest = geom.neighbor_table[state[go], k]
        jumps[go] += 1
        out = geom.linf_norm[dest] > kill
        tau[go[out]], exit_site[go[out]], alive[go[out]] = t[go[out]], dest[out], False
        state[go[~out]] = dest[~out]
    return tau, exit_site, jumps


def _table_next_points(env, decomp, x, n_paths, rng):
    cum = np.cumsum(env.omega_by_direction, axis=1) / env.pi_all[:, None]
    cum[:, -1] = 1.0
    state, pending = np.full(n_paths, x), np.ones(n_paths, dtype=bool)
    while pending.any():
        idx = np.flatnonzero(pending)
        k = (rng.random(len(idx))[:, None] > cum[state[idx]]).sum(axis=1)
        state[idx] = env.geometry.neighbor_table[state[idx], k]
        pending[idx] = ~decomp.in_cluster[state[idx]]
    return np.unique(state, return_counts=True)


def _assert_no_tables(*geoms):
    for geom in geoms:
        assert not set(TABLES) & set(geom.__dict__), geom


# ---------------------------------------------------------------------------
# the stride readers equal the table ones
# ---------------------------------------------------------------------------


def _case(shape, gamma, seed, p):
    d, N = shape
    env = sample_environment(BoxGeometry(d, N), gamma, seed)
    return env, threshold_for_density(gamma, p)


cases = st.tuples(
    st.sampled_from(SHAPES), st.sampled_from([0.5, 2.0]), st.integers(0, 2**32), st.sampled_from([0.3, 0.55, 0.8])
)


class TestStrideReaders:
    @settings(max_examples=30, deadline=None)
    @given(case=cases)
    def test_lattice_tables(self, case):
        env, _ = _case(*case)
        geom = env.geometry
        got = (geom._bond_arrays, geom.bond_id_table, env.omega_by_direction, env.pi_all)
        _assert_no_tables(geom)
        (u, axis, v), ids, w, pi = _table_lattice(env)
        assert all(np.array_equal(a, b) for a, b in zip(got[0], (u, axis, v)))
        assert np.array_equal(got[1], ids)
        assert np.array_equal(got[2], w) and np.array_equal(got[3], pi)  # bit for bit
        assert np.array_equal(geom.below_top, geom.all_coords < geom.N)
        # the move toward a bonded neighbor is the table's
        x, c = np.nonzero(w > 0)
        assert np.array_equal(x + geom.steps[c], geom.neighbor_table[x, c])

    @settings(max_examples=30, deadline=None)
    @given(case=cases)
    def test_cluster_hitting_and_rows(self, case):
        env, xi = _case(*case)
        try:
            decomp = strong_cluster(env, xi)
        except EmptyClusterError:
            assert _table_strong_cluster(env, xi) is None
            return
        H = decomp.hitting
        cluster = np.flatnonzero(decomp.in_cluster).tolist()
        rows = [effective_conductances(env, decomp, x) for x in cluster]
        M = effective_conductance_matrix(env, decomp).tocsr()
        report = hole_volume_report(decomp)
        _assert_no_tables(env.geometry)

        labels, holes = _table_strong_cluster(env, xi)
        assert np.array_equal(decomp.labels, labels) and len(decomp.holes) == len(holes)
        for hole, (sites, bdry, anchor) in zip(decomp.holes, holes):
            assert np.array_equal(hole.sites, sites) and np.array_equal(hole.boundary, bdry)
            assert hole.anchor == anchor
            want = _table_hitting(env, decomp, hole)
            got = H[hole.sites][:, hole.boundary].toarray()
            assert np.all(np.abs(got - want) <= 1e-12 * want.max(axis=1, keepdims=True))
        assert np.array_equal(np.diff(H.indptr)[labels >= 0], [len(holes[k][1]) for k in labels[labels >= 0]])
        for x, ec in zip(cluster, rows):  # every row bit for bit
            sites, values = _table_effective_conductances(env, decomp, x)
            assert np.array_equal(ec.sites, sites) and np.array_equal(ec.values, values)
            row = M[x]
            assert np.array_equal(row.indices, sites) and np.array_equal(row.data, values)

        linf = env.geometry.linf_norm
        reach = np.full(len(holes), env.N)
        for k, (sites, _, _) in enumerate(holes):
            reach[k] = min(env.N, linf[sites].min())
        largest = np.zeros(env.N + 1, dtype=np.int64)
        np.maximum.at(largest, reach, [len(s) for s, _, _ in holes])
        assert np.array_equal(report.max_volume_by_n, np.maximum.accumulate(largest)[1:])

    @settings(max_examples=30, deadline=None)
    @given(case=cases, data=st.data())
    def test_stencil_and_steps(self, case, data):
        env, _ = _case(*case)
        n = data.draw(st.integers(0, env.N - 1))
        st_ = box_stencil(env, n)
        x = data.draw(st.integers(0, env.geometry.n_sites - 1))
        near, prob = step_distribution(env, x)
        _assert_no_tables(env.geometry)
        for got, want in zip((st_.w, st_.bonds, st_.pi, st_.exit, st_.steps), _table_stencil(env, n)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        keep = env.omega_by_direction[x] > 0
        assert np.array_equal(near, env.geometry.neighbor_table[x][keep])
        assert np.array_equal(prob, env.omega_by_direction[x][keep] / env.pi_all[x])

    @settings(max_examples=20, deadline=None)
    @given(case=cases, walk_seed=st.integers(0, 2**32))
    def test_walk_paths_at_a_fixed_seed(self, case, walk_seed):
        env, xi = _case(*case)
        res = ensemble_walk(env, env.geometry.origin, 64, 12.0, np.random.default_rng(walk_seed))
        tau, exit_site, jumps = _table_walk(env, env.geometry.origin, 64, 12.0, np.random.default_rng(walk_seed))
        assert np.array_equal(res.tau, tau) and np.array_equal(res.exit_site, exit_site)
        assert np.array_equal(res.n_jumps, jumps)
        try:
            decomp = strong_cluster(env, xi)
        except EmptyClusterError:
            return
        x = int(np.flatnonzero(decomp.in_cluster)[0])
        got = next_point_frequencies(env, decomp, x, 64, np.random.default_rng(walk_seed))
        want = _table_next_points(env, decomp, x, 64, np.random.default_rng(walk_seed))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("shape", [(2, 9), (3, 4), (5, 2)])
    def test_decomposition_csv_bytes(self, shape, tmp_path):
        env, xi = _case(shape, 2.0, 17, 0.55)
        decomp = strong_cluster(env, xi)
        write_decomposition_csv(decomp, tmp_path / "dec.csv")
        _assert_no_tables(env.geometry)
        _table_csv(decomp, tmp_path / "ref.csv")
        assert (tmp_path / "dec.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_archive_box(self, tmp_path):
        # the archive workload's box, d = 2, N = 241, p = 0.55: thousands of holes
        env, xi = _case((2, 241), 2.0, 901, 0.55)
        decomp = strong_cluster(env, xi)
        anchors = [h.anchor for h in decomp.holes[::7]]
        rows = [effective_conductances(env, decomp, x) for x in anchors]
        write_decomposition_csv(decomp, tmp_path / "dec.csv")
        _assert_no_tables(env.geometry)
        labels, holes = _table_strong_cluster(env, xi)
        assert len(holes) > 1000 and np.array_equal(decomp.labels, labels)
        assert all(np.array_equal(h.boundary, b) and h.anchor == a for h, (_, b, a) in zip(decomp.holes, holes))
        for x, ec in zip(anchors, rows):
            sites, values = _table_effective_conductances(env, decomp, x)
            assert np.array_equal(ec.sites, sites) and np.array_equal(ec.values, values)
        _table_csv(decomp, tmp_path / "ref.csv")
        assert (tmp_path / "dec.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# no run builds the tables
# ---------------------------------------------------------------------------


def test_no_run_builds_a_whole_box_index_table(tmp_path, monkeypatch):
    # an archive-shaped pass: sample, save, load, cluster, report, CSV, anchor conductances
    env = sample_environment(BoxGeometry(2, 60), 2.0, 5)
    save_environment(env, tmp_path / "env.rcmenv")
    loaded = load_environment(tmp_path / "env.rcmenv")
    decomp = strong_cluster(loaded, threshold_for_density(2.0, 0.55))
    hole_volume_report(decomp)
    write_decomposition_csv(decomp, tmp_path / "dec.csv")
    assert [effective_conductances(loaded, decomp, h.anchor) for h in decomp.holes]
    assert loaded == env
    # one bound job of the benchmark's bounds config
    sampled = []

    def sample(*args):
        sampled.append(sample_environment(*args))
        return sampled[-1]

    monkeypatch.setattr(experiments, "sample_environment", sample)
    cfg = experiments.load_config(ROOT / "perfbench" / "configs" / "bounds.cfg")
    experiments._bound_job(cfg, 2201)
    # one exact curve
    curve_env = sample_environment(BoxGeometry(2, 31), 2.0, 9)
    return_prob_curve_exact(curve_env, default_time_grid(1.0, 60.0, 4), box_radius=30)
    assert len(sampled) == 1
    _assert_no_tables(env.geometry, loaded.geometry, sampled[0].geometry, curve_env.geometry)


# ---------------------------------------------------------------------------
# static guard: only lattice.py reads the index tables
# ---------------------------------------------------------------------------


def _table_reads(source: str) -> list[str]:
    """The reads of ``.neighbor_table`` or ``.all_coords`` in ``source``."""
    return [
        f"line {node.lineno}: {node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in TABLES[:2]
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "lattice.py"), ids=lambda p: p.name
)
def test_only_lattice_reads_the_index_tables(path):
    assert _table_reads(path.read_text()) == []


def test_a_table_read_is_found():
    source = "def f(env, x):\n    g = env.geometry\n    return g.neighbor_table[x], getattr(g, 'all_coords')\n"
    assert _table_reads(source) == ["line 3: neighbor_table"]
