import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix

from rcmwalk import (
    BoxGeometry,
    Environment,
    OperatorSpec,
    STRONG_LABEL,
    TrajectoryRecord,
    ValidationError,
    effective_conductance_matrix,
    effective_conductances,
    ensemble_walk,
    next_point_frequencies,
    sample_environment,
    simulate_ctmc,
    step_distribution,
    strong_cluster,
    threshold_for_density,
    time_changed_trajectory,
    transition_matrix,
)


def _env_with_bonds(d, N, default, overrides):
    geom = BoxGeometry(d, N)
    omega = np.full(geom.n_bonds, default)
    for (u, v), w in overrides.items():
        lo, hi = min(u, v), max(u, v)
        axis = int(np.where(geom.strides == hi - lo)[0][0])
        omega[geom.bond_id_table[lo, axis]] = w
    return Environment(geometry=geom, gamma=math.inf, seed=0, omega=omega)


class TestStepDistribution:
    def test_homogeneous_interior(self, homog_env):
        nb, pr = step_distribution(homog_env, homog_env.geometry.origin)
        assert len(nb) == 4
        assert np.allclose(pr, 0.25)

    def test_two_conductance_corner(self):
        geom = BoxGeometry(2, 1)
        corner = geom.site_index([-1, -1])
        up = geom.site_index([-1, 0])
        right = geom.site_index([0, -1])
        env = _env_with_bonds(2, 1, 0.5, {(corner, up): 0.2, (corner, right): 0.8})
        nb, pr = step_distribution(env, corner)
        table = dict(zip(nb.tolist(), pr.tolist()))
        assert table[up] == pytest.approx(0.2)
        assert table[right] == pytest.approx(0.8)

    def test_normalization(self, small_env):
        rng = np.random.default_rng(1)
        for x in rng.integers(0, small_env.geometry.n_sites, 30):
            _, pr = step_distribution(small_env, int(x))
            assert abs(pr.sum() - 1.0) <= 4 * np.finfo(float).eps

    def test_outside_box(self, small_env):
        with pytest.raises(ValidationError):
            step_distribution(small_env, -1)


class TestRestriction:
    def test_inside_and_rim_bonds_sum_to_pi(self, small_env, holey_decomp):
        # every bond at a site is either inside the set or over its rim
        from rcmwalk.lattice import _restrict

        geom = small_env.geometry
        sets = [geom.sub_box_indices(n) for n in (0, 3, 7)] + [h.sites for h in holey_decomp.holes]
        sets.append(np.flatnonzero(~holey_decomp.in_cluster))  # all holes at once
        sets = [np.sort(s) for s in sets] + [geom.l1_ball_indices(7, 5), geom.l1_ball_indices(8, 12)]
        for sub in sets:
            (row, col, w), (rim_row, outside, rim_w), pi = _restrict(small_env, sub)
            assert np.array_equal(pi, small_env.pi_all[sub])
            total = np.bincount(row, w, len(sub)) + np.bincount(rim_row, rim_w, len(sub))
            np.testing.assert_allclose(total, pi, rtol=1e-15)
            assert not np.isin(outside, sub).any()
            assert np.array_equal(np.sort(sub[row] * geom.n_sites + sub[col]),
                                  np.sort(sub[col] * geom.n_sites + sub[row]))
            # row-major, each row by ascending neighbor index
            assert np.all(np.diff(row) >= 0) and np.all(np.diff(sub[col])[np.diff(row) == 0] > 0)

    def test_box_chain_matches_bond_list_assembly(self, small_env):
        # reference: the killed chain assembled from the canonical bond list
        geom = small_env.geometry
        chain = transition_matrix(small_env, geom.N - 1)
        inv = np.full(geom.n_sites, -1)
        inv[chain.sites] = np.arange(len(chain.sites))
        keep = (inv[geom.bond_u] >= 0) & (inv[geom.bond_v] >= 0)
        u, v, w = geom.bond_u[keep], geom.bond_v[keep], small_env.omega[keep]
        pi = small_env.pi_all
        vals = np.concatenate([w / pi[u], w / pi[v]])
        ref = coo_matrix((vals, (inv[np.concatenate([u, v])], inv[np.concatenate([v, u])])), shape=chain.P.shape)
        ref = ref.tocsr()
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(chain.P, attr), getattr(ref, attr))

    def test_hole_solve_matches_loop_assembly(self, small_env, holey_decomp):
        # reference: the hole system assembled site by site, then a dense solve
        # of that hole alone; the hole pass stacks equal-sized holes into one solve
        geom = small_env.geometry
        for hole in holey_decomp.holes:
            sites, bdry = hole.sites.tolist(), hole.boundary.tolist()
            A = np.zeros((len(sites), len(sites)))
            B = np.zeros((len(sites), len(bdry)))
            for a, z in enumerate(sites):
                A[a, a] = small_env.pi_all[z]
                for y, w in zip(geom.neighbor_table[z].tolist(), small_env.omega_by_direction[z]):
                    if w > 0 and y in sites:
                        A[a, sites.index(y)] -= w
                    elif w > 0:
                        B[a, bdry.index(y)] += w
            rows = holey_decomp.hitting[hole.sites]
            assert rows.nnz == A.shape[0] * B.shape[1]  # each row lives on the hole's boundary
            assert np.array_equal(rows[:, hole.boundary].toarray(), np.linalg.solve(A, B))


class TestDetailedBalance:
    def test_pi_p_symmetric(self, small_env):
        geom = small_env.geometry
        pi = small_env.pi_all
        w = small_env.omega
        left = pi[geom.bond_u] * (w / pi[geom.bond_u])
        right = pi[geom.bond_v] * (w / pi[geom.bond_v])
        np.testing.assert_allclose(left, w, rtol=1e-14)
        np.testing.assert_allclose(right, w, rtol=1e-14)

    def test_transition_matrix_killed_rows(self, small_env):
        chain = transition_matrix(small_env, 5)
        rows = np.asarray(chain.P.sum(axis=1)).ravel()
        assert np.all(rows <= 1.0 + 1e-12)
        interior = small_env.geometry.linf_norm[chain.sites] < 5
        np.testing.assert_allclose(rows[interior], 1.0, atol=1e-12)
        assert np.any(rows < 1.0 - 1e-6)  # rim leaks

    def test_free_chain_stochastic(self, small_env):
        chain = transition_matrix(small_env, killed=False)
        rows = np.asarray(chain.P.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_killed_radius_validation(self, small_env):
        with pytest.raises(ValidationError):
            transition_matrix(small_env, small_env.geometry.N)


@st.composite
def _chains(draw, killed=st.booleans()):
    """A killed or free jump chain on a small random d=2 or d=3 box."""
    d = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 4 if d == 2 else 3))
    env = sample_environment(BoxGeometry(d, N), draw(st.floats(0.5, 8.0)), draw(st.integers(0, 2**31)))
    if draw(killed):
        return env, transition_matrix(env, draw(st.integers(0, N - 1)))
    return env, transition_matrix(env, killed=False)


class TestChainProperties:
    ULP = 4 * np.finfo(float).eps

    @settings(max_examples=60, deadline=None)
    @given(case=_chains())
    def test_rows_and_exit_sum_to_one(self, case):
        _, chain = case
        rows = np.asarray(chain.P.sum(axis=1)).ravel() + chain.exit
        assert np.all(np.abs(rows - 1.0) <= self.ULP)

    @settings(max_examples=60, deadline=None)
    @given(case=_chains())
    def test_exit_only_over_the_rim(self, case):
        env, chain = case
        rim = env.geometry.linf_norm[chain.sites] == chain.box_radius
        if chain.killed:
            assert np.all(chain.exit[~rim] == 0.0)
            assert np.all(chain.exit[rim] > 0.0)
        else:
            assert np.all(chain.exit == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(case=_chains())
    def test_pi_reversible(self, case):
        _, chain = case
        flow = chain.pi[:, None] * chain.P.toarray()
        np.testing.assert_allclose(flow, flow.T, rtol=self.ULP, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(case=_chains(killed=st.just(True)), lam=st.floats(0.0, 3.0))
    def test_symmetrized_is_exactly_symmetric(self, case, lam):
        env, chain = case
        S, _ = OperatorSpec(env=env, box_radius=chain.box_radius, lam=lam).symmetrized
        assert np.array_equal(S.toarray(), S.T.toarray())


class TestBallChain:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        N=st.integers(1, 6),
        gamma=st.floats(0.5, 8.0),
        seed=st.integers(0, 2**31),
        data=st.data(),
    )
    def test_box_chain_cut_to_the_ball(self, d, N, gamma, seed, data):
        # inside the ball the rows are the box chain's, entry for entry; on its
        # rim the bonds that leave it turn into exit probability
        N = N if d == 2 else 1 + N // 2
        env = sample_environment(BoxGeometry(d, N), gamma, seed)
        n = data.draw(st.integers(0, N - 1))
        radius = data.draw(st.integers(0, d * n + 2))
        box, ball = transition_matrix(env, n), transition_matrix(env, n, l1_radius=radius)
        geom = env.geometry
        box_l1 = np.abs(geom.site_coords(box.sites)).sum(axis=1)
        by_distance = box.sites[np.lexsort((box.sites, box_l1))]
        assert np.array_equal(ball.sites, by_distance[: np.count_nonzero(box_l1 <= radius)])
        coords = geom.site_coords(ball.sites)
        l1 = np.abs(coords).sum(axis=1)
        assert ball.origin == 0 and ball.sites[0] == geom.origin
        at = np.searchsorted(box.sites, ball.sites)
        assert np.array_equal(ball.pi, box.pi[at])
        for i, k in enumerate(at):
            box_row = slice(box.P.indptr[k], box.P.indptr[k + 1])
            ball_row = slice(ball.P.indptr[i], ball.P.indptr[i + 1])
            keep = np.isin(box.sites[box.P.indices[box_row]], ball.sites)
            assert np.array_equal(ball.sites[ball.P.indices[ball_row]], box.sites[box.P.indices[box_row]][keep])
            assert np.array_equal(ball.P.data[ball_row], box.P.data[box_row][keep])
            assert keep.all() or l1[i] == radius
        rows = np.asarray(ball.P.sum(axis=1)).ravel() + ball.exit
        assert np.all(np.abs(rows - 1.0) <= 4 * np.finfo(float).eps)
        rim = (np.abs(coords).max(axis=1) == n) | (l1 == radius)
        assert np.all(ball.exit[~rim] == 0.0) and np.all(ball.exit[rim] > 0.0)

    def test_validation(self, small_env):
        with pytest.raises(ValidationError, match="killed"):
            transition_matrix(small_env, killed=False, l1_radius=3)
        with pytest.raises(ValidationError, match="L1 radius"):
            transition_matrix(small_env, 4, l1_radius=-1)


class TestSimulateCtmc:
    def test_poisson_clock_rate(self, homog_env, rng):
        t = 12.0
        res = ensemble_walk(homog_env, homog_env.geometry.origin, 10_000, t, rng, kill_radius=None)
        mean = res.n_jumps.mean()
        sd_mean = math.sqrt(t / 10_000)
        assert abs(mean - t) <= 4 * sd_mean

    def test_full_box_additive_functional(self, homog_env, rng):
        dec = strong_cluster(homog_env, 0.5)
        for _ in range(5):
            traj = simulate_ctmc(homog_env, homog_env.geometry.origin, 7.0, rng, decomp=dec, kill_radius=None)
            assert traj.A_hat(traj.end_time) == pytest.approx(traj.end_time, abs=1e-12)

    def test_zero_horizon(self, small_env, rng):
        traj = simulate_ctmc(small_env, small_env.geometry.origin, 0.0, rng)
        assert traj.n_jumps == 0
        assert np.array_equal(traj.sites, [small_env.geometry.origin])
        assert traj.A_hat(0.0) == 0.0

    def test_additive_functional_bounds(self, small_env, holey_decomp, rng):
        start = int(np.flatnonzero(holey_decomp.in_cluster)[0])
        traj = simulate_ctmc(small_env, start, 30.0, rng, decomp=holey_decomp, kill_radius=None)
        ts = np.linspace(0, traj.end_time, 40)
        a = traj.A_hat(ts)
        assert np.all(a <= ts + 1e-12)
        assert np.all(np.diff(a) >= -1e-12)
        assert np.all(np.diff(a) <= np.diff(ts) + 1e-12)

    def test_nearest_neighbor_steps(self, small_env, rng):
        traj = simulate_ctmc(small_env, small_env.geometry.origin, 20.0, rng)
        coords = small_env.geometry.all_coords[traj.sites]
        assert np.all(np.abs(np.diff(coords, axis=0)).sum(axis=1) == 1)

    def test_killing_records_exit(self, small_env, rng):
        # tiny kill radius: exits happen fast and land just outside
        geom = small_env.geometry
        traj = simulate_ctmc(small_env, geom.origin, 500.0, rng, kill_radius=2)
        assert math.isfinite(traj.tau_N)
        assert geom.linf_norm[traj.sites[-1]] == 3
        assert np.all(geom.linf_norm[traj.sites[:-1]] <= 2)
        assert traj.end_time == traj.tau_N


class TestTimeChange:
    def test_identity_on_cluster_paths(self, homog_env, rng):
        dec = strong_cluster(homog_env, 0.5)
        traj = simulate_ctmc(homog_env, homog_env.geometry.origin, 9.0, rng, decomp=dec, kill_radius=None)
        hat = time_changed_trajectory(traj, dec)
        assert np.array_equal(hat.sites, traj.sites)
        np.testing.assert_allclose(hat.increments, traj.increments, rtol=1e-15)
        assert hat.horizon == pytest.approx(traj.horizon, abs=1e-12)

    def test_hand_built_excursion(self):
        # three segments: cluster (1.5), hole (0.7), cluster (2.3); the time
        # change removes exactly the hole duration
        geom = BoxGeometry(2, 1)
        a = geom.site_index([0, 0])
        h = geom.site_index([0, 1])
        b = geom.site_index([1, 1])
        env = _env_with_bonds(2, 1, 0.9, {})
        labels = np.full(geom.n_sites, STRONG_LABEL)
        labels[h] = 0
        from rcmwalk.percolation import ClusterDecomposition, Hole

        dec = ClusterDecomposition(
            env=env,
            threshold=0.5,
            labels=labels,
            holes=[Hole(sites=np.array([h]), boundary=np.array(sorted([a, b])), anchor=min(a, b))],
        )
        traj = TrajectoryRecord(
            start=a,
            sites=np.array([a, h, b]),
            increments=np.array([1.5, 0.7]),
            horizon=4.5,
            tau_N=math.inf,
            phi_sites=np.array([1.0, 0.0, 1.0]),
            A_at_jumps=np.array([0.0, 1.5, 1.5]),
        )
        hat = time_changed_trajectory(traj, dec)
        assert np.array_equal(hat.sites, [a, b])
        assert hat.horizon == pytest.approx(4.5 - 0.7)
        assert hat.increments[0] == pytest.approx(1.5)

    def test_idempotence(self, small_env, holey_decomp, rng):
        start = int(np.flatnonzero(holey_decomp.in_cluster)[0])
        traj = simulate_ctmc(small_env, start, 25.0, rng, decomp=holey_decomp, kill_radius=None)
        hat = time_changed_trajectory(traj, holey_decomp)
        assert np.all(holey_decomp.in_cluster[hat.sites])
        # the additive functional of the output is its own clock
        again = time_changed_trajectory(hat, holey_decomp)
        assert again.horizon == pytest.approx(hat.horizon, abs=1e-12)
        assert hat.A_hat(hat.end_time) == pytest.approx(hat.end_time, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        radius=st.integers(2, 8),
        density=st.sampled_from([0.5, 0.6, 0.8, 0.95]),
        horizon=st.floats(0.0, 60.0),
        killed=st.booleans(),
        pick=st.integers(0, 2**16),
    )
    def test_time_change_is_idempotent(self, seed, radius, density, horizon, killed, pick):
        # a time-changed record lives on the strong cluster and runs on its own
        # clock, so a second time change keeps its sites and increments bit for
        # bit, and its additive functional at the end is the end time
        env = sample_environment(BoxGeometry(2, radius), 2.0, seed)
        dec = strong_cluster(env, threshold_for_density(2.0, density))
        cluster = np.flatnonzero(dec.in_cluster)
        if killed:
            cluster = cluster[env.geometry.linf_norm[cluster] <= radius - 1]
        if not len(cluster):
            return
        rng = np.random.default_rng(seed)
        traj = simulate_ctmc(env, int(cluster[pick % len(cluster)]), horizon, rng, decomp=dec,
                             kill_radius="interior" if killed else None)
        hat = time_changed_trajectory(traj, dec)
        again = time_changed_trajectory(hat, dec)
        assert np.array_equal(again.sites, hat.sites)
        assert np.array_equal(again.increments, hat.increments)
        assert again.horizon == pytest.approx(hat.horizon, rel=1e-12, abs=0.0)
        assert hat.A_hat(hat.end_time) == hat.end_time

    def test_start_in_hole_rejected(self, small_env, holey_decomp, rng):
        hole_site = int(holey_decomp.holes[0].sites[0])
        traj = simulate_ctmc(small_env, hole_site, 5.0, rng, kill_radius=None)
        with pytest.raises(ValidationError):
            time_changed_trajectory(traj, holey_decomp)


class TestEffectiveConductances:
    def test_no_adjacent_hole(self, small_env, holey_decomp):
        # a site all of whose neighbors are on the cluster: table equals omega
        geom = small_env.geometry
        for x in np.flatnonzero(holey_decomp.in_cluster):
            nbs = geom.neighbor_table[int(x)]
            nbs = nbs[nbs >= 0]
            if np.all(holey_decomp.in_cluster[nbs]):
                ec = effective_conductances(small_env, holey_decomp, int(x))
                assert set(ec.sites.tolist()) == set(nbs.tolist())
                for y in nbs:
                    assert ec.weight(int(y)) == pytest.approx(
                        small_env.bond_conductance(int(x), int(y)), rel=1e-15
                    )
                break
        else:
            pytest.skip("no fully-surrounded site in fixture")

    def test_strong_bond_lower_bound(self, small_env, holey_decomp):
        geom = small_env.geometry
        xi = holey_decomp.threshold
        in_c = holey_decomp.in_cluster
        checked = 0
        for k in range(geom.n_bonds):
            u, v = int(geom.bond_u[k]), int(geom.bond_v[k])
            if small_env.omega[k] >= xi and in_c[u] and in_c[v]:
                ec = effective_conductances(small_env, holey_decomp, u)
                assert ec.weight(v) >= xi - 1e-12
                checked += 1
                if checked > 40:
                    break
        assert checked > 0

    def test_single_site_hole_closed_form(self):
        # center of a 5x5 box isolated by weak bonds; from a boundary site x
        # the next-cluster law folds one hop through the hole:
        # what(x, y) = omega_xy + omega_xz * omega_zy / pi(z)
        geom = BoxGeometry(2, 2)
        z = geom.origin
        nbs = [int(geom.neighbor_table[z, c]) for c in range(4)]
        overrides = {(z, y): 0.1 for y in nbs}
        env = _env_with_bonds(2, 2, 0.9, overrides)
        dec = strong_cluster(env, 0.5)
        assert len(dec.holes) == 1 and dec.holes[0].volume == 1
        x = nbs[0]
        ec = effective_conductances(env, dec, x)
        pi_z = float(env.pi_all[z])
        # every entry against the explicit one-hop formula
        for y in ec.sites:
            y = int(y)
            direct = 0.0
            for c in range(4):
                nb = int(geom.neighbor_table[x, c])
                if nb == y and dec.in_cluster[y]:
                    direct += env.bond_conductance(x, y)
            through = 0.0
            if z in [int(geom.neighbor_table[x, c]) for c in range(4)] and y in nbs:
                through = env.bond_conductance(x, z) * env.bond_conductance(z, y) / pi_z
            assert ec.weight(y) == pytest.approx(direct + through, rel=1e-12)

    def test_two_site_hole_dense_oracle(self):
        # two adjacent isolated sites: fold through the 2x2 fundamental matrix
        geom = BoxGeometry(2, 2)
        z1 = geom.site_index([0, 0])
        z2 = geom.site_index([0, 1])
        overrides = {}
        for z in (z1, z2):
            for c in range(4):
                y = int(geom.neighbor_table[z, c])
                if y != z1 and y != z2:
                    overrides[(z, y)] = 0.05
        env = _env_with_bonds(2, 2, 0.9, overrides)
        dec = strong_cluster(env, 0.5)
        assert len(dec.holes) == 1 and dec.holes[0].volume == 2
        hole = dec.holes[0]
        pi = env.pi_all
        hs = [int(s) for s in hole.sites]
        bd = [int(s) for s in hole.boundary]
        # absorbing-chain oracle built directly: H = (I - Q)^{-1} R
        Q = np.zeros((2, 2))
        R = np.zeros((2, len(bd)))
        for i, z in enumerate(hs):
            for c in range(4):
                y = int(geom.neighbor_table[z, c])
                if y < 0:
                    continue
                w = env.bond_conductance(z, y)
                if y in hs:
                    Q[i, hs.index(y)] = w / pi[z]
                else:
                    R[i, bd.index(y)] = w / pi[z]
        H = np.linalg.solve(np.eye(2) - Q, R)
        x = bd[0]
        ec = effective_conductances(env, dec, x)
        for j, y in enumerate(bd):
            expected = 0.0
            if dec.in_cluster[y]:
                for c in range(4):
                    if int(geom.neighbor_table[x, c]) == y:
                        expected += env.bond_conductance(x, y)
            for i, z in enumerate(hs):
                if z in [int(geom.neighbor_table[x, c]) for c in range(4)]:
                    expected += env.bond_conductance(x, z) * H[i, j]
            assert ec.weight(y) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_symmetry_and_normalization(self, small_env, holey_decomp):
        M = effective_conductance_matrix(small_env, holey_decomp).tocsr()
        gap = abs(M - M.T).max()
        assert gap <= 1e-10 * M.max()
        rows = np.asarray(M.sum(axis=1)).ravel()
        mask = holey_decomp.in_cluster
        np.testing.assert_allclose(rows[mask], small_env.pi_all[mask], rtol=1e-12)

    def test_hole_above_two_thousand_sites(self):
        # the largest hole of this box (2,632 sites, 179 boundary sites) goes
        # through the same dense solve as the single-site holes
        env = sample_environment(BoxGeometry(2, 40), 2.0, 3)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.52))
        hole = max(dec.holes, key=lambda h: h.volume)
        assert hole.volume >= 2000
        bdry = hole.boundary
        H = dec.hitting[hole.sites][:, bdry].toarray()
        assert H.shape == (hole.volume, len(hole.boundary))
        assert np.all(H >= 0)
        np.testing.assert_allclose(H.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        ecs = {int(x): effective_conductances(env, dec, int(x)) for x in bdry}
        gap = max(abs(ecs[x].weight(y) - ecs[y].weight(x)) for x in ecs for y in ecs)
        assert gap <= 1e-10

    def test_support_rule(self, small_env, holey_decomp):
        # positive weight only toward box neighbors on the cluster or sites
        # sharing an adjacent hole's boundary
        geom = small_env.geometry
        hole_of_boundary: dict[int, set[int]] = {}
        for k, h in enumerate(holey_decomp.holes):
            for s in h.boundary:
                hole_of_boundary.setdefault(int(s), set()).add(k)
        for x in np.flatnonzero(holey_decomp.in_cluster)[:60]:
            x = int(x)
            ec = effective_conductances(small_env, holey_decomp, x)
            nbs = set(int(y) for y in geom.neighbor_table[x] if y >= 0)
            for y in ec.sites:
                y = int(y)
                ok_direct = y in nbs and holey_decomp.in_cluster[y]
                shared = hole_of_boundary.get(x, set()) & hole_of_boundary.get(y, set())
                assert ok_direct or shared

    def test_mc_cross_check(self, small_env, holey_decomp):
        x = int(holey_decomp.holes[0].boundary[0])
        ec = effective_conductances(small_env, holey_decomp, x)
        n = 30_000
        sites, counts = next_point_frequencies(small_env, holey_decomp, x, n, np.random.default_rng(77))
        freq = dict(zip(sites.tolist(), counts.tolist()))
        for y, w in ec.as_dict().items():
            p = w / ec.eta
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq.get(y, 0) / n - p) <= 4 * max(se, 1e-9)

    def test_mc_cross_check_via_time_change(self, small_env, holey_decomp):
        # the same law read off full trajectories: second visited site of the
        # time-changed path is the next strong-cluster point
        x = int(holey_decomp.holes[0].boundary[0])
        ec = effective_conductances(small_env, holey_decomp, x)
        rng = np.random.default_rng(123)
        n = 1_500
        hits: dict[int, int] = {}
        for _ in range(n):
            traj = simulate_ctmc(small_env, x, 50.0, rng, decomp=holey_decomp, kill_radius=None)
            hat = time_changed_trajectory(traj, holey_decomp)
            assert len(hat.sites) >= 2  # horizon is long enough to jump
            y = int(hat.sites[1])
            hits[y] = hits.get(y, 0) + 1
        for y, w in sorted(ec.as_dict().items()):
            p = w / ec.eta
            se = math.sqrt(p * (1 - p) / n)
            assert abs(hits.get(y, 0) / n - p) <= 4 * max(se, 1e-9)

    def test_off_cluster_rejected(self, small_env, holey_decomp):
        hole_site = int(holey_decomp.holes[0].sites[0])
        with pytest.raises(ValidationError):
            effective_conductances(small_env, holey_decomp, hole_site)

    def test_other_environment_rejected(self, small_env, holey_decomp):
        # the hitting law belongs to the decomposition's own environment: a
        # table read through another one would mix the two
        other = sample_environment(small_env.geometry, 2.0, 12)
        x = int(holey_decomp.holes[0].boundary[0])
        effective_conductances(small_env, holey_decomp, x)
        with pytest.raises(ValidationError, match="different environment"):
            effective_conductances(other, holey_decomp, x)
        with pytest.raises(ValidationError, match="different environment"):
            effective_conductance_matrix(other, holey_decomp)


@st.composite
def _decompositions(draw):
    """A small random d=2 or d=3 box split at strong density in [0.5, 0.7]."""
    d = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(3, 7 if d == 2 else 3))
    env = sample_environment(BoxGeometry(d, N), 2.0, draw(st.integers(0, 2**31)))
    return env, strong_cluster(env, threshold_for_density(2.0, draw(st.floats(0.5, 0.7))))


class TestHolePass:
    @settings(max_examples=40, deadline=None)
    @given(case=_decompositions())
    def test_hitting_rows_are_laws(self, case):
        _, dec = case
        H = dec.hitting
        assert np.all(H.data >= 0)
        rows = np.asarray(H.sum(axis=1)).ravel()
        assert np.all(np.abs(rows[~dec.in_cluster] - 1.0) <= 1e-12)
        assert np.all(rows[dec.in_cluster] == 0)

    @settings(max_examples=40, deadline=None)
    @given(case=_decompositions())
    def test_matrix_is_the_table(self, case):
        env, dec = case
        M = effective_conductance_matrix(env, dec).tocsr()
        assert abs(M - M.T).max() <= 1e-12 * M.max()
        rows = np.asarray(M.sum(axis=1)).ravel()
        mask = dec.in_cluster
        np.testing.assert_allclose(rows[mask], env.pi_all[mask], rtol=1e-12)
        for x in np.flatnonzero(mask):
            ec = effective_conductances(env, dec, int(x))
            row = M[int(x)]
            assert np.array_equal(row.indices, ec.sites)
            np.testing.assert_allclose(row.data, ec.values, rtol=1e-15, atol=0)


def _step(stepper, env, x0, kill_radius):
    rng = np.random.default_rng(5)
    if stepper == "simulate_ctmc":
        return simulate_ctmc(env, x0, 5.0, rng, kill_radius=kill_radius)
    return ensemble_walk(env, x0, 4, 5.0, rng, kill_radius=kill_radius)


@pytest.mark.parametrize("stepper", ["simulate_ctmc", "ensemble_walk"])
class TestStartSite:
    @pytest.mark.parametrize("kill_radius", [None, "interior"])
    @pytest.mark.parametrize("where", ["negative", "past_the_end"])
    def test_start_outside_the_box_rejected(self, small_env, stepper, kill_radius, where):
        # numpy would read -1 as the last site and n_sites as an IndexError
        x0 = -1 if where == "negative" else small_env.geometry.n_sites
        with pytest.raises(ValidationError, match="start site"):
            _step(stepper, small_env, x0, kill_radius)

    def test_interior_is_the_largest_kill_radius(self, small_env, stepper):
        geom = small_env.geometry
        rim = int(np.flatnonzero(geom.linf_norm == geom.N)[0])
        with pytest.raises(ValidationError, match="kill radius"):
            _step(stepper, small_env, rim, "interior")
        with pytest.raises(ValidationError, match="kill radius must lie"):
            _step(stepper, small_env, geom.origin, geom.N)
        _step(stepper, small_env, rim, None)
        _step(stepper, small_env, geom.origin, geom.N - 1)


class TestEnsembleSemantics:
    def test_positions_blank_after_death(self, small_env, rng):
        grid = np.array([0.5, 2.0, 8.0, 30.0])
        res = ensemble_walk(small_env, small_env.geometry.origin, 400, 30.0, rng,
                            kill_radius=2, real_grid=grid)
        dead = np.isfinite(res.tau)
        assert dead.any()
        for j, tj in enumerate(grid):
            gone = dead & (res.tau < tj)
            assert np.all(res.site_at[gone, j] == -1)
        # exit sites sit just outside the kill radius
        linf = small_env.geometry.linf_norm
        assert np.all(linf[res.exit_site[dead]] == 3)

    def test_mc_respects_box_radius(self, small_env):
        # MC on a smaller operator box agrees with the exact kernel there
        from rcmwalk import UniformizationCache, return_prob_mc

        cache = UniformizationCache(small_env, box_radius=4)
        grid = np.array([1.0, 4.0, 10.0])
        mc = return_prob_mc(small_env, grid, 30_000, np.random.default_rng(6), box_radius=4)
        for j, t in enumerate(grid):
            assert abs(mc.p[j] - cache.return_prob(t)) <= 4 * max(mc.stderr[j], 1e-9)
