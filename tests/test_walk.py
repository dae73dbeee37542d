import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csr_matrix

from rcmwalk import (
    BoxGeometry,
    Environment,
    NumericalError,
    OperatorSpec,
    ValidationError,
    default_time_grid,
    effective_conductance_matrix,
    effective_conductances,
    ensemble_walk,
    next_point_frequencies,
    return_prob_curve_exact,
    sample_environment,
    step_distribution,
    strong_cluster,
    threshold_for_density,
    transition_matrix,
)
from rcmwalk import heatkernel, percolation, walk
from rcmwalk.heatkernel import _ball_pattern, _folded_operator


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

    @pytest.mark.parametrize("x", [2.5, 3.0, "3"])
    def test_non_integral_site_rejected(self, small_env, x):
        with pytest.raises(ValidationError, match="site must be an integer"):
            step_distribution(small_env, x)


def _bond_list_chain(env, box_radius):
    """``W``, ``pi`` and ``exit`` of the chain killed on leaving ``B_n``, assembled from the canonical bond list.

    Independent of the box stencil: the bonds of ``B_n`` and those over its
    rim come from ``bond_u``, ``bond_axis``, ``bond_v`` and ``omega``, ``pi``
    from ``pi_all``; a site's rim bonds are summed in incidence order.
    """
    geom = env.geometry
    sites = geom.sub_box_indices(box_radius)
    inv = np.full(geom.n_sites, -1)
    inv[sites] = np.arange(len(sites))
    u, v, axis, w = inv[geom.bond_u], inv[geom.bond_v], geom.bond_axis, env.omega
    m = len(sites)
    keep = (u >= 0) & (v >= 0)
    W = coo_matrix((np.tile(w[keep], 2), (np.r_[u[keep], v[keep]], np.r_[v[keep], u[keep]])), shape=(m, m))
    rim = np.zeros((2 * geom.d, m))
    up, down = (u >= 0) & (v < 0), (u < 0) & (v >= 0)  # leaving along +e_i from u, along -e_i from v
    rim[2 * axis[up] + 1, u[up]] = w[up]
    rim[2 * axis[down], v[down]] = w[down]
    exit_rate = np.zeros(m)
    for row in rim:
        exit_rate += row
    pi = env.pi_all[sites]
    return W.tocsr(), pi, exit_rate / pi


def _hole_loop_assembly(env, hole):
    """A hole's hitting law on its boundary, from its system assembled site by site and solved alone."""
    geom = env.geometry
    where = {z: a for a, z in enumerate(hole.sites.tolist())}
    column = {y: b for b, y in enumerate(hole.boundary.tolist())}
    A = np.zeros((len(where), len(where)))
    B = np.zeros((len(where), len(column)))
    for z, a in where.items():
        A[a, a] = env.pi_all[z]
        for y, w in zip(geom.neighbor_table[z].tolist(), env.omega_by_direction[z]):
            if w > 0 and y in where:
                A[a, where[y]] -= w
            elif w > 0:
                B[a, column[y]] += w
    return np.linalg.solve(A, B)


class TestRestriction:
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
        for n in (0, 3, geom.N - 1):
            chain = transition_matrix(small_env, n)
            W, pi, exit_rate = _bond_list_chain(small_env, n)
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(chain.W, attr), getattr(W, attr))
            assert np.array_equal(chain.pi, pi) and np.array_equal(chain.exit, exit_rate)

    def test_hole_solve_matches_loop_assembly(self, small_env, holey_decomp):
        # the hole pass solves the holes of a boundary width as one banded Cholesky system, whose
        # rounding differs from a per-hole LU solve's
        for hole in holey_decomp.holes:
            ref = _hole_loop_assembly(small_env, hole)
            rows = holey_decomp.hitting[hole.sites]
            assert rows.nnz == ref.size  # each row lives on the hole's boundary
            got = rows[:, hole.boundary].toarray()
            assert np.all(np.abs(got - ref) <= 1e-12 * ref.max(axis=1, keepdims=True))


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

    def test_killed_radius_validation(self, small_env):
        with pytest.raises(ValidationError):
            transition_matrix(small_env, small_env.geometry.N)


@st.composite
def _chains(draw):
    """A killed jump chain on a small random d=2 or d=3 box."""
    d = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 4 if d == 2 else 3))
    env = sample_environment(BoxGeometry(d, N), draw(st.floats(0.5, 8.0)), draw(st.integers(0, 2**31)))
    return env, transition_matrix(env, draw(st.integers(0, N - 1)))


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
        assert np.all(chain.exit[~rim] == 0.0)
        assert np.all(chain.exit[rim] > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(case=_chains())
    def test_pi_reversible(self, case):
        _, chain = case
        flow = chain.pi[:, None] * chain.P.toarray()
        np.testing.assert_allclose(flow, flow.T, rtol=self.ULP, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(case=_chains())
    def test_conductances_are_exactly_symmetric(self, case):
        _, chain = case
        assert np.array_equal(chain.W.toarray(), chain.W.T.toarray())

    @settings(max_examples=60, deadline=None)
    @given(case=_chains())
    def test_jump_matrix_is_w_over_pi(self, case):
        # reference: the chain assembled from the canonical bond list
        env, chain = case
        W, pi, exit_rate = _bond_list_chain(env, chain.box_radius)
        ref = csr_matrix((W.data / np.repeat(pi, np.diff(W.indptr)), W.indices, W.indptr), shape=W.shape)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(chain.W, attr), getattr(W, attr))
            assert np.array_equal(getattr(chain.P, attr), getattr(ref, attr))
        assert np.array_equal(chain.pi, pi) and np.array_equal(chain.exit, exit_rate)

    @settings(max_examples=60, deadline=None)
    @given(case=_chains(), lam=st.floats(0.0, 3.0))
    def test_symmetrized_is_exactly_symmetric(self, case, lam):
        env, chain = case
        spec = OperatorSpec(env=env, box_radius=chain.box_radius, lam=lam)
        S, sqrt_pi = spec.symmetrized
        assert np.array_equal(S.toarray(), S.T.toarray())
        # reference: the operator scaled from the bond-list assembly of the box
        W, pi, _ = _bond_list_chain(env, chain.box_radius)
        W = W.tocoo()
        m = len(pi)
        ref_sqrt = np.sqrt(pi)
        off = coo_matrix((W.data / (ref_sqrt[W.row] * ref_sqrt[W.col]), (W.row, W.col)), shape=(m, m))
        diag = 1.0 + lam * spec.phi_box
        ref = (coo_matrix((diag, (np.arange(m), np.arange(m))), shape=(m, m)) - off).tocsc()
        assert np.array_equal(sqrt_pi, ref_sqrt)
        got, ref = S.tocsr(), ref.tocsr()  # S lives on its diagonals
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))

    @settings(max_examples=60, deadline=None)
    @given(case=_chains(), data=st.data())
    def test_folded_blocks_scale_w(self, case, data):
        env, chain = case
        n = chain.box_radius
        radius = data.draw(st.integers(0, env.geometry.d * n + 2))
        got = _folded_operator(env, _ball_pattern(env.geometry, n, radius))
        _assert_same_blocks(got, _folded_blocks_from_p(env, n, radius))


def _folded_blocks_from_p(env, box_radius, radius):
    """Reference parity blocks of ``D^(1/2) P D^(-1/2)`` on the ball, cut from the full-box chain.

    The ball's sites in (L1 distance, canonical index) order, split by
    parity; each row keeps the box row's entries to sites of the ball, in
    the box row's order.
    """
    chain = transition_matrix(env, box_radius)
    P = chain.P
    sq = np.sqrt(chain.pi)
    l1 = np.abs(env.geometry.site_coords(chain.sites)).sum(axis=1)
    order = np.argsort(l1, kind="stable")  # the box's sites come in canonical order
    order = order[l1[order] <= radius]
    sides = [order[l1[order] % 2 == parity] for parity in (0, 1)]
    rank = np.full(len(l1), -1)  # position among the ball's sites of its parity
    for rows in sides:
        rank[rows] = np.arange(len(rows))
    blocks, weights, balls = [], [], []
    for rows, other in zip(sides, sides[::-1]):
        count = np.diff(P.indptr)[rows]
        take = np.arange(count.sum()) + np.repeat(P.indptr[rows] - (np.cumsum(count) - count), count)
        local = np.repeat(np.arange(len(rows)), count)
        keep = rank[P.indices[take]] >= 0
        take, local = take[keep], local[keep]
        cols = P.indices[take]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(local, minlength=len(rows)), out=indptr[1:])
        data = P.data[take] * (sq[rows[local]] / sq[cols])
        blocks.append(csr_matrix((data, rank[cols], indptr), shape=(len(rows), len(other))))
        weights.append(sq[rows] / sq[order[0]])
        balls.append(np.searchsorted(l1[rows], np.arange(radius + 1), side="right"))
    return blocks, weights, balls


def _assert_same_blocks(got, ref):
    """Blocks, weights and balls equal bit for bit, index dtypes included."""
    (blocks, weights, balls), (ref_blocks, ref_weights, ref_balls) = got, ref
    for block, expected in zip(blocks, ref_blocks):
        assert block.shape == expected.shape
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(block, attr), getattr(expected, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), attr
    for a, b in zip(weights + balls, ref_weights + ref_balls):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestFoldedGather:
    @pytest.mark.parametrize("d, N, n", [(2, 7, 6), (3, 5, 4), (5, 3, 2)])
    def test_gather_equals_the_full_box_restriction(self, d, N, n, monkeypatch):
        # a ball inside the box, one filling it (R >= d n), and the balls of a
        # run that grows its ball in place, each against the full box cut to it
        env = sample_environment(BoxGeometry(d, N), 1.0, 17 + d)
        for radius in (d * n // 2, d * n + 2):
            _assert_same_blocks(
                _folded_operator(env, _ball_pattern(env.geometry, n, radius)), _folded_blocks_from_p(env, n, radius)
            )
        gathered, gather, cut = [], heatkernel._folded_operator, heatkernel._box_operator

        def recording(env, pattern):
            blocks = gather(env, pattern)
            gathered.append((len(pattern.balls[0]) - 1, blocks))
            return blocks

        def recording_cut(chain):  # a lone curve's whole-box ball
            blocks = cut(chain)
            gathered.append((d * chain.box_radius, blocks))
            return blocks

        monkeypatch.setattr(heatkernel, "_folded_operator", recording)
        monkeypatch.setattr(heatkernel, "_box_operator", recording_cut)
        monkeypatch.setattr(heatkernel, "_BALL_MARGIN", -200)  # the first ball is the origin alone
        return_prob_curve_exact(env, default_time_grid(1.0, 10.0, 6), box_radius=n)
        assert [radius for radius, _ in gathered][:2] == [0, min(d * n, heatkernel._BLOCK_RADII)]
        for radius, blocks in gathered:
            _assert_same_blocks(blocks, _folded_blocks_from_p(env, n, radius))


    @pytest.mark.parametrize("d, N, n", [(2, 7, 6), (2, 7, 0), (3, 5, 4), (5, 3, 2)])
    def test_box_cut_equals_the_whole_box_gather(self, d, N, n):
        env = sample_environment(BoxGeometry(d, N), 1.0, 23 + d)
        cut = heatkernel._box_operator(transition_matrix(env, n))
        _assert_same_blocks(cut, _folded_operator(env, _ball_pattern(env.geometry, n, d * n)))
        _assert_same_blocks(cut, _folded_blocks_from_p(env, n, d * n))

    @pytest.mark.parametrize("d, N, n", [(2, 7, 6), (3, 5, 4)])
    def test_row_product_equals_the_product_cut_to_its_rows(self, d, N, n):
        # the blocks of a ball inside the box and of the whole box, on no row, half of them and all
        env = sample_environment(BoxGeometry(d, N), 1.0, 31 + d)
        rng = np.random.default_rng(d)
        inside = _folded_operator(env, _ball_pattern(env.geometry, n, d * n // 2))[0]
        for M in inside + heatkernel._box_operator(transition_matrix(env, n))[0]:
            x = rng.standard_normal(M.shape[1])
            for rows in (0, M.shape[0] // 2, M.shape[0]):
                out = np.full(rows, np.nan)  # the kernel adds to what out holds
                walk._row_product(M, x, out)
                assert out.tobytes() == (M @ x)[:rows].tobytes()

    def test_row_product_refuses_what_it_cannot_pass_to_the_kernel(self):
        env = sample_environment(BoxGeometry(2, 5), 1.0, 3)
        C = _folded_operator(env, _ball_pattern(env.geometry, 4, 8))[0][1]
        rows, cols = C.shape
        x, out = np.ones(cols), np.zeros(rows)
        bad = [
            (x, np.zeros(rows + 1)),  # more rows than the block has
            (np.ones(cols - 1), out),
            (np.ones(cols + 1), out),
            (x.astype(np.float32), out),
            (x, out.astype(np.float32)),
            (np.ones(2 * cols)[::2], out),
            (x, np.zeros(2 * rows)[::2]),
            (x, np.zeros((rows, 1))),
        ]
        for x_bad, out_bad in bad:
            with pytest.raises(ValidationError, match="row product"):
                walk._row_product(C, x_bad, out_bad)


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
        # inside the ball the rows of the folded blocks are the box chain's,
        # entry for entry; on its rim the bonds that leave it are dropped
        N = N if d == 2 else 1 + N // 2
        env = sample_environment(BoxGeometry(d, N), gamma, seed)
        n = data.draw(st.integers(0, N - 1))
        radius = data.draw(st.integers(0, d * n + 2))
        box = transition_matrix(env, n)
        (CT, C), weights, balls = _folded_operator(env, _ball_pattern(env.geometry, n, radius))
        geom = env.geometry
        box_l1 = np.abs(geom.site_coords(box.sites)).sum(axis=1)
        ball = box.sites[np.lexsort((box.sites, box_l1))][: np.count_nonzero(box_l1 <= radius)]
        l1 = np.abs(geom.site_coords(ball)).sum(axis=1)
        sides = [ball[l1 % 2 == parity] for parity in (0, 1)]
        assert sides[0][0] == geom.origin
        assert [len(b) for b in balls] == [radius + 1] * 2 and [b[-1] for b in balls] == [len(s) for s in sides]
        sq = np.sqrt(box.pi)
        for block, rows, cols, weight in ((CT, sides[0], sides[1], weights[0]), (C, sides[1], sides[0], weights[1])):
            at = np.searchsorted(box.sites, rows)
            assert np.array_equal(weight, sq[at] / sq[box.origin])
            for i, k in enumerate(at):
                box_row = slice(box.P.indptr[k], box.P.indptr[k + 1])
                neighbors = box.P.indices[box_row]
                keep = np.isin(box.sites[neighbors], ball)
                row = slice(block.indptr[i], block.indptr[i + 1])
                assert np.array_equal(cols[block.indices[row]], box.sites[neighbors][keep])
                assert np.array_equal(block.data[row], (box.P.data[box_row] * (sq[k] / sq[neighbors]))[keep])
                assert keep.all() or np.abs(geom.site_coords(rows[i])).sum() == radius


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

    def test_off_cluster_rejected(self, small_env, holey_decomp):
        hole_site = int(holey_decomp.holes[0].sites[0])
        with pytest.raises(ValidationError):
            effective_conductances(small_env, holey_decomp, hole_site)

    def test_non_integral_site_rejected(self, small_env, holey_decomp):
        x = int(holey_decomp.holes[0].boundary[0])
        with pytest.raises(ValidationError, match="site must be an integer"):
            effective_conductances(small_env, holey_decomp, x + 0.5)

    @pytest.mark.parametrize("y", [5.5, "3", None])
    def test_weight_refuses_a_non_integral_site(self, small_env, holey_decomp, y):
        # weight(5.5) and weight("3") once read 0.0
        ec = effective_conductances(small_env, holey_decomp, int(holey_decomp.holes[0].anchor))
        with pytest.raises(ValidationError, match="site must be an integer"):
            ec.weight(y)

    def test_weight_reads_integral_sites(self, small_env, holey_decomp):
        ec = effective_conductances(small_env, holey_decomp, int(holey_decomp.holes[0].anchor))
        for y, w in zip(ec.sites, ec.values):
            assert ec.weight(int(y)) == ec.weight(np.int32(y)) == ec.weight(y) == w
        assert ec.weight(-1) == ec.weight(small_env.geometry.n_sites) == 0.0

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


def _decomposition(d, N, seed, density):
    env = sample_environment(BoxGeometry(d, N), 2.0, seed)
    return env, strong_cluster(env, threshold_for_density(2.0, density))


@st.composite
def _decompositions(draw, density=st.floats(0.5, 0.7)):
    """A small random d=2 or d=3 box split at a strong density drawn from ``density``."""
    d = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(3, 7 if d == 2 else 3))
    return _decomposition(d, N, draw(st.integers(0, 2**31)), draw(density))


# holes of 1, 6, 29 and 113 sites, the largest alone in its boundary width
_MIXED_HOLES = (2, 7, 0, 0.5)


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
    @given(case=_decompositions(density=st.floats(0.3, 0.95)))
    @example(case=_decomposition(*_MIXED_HOLES))
    def test_hitting_equals_loop_assembly(self, case):
        # the per-hole dense reference, within 1e-12 of each row's largest entry (banded Cholesky)
        env, dec = case
        for hole in dec.holes:
            ref = _hole_loop_assembly(env, hole)
            rows = dec.hitting[hole.sites]
            assert rows.nnz == ref.size
            got = rows[:, hole.boundary].toarray()
            assert np.all(np.abs(got - ref) <= 1e-12 * ref.max(axis=1, keepdims=True))
        assert dec.hitting[np.flatnonzero(dec.in_cluster)].nnz == 0

    def test_pass_makes_no_dense_solve(self, monkeypatch):
        # a dense LU of a hole holds 16 m^2 bytes, and from m * m = 10,000 on wakes OpenBLAS's thread pool
        _, dec = _decomposition(*_MIXED_HOLES)

        def refused(*args, **kwargs):
            raise AssertionError("the hole pass called np.linalg.solve")

        monkeypatch.setattr(np.linalg, "solve", refused)
        H = dec.hitting
        rows = np.asarray(H.sum(axis=1)).ravel()
        assert np.all(np.abs(rows[~dec.in_cluster] - 1.0) <= 1e-12)

    def test_large_hole_is_solved_in_banded_memory(self):
        # a strong box whose 40 x 40 block of sites has only weak bonds: one 1,600-site hole,
        # for which the dense stack held 16 m^2 bytes, about 41 MB
        geom = BoxGeometry(2, 25)
        block = np.all((geom.all_coords >= -20) & (geom.all_coords < 20), axis=1)
        omega = np.where(block[geom.bond_u] | block[geom.bond_v], 0.1, 0.9)
        env = Environment(geometry=geom, gamma=math.inf, seed=0, omega=omega)
        dec = strong_cluster(env, 0.5)
        assert [h.volume for h in dec.holes] == [1600] and len(dec.holes[0].boundary) == 160
        env.pi_all  # built before tracing: it is the environment's, not the pass's
        tracemalloc.start()
        try:
            H = dec.hitting
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.all(H.data >= 0)
        rows = np.asarray(H.sum(axis=1)).ravel()
        assert np.all(np.abs(rows[block] - 1.0) <= 1e-12) and np.all(rows[~block] == 0)

    def test_failed_banded_factorization_names_the_hole(self, monkeypatch):
        # LAPACK reports the order of the first leading minor that is not positive definite; the fake
        # reports the solve row of one hole's last site, found by its pi on the band's diagonal: the
        # 113-site hole, alone in its boundary width, and a 12-site hole solved beside a 28-site one
        dpbsv = percolation.dpbsv
        for case, volume in ((_MIXED_HOLES, 113), ((2, 7, 5, 0.5), 12)):
            env, dec = _decomposition(*case)
            (hole,) = [h for h in dec.holes if h.volume == volume]

            def not_definite(ab, b, **kwargs):
                row = np.flatnonzero(ab[0] == env.pi_all[hole.sites[-1]])
                c, x, info = dpbsv(ab, b, **kwargs)
                return c, x, int(row[0]) + 1 if b.shape[1] == len(hole.boundary) else info

            monkeypatch.setattr(percolation, "dpbsv", not_definite)
            with pytest.raises(NumericalError, match=f"hole of {volume} sites at anchor {hole.anchor}"):
                dec.hitting

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


def _step(env, x0, kill_radius):
    return ensemble_walk(env, x0, 4, 5.0, np.random.default_rng(5), kill_radius=kill_radius)


class TestStartSite:
    @pytest.mark.parametrize("kill_radius", [None, "interior"])
    @pytest.mark.parametrize("where", ["negative", "past_the_end"])
    def test_start_outside_the_box_rejected(self, small_env, kill_radius, where):
        # numpy would read -1 as the last site and n_sites as an IndexError
        x0 = -1 if where == "negative" else small_env.geometry.n_sites
        with pytest.raises(ValidationError, match="start site"):
            _step(small_env, x0, kill_radius)

    def test_interior_is_the_largest_kill_radius(self, small_env):
        geom = small_env.geometry
        rim = int(np.flatnonzero(geom.linf_norm == geom.N)[0])
        with pytest.raises(ValidationError, match="kill radius"):
            _step(small_env, rim, "interior")
        with pytest.raises(ValidationError, match="kill radius must lie"):
            _step(small_env, geom.origin, geom.N)
        _step(small_env, rim, None)
        _step(small_env, geom.origin, geom.N - 1)

    @pytest.mark.parametrize("kill_radius", [2.5, 2.0, "2"])
    def test_non_integral_kill_radius_rejected(self, kill_radius):
        # 2.5 used to pass the range check and kill on reaching sup-norm 3
        env = sample_environment(BoxGeometry(2, 6), 2.0, 3)
        with pytest.raises(ValidationError, match="kill radius must be an integer"):
            _step(env, env.geometry.origin, kill_radius)
        _step(env, env.geometry.origin, np.int64(2))

    def test_non_integral_start_site_rejected(self, small_env):
        with pytest.raises(ValidationError, match="start site must be an integer"):
            _step(small_env, small_env.geometry.origin + 0.5, "interior")


class TestEnsembleSemantics:
    def test_poisson_clock_rate(self, homog_env, rng):
        t = 12.0
        res = ensemble_walk(homog_env, homog_env.geometry.origin, 10_000, t, rng, kill_radius=None)
        mean = res.n_jumps.mean()
        sd_mean = math.sqrt(t / 10_000)
        assert abs(mean - t) <= 4 * sd_mean

    @pytest.mark.parametrize("grid", [[1.0, 0.0], [1.0, -1.0], [1.0, math.nan], [1.0, 5.0], [[1.0, 2.0]]])
    def test_grid_it_cannot_record_rejected(self, small_env, grid):
        # with no killing every path is alive at every time in (0, horizon]; a point outside
        # that range was never crossed and came back as -1, the mark of a dead path
        origin, rng = small_env.geometry.origin, np.random.default_rng(1)
        with pytest.raises(ValidationError, match="real grid"):
            ensemble_walk(small_env, origin, 4, 3.0, rng, kill_radius=None, real_grid=grid)
        res = ensemble_walk(small_env, origin, 4, 3.0, rng, kill_radius=None, real_grid=[1.0, 3.0])
        assert np.all(res.site_at >= 0)

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
