import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from rcmwalk import (
    BoxGeometry,
    EmptyClusterError,
    Environment,
    STRONG_LABEL,
    ValidationError,
    hole_volume_report,
    sample_environment,
    strong_cluster,
    threshold_for_density,
    write_decomposition_csv,
)
from rcmwalk.percolation import _CSV_BLOCK_ROWS

# giant-component site fractions from large-N pilot runs (3 seeds, N=400/40)
THETA_PILOT = {(2, 0.95): 0.99998, (3, 0.95): 0.9999999}


def _env_with_bonds(d, N, default, overrides):
    """Environment with hand-set conductances for specific bonds."""
    geom = BoxGeometry(d, N)
    omega = np.full(geom.n_bonds, default)
    for (u, v), w in overrides.items():
        lo, hi = min(u, v), max(u, v)
        axis = int(np.where(geom.strides == hi - lo)[0][0])
        bond = geom.bond_id_table[lo, axis]
        assert bond >= 0
        omega[bond] = w
    return Environment(geometry=geom, gamma=math.inf, seed=0, omega=omega)


def _reference_strong_cluster(env, xi):
    """``strong_cluster`` on the bond list: coo graphs on ``bond_u``/``bond_v``, ``np.split`` and a per-hole
    ``np.unique``.  Returns the labels and each hole's ``(sites, boundary, anchor)``."""
    geom = env.geometry
    n = geom.n_sites
    strong = env.omega >= xi
    if not strong.any():
        raise EmptyClusterError(f"no bond with conductance >= {xi}")
    u, v = geom.bond_u[strong], geom.bond_v[strong]
    _, comp = connected_components(coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(n, n)), directed=False)
    sizes = np.bincount(comp)
    giant = int(np.argmax(sizes))
    if sizes[giant] < 2:
        raise EmptyClusterError(f"no bond with conductance >= {xi}")
    in_cluster = comp == giant
    labels = np.full(n, STRONG_LABEL, dtype=np.int64)
    complement = ~in_cluster
    if not complement.any():
        return labels, []
    both = complement[geom.bond_u] & complement[geom.bond_v]
    u, v = geom.bond_u[both], geom.bond_v[both]
    grid = coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(n, n))
    _, hole_comp = connected_components(grid, directed=False)
    comp_sites = np.flatnonzero(complement)
    raw_ids = hole_comp[comp_sites]
    uniq, first = np.unique(raw_ids, return_index=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    labels[comp_sites] = rank[np.searchsorted(uniq, raw_ids)]
    member_order = comp_sites[np.argsort(labels[comp_sites], kind="stable")]
    counts = np.bincount(labels[comp_sites], minlength=len(uniq))
    mixed_uv = complement[geom.bond_u] & in_cluster[geom.bond_v]
    mixed_vu = complement[geom.bond_v] & in_cluster[geom.bond_u]
    hole_of = np.concatenate([labels[geom.bond_u[mixed_uv]], labels[geom.bond_v[mixed_vu]]])
    bdry_site = np.concatenate([geom.bond_v[mixed_uv], geom.bond_u[mixed_vu]])
    bdry_counts = np.bincount(hole_of, minlength=len(uniq))
    bdry_groups = np.split(bdry_site[np.argsort(hole_of, kind="stable")], np.cumsum(bdry_counts)[:-1])
    holes = []
    for members, raw in zip(np.split(member_order, np.cumsum(counts)[:-1]), bdry_groups):
        bdry = np.unique(raw)
        if len(bdry) == 0:
            raise ValidationError("hole without outer boundary; box is disconnected")
        holes.append((members, bdry, int(bdry[0])))
    return labels, holes


class TestThreshold:
    def test_uniform_law(self):
        assert threshold_for_density(1.0, 0.5) == pytest.approx(0.5)

    def test_gamma_two(self):
        # Q(omega >= xi) = 1 - xi^2 = 0.75  =>  xi = 0.5
        assert threshold_for_density(2.0, 0.75) == pytest.approx(0.5)

    def test_full_density_limit(self):
        assert threshold_for_density(2.0, 1 - 1e-12) < 1e-5

    def test_validation(self):
        with pytest.raises(ValidationError):
            threshold_for_density(2.0, 0.0)
        with pytest.raises(ValidationError):
            threshold_for_density(2.0, 1.0)
        with pytest.raises(ValidationError):
            threshold_for_density(-1.0, 0.5)


class TestStrongCluster:
    def test_full_box(self, homog_env):
        dec = strong_cluster(homog_env, 0.5)
        assert dec.cluster_size == homog_env.geometry.n_sites
        assert len(dec.holes) == 0
        assert np.all(dec.labels == STRONG_LABEL)

    def test_corner_hole_by_hand(self):
        # 3x3 box; the two bonds incident to corner (1,1) weak => corner is a
        # volume-1 hole, disconnected from the giant component
        geom = BoxGeometry(2, 1)
        corner = geom.site_index([1, 1])
        up = geom.site_index([1, 0])
        left = geom.site_index([0, 1])
        env = _env_with_bonds(2, 1, 0.9, {(up, corner): 0.1, (left, corner): 0.1})
        dec = strong_cluster(env, 0.5)
        assert dec.labels[corner] == 0
        assert len(dec.holes) == 1
        hole = dec.holes[0]
        assert hole.volume == 1
        assert set(hole.sites.tolist()) == {corner}
        assert set(hole.boundary.tolist()) == {up, left}
        assert hole.anchor == min(up, left)
        assert dec.cluster_size == 8

    def test_corner_still_connected(self):
        # one strong bond keeps the corner on the cluster: no hole
        geom = BoxGeometry(2, 1)
        corner = geom.site_index([1, 1])
        up = geom.site_index([1, 0])
        env = _env_with_bonds(2, 1, 0.9, {(up, corner): 0.1})
        dec = strong_cluster(env, 0.5)
        assert dec.labels[corner] == STRONG_LABEL
        assert len(dec.holes) == 0

    def test_partition_property(self, small_env):
        for p in (0.55, 0.7, 0.9):
            dec = strong_cluster(small_env, threshold_for_density(2.0, p))
            total = dec.cluster_size + sum(h.volume for h in dec.holes)
            assert total == small_env.geometry.n_sites
            hole_sites = set()
            for h in dec.holes:
                hole_sites.update(h.sites.tolist())
            assert len(hole_sites) == sum(h.volume for h in dec.holes)

    def test_bond_monotonicity(self, small_env):
        xi_hi = threshold_for_density(2.0, 0.6)
        xi_lo = xi_hi / 2
        strong_hi = small_env.omega >= xi_hi
        strong_lo = small_env.omega >= xi_lo
        assert np.all(strong_lo | ~strong_hi)  # bonds(xi_lo) contains bonds(xi_hi)

    def test_boundaries_in_cluster(self, small_env, holey_decomp):
        for h in holey_decomp.holes:
            assert np.all(holey_decomp.labels[h.boundary] == STRONG_LABEL)
            assert h.anchor == h.boundary.min()

    def test_holes_are_grid_connected(self, small_env, holey_decomp):
        geom = small_env.geometry
        for h in holey_decomp.holes:
            if h.volume == 1:
                continue
            members = set(h.sites.tolist())
            seen = {int(h.sites[0])}
            frontier = [int(h.sites[0])]
            while frontier:
                x = frontier.pop()
                for y in geom.neighbor_table[x]:
                    if y >= 0 and int(y) in members and int(y) not in seen:
                        seen.add(int(y))
                        frontier.append(int(y))
            assert seen == members

    def test_strong_sites_have_strong_bond(self, small_env, holey_decomp):
        geom = small_env.geometry
        xi = holey_decomp.threshold
        strong = small_env.omega >= xi
        touched = np.zeros(geom.n_sites, dtype=bool)
        touched[geom.bond_u[strong]] = True
        touched[geom.bond_v[strong]] = True
        assert np.all(touched[holey_decomp.in_cluster])

    def test_determinism(self, small_env):
        xi = threshold_for_density(2.0, 0.6)
        a = strong_cluster(small_env, xi)
        b = strong_cluster(small_env, xi)
        assert np.array_equal(a.labels, b.labels)

    def test_cluster_fraction_pilot(self):
        for (d, p), theta in THETA_PILOT.items():
            N = 60 if d == 2 else 12
            env = sample_environment(BoxGeometry(d, N), 2.0, 17)
            dec = strong_cluster(env, threshold_for_density(2.0, p))
            frac = dec.cluster_size / env.geometry.n_sites
            assert theta - 0.05 <= frac <= 1.0

    def test_empty_cluster(self):
        geom = BoxGeometry(2, 1)
        env = Environment(geometry=geom, gamma=math.inf, seed=0, omega=np.full(geom.n_bonds, 0.1))
        with pytest.raises(EmptyClusterError):
            strong_cluster(env, 0.5)

    @settings(max_examples=80, deadline=None)
    @given(
        box=st.sampled_from([(2, N) for N in range(0, 11)] + [(3, N) for N in range(0, 5)]),
        gamma=st.sampled_from([0.5, 1.0, 2.0, math.inf]),
        p=st.floats(0.02, 0.98),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_bond_list_algorithm(self, box, gamma, p, seed):
        geom = BoxGeometry(*box)
        if math.isinf(gamma):  # every bond strong: a box with no holes
            env = Environment(geometry=geom, gamma=gamma, seed=seed, omega=np.ones(geom.n_bonds))
        else:
            env = sample_environment(geom, gamma, seed)
        xi = threshold_for_density(2.0 if math.isinf(gamma) else gamma, p)
        try:
            want = _reference_strong_cluster(env, xi)
        except (EmptyClusterError, ValidationError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                strong_cluster(env, xi)
            return
        got = strong_cluster(env, xi)
        labels, holes = want
        assert got.labels.dtype == labels.dtype and np.array_equal(got.labels, labels)
        assert len(got.holes) == len(holes)
        for hole, (sites, bdry, anchor) in zip(got.holes, holes):
            assert hole.sites.dtype == sites.dtype and np.array_equal(hole.sites, sites)
            assert hole.boundary.dtype == bdry.dtype and np.array_equal(hole.boundary, bdry)
            assert type(hole.anchor) is int and hole.anchor == anchor

    def test_threshold_domain(self, small_env):
        with pytest.raises(ValidationError):
            strong_cluster(small_env, 0.0)
        with pytest.raises(ValidationError):
            strong_cluster(small_env, 1.0)


class TestHoleVolumeReport:
    def test_no_holes(self, homog_env):
        rep = hole_volume_report(strong_cluster(homog_env, 0.5))
        assert rep.max_volume == 0
        assert not rep.max_volume_by_n.any()

    def test_single_isolated_site(self):
        geom = BoxGeometry(2, 2)
        center = geom.origin
        overrides = {}
        for col in range(4):
            y = int(geom.neighbor_table[center, col])
            overrides[(center, y)] = 0.1
        env = _env_with_bonds(2, 2, 0.9, overrides)
        rep = hole_volume_report(strong_cluster(env, 0.5))
        assert rep.max_volume == 1
        assert rep.max_volume_by_n.tolist() == [1, 1]

    def test_envelope_at_box_scale(self):
        env = sample_environment(BoxGeometry(2, 128), 2.0, 23)
        dec = strong_cluster(env, threshold_for_density(2.0, 0.95))
        rep = hole_volume_report(dec)
        assert rep.n_values[-1] == 128 and rep.max_volume_by_n[-1] <= rep.bound_by_n[-1]
        assert rep.max_volume <= math.log(128) ** 2.5

    @pytest.mark.parametrize("p", [0.52, 0.6, 0.8])  # 0.8 leaves no hole
    def test_matches_per_radius_loop(self, small_env, p):
        # reference: every radius scans every hole
        dec = strong_cluster(small_env, threshold_for_density(2.0, p))
        rep = hole_volume_report(dec)
        linf = small_env.geometry.linf_norm
        volumes = [h.volume for h in dec.holes]
        n_values = list(range(1, small_env.geometry.N + 1))
        max_by_n = [max([h.volume for h in dec.holes if linf[h.sites].min() <= n], default=0) for n in n_values]
        bound = [math.log(n) ** 2.5 for n in n_values]
        assert rep.max_volume == max(volumes, default=0)
        assert np.array_equal(rep.n_values, n_values)
        assert np.array_equal(rep.max_volume_by_n, max_by_n)
        assert np.array_equal(rep.bound_by_n, bound)


class TestCsvExport:
    def test_schema_and_labels(self, small_env, holey_decomp, tmp_path):
        path = tmp_path / "dec.csv"
        write_decomposition_csv(holey_decomp, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "site_index,x_1,x_2,label"
        assert len(lines) == small_env.geometry.n_sites + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert int(first[-1]) == holey_decomp.labels[0]

    @pytest.mark.parametrize("d, N", [(2, 64), (3, 13)])
    def test_bytes_match_csv_writer(self, d, N, tmp_path):
        env = sample_environment(BoxGeometry(d, N), 2.0, 7)
        decomp = strong_cluster(env, threshold_for_density(2.0, 0.55))
        geom = env.geometry
        assert geom.n_sites > _CSV_BLOCK_ROWS  # rows cross a block boundary
        assert decomp.holes and (decomp.labels == STRONG_LABEL).any()
        path = tmp_path / "dec.csv"
        write_decomposition_csv(decomp, path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site_index"] + [f"x_{i + 1}" for i in range(d)] + ["label"])
            for s in range(geom.n_sites):
                writer.writerow([s] + [int(c) for c in geom.all_coords[s]] + [int(decomp.labels[s])])
        assert path.read_bytes() == reference.read_bytes()
