import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmwalk import (
    BoxGeometry,
    ChecksumError,
    Environment,
    EnvironmentFileError,
    TruncatedFileError,
    ValidationError,
    VersionMismatchError,
    derive_environment_seeds,
    heatkernel,
    load_environment,
    pi,
    sample_environment,
    save_environment,
)
from rcmwalk.lattice import crc64


class TestBoxGeometry:
    @pytest.mark.parametrize("d,N", [(2, 0), (2, 3), (3, 2), (4, 1)])
    def test_counts(self, d, N):
        g = BoxGeometry(d, N)
        side = 2 * N + 1
        assert g.n_sites == side**d
        assert g.n_bonds == d * 2 * N * side ** (d - 1)
        assert len(g.bond_u) == g.n_bonds

    def test_index_roundtrip(self):
        g = BoxGeometry(3, 2)
        idx = np.arange(g.n_sites)
        assert np.array_equal(g.site_index(g.site_coords(idx)), idx)
        assert g.site_index([0, 0, 0]) == g.origin
        assert np.array_equal(g.site_coords(g.origin), [0, 0, 0])

    def test_neighbors_are_adjacent(self):
        g = BoxGeometry(2, 2)
        coords = g.all_coords
        for x in range(g.n_sites):
            for col in range(2 * g.d):
                y = g.neighbor_table[x, col]
                if y >= 0:
                    assert np.abs(coords[x] - coords[y]).sum() == 1

    def test_bond_enumeration_order(self):
        # bonds sorted by (site index, axis), each a +e_i step
        g = BoxGeometry(2, 1)
        pairs = list(zip(g.bond_u.tolist(), g.bond_axis.tolist()))
        assert pairs == sorted(pairs)
        assert np.all(g.bond_v > g.bond_u)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BoxGeometry(1, 3)
        with pytest.raises(ValidationError):
            BoxGeometry(2, -1)
        g = BoxGeometry(2, 2)
        with pytest.raises(ValidationError):
            g.site_index([3, 0])
        with pytest.raises(ValidationError):
            g.sub_box_indices(3)

    @pytest.mark.parametrize(
        "d, N, match",
        [(2, 2.5, "box radius"), (2.5, 2, "dimension"), (2, 2.0, "box radius"), (2, "3", "box radius"),
         (2, math.nan, "box radius"), ("2", 3, "dimension")],
    )
    def test_non_integer_dimension_or_radius_rejected(self, d, N, match):
        # BoxGeometry(2, 2.5) once built with n_sites = 36.0, and (2.5, 2) with 55.9
        with pytest.raises(ValidationError, match=f"{match} must be an integer"):
            BoxGeometry(d, N)

    @pytest.mark.parametrize("index", [2.5, 2.0, "3", True, [0, 1.5], np.array([3.0])])
    def test_site_coords_refuses_non_integral_indices(self, index):
        # site_coords(2.5) once gave the coordinates of site 2
        with pytest.raises(ValidationError, match="site index must be integers"):
            BoxGeometry(2, 3).site_coords(index)

    @pytest.mark.parametrize("coords", [(0.5, -0.9), (1, 2.0), ("0", "1"), (True, False), np.zeros((2, 2))])
    def test_site_index_refuses_non_integral_coordinates(self, coords):
        # site_index((0.5, -0.9)) once gave 24, the origin's index
        with pytest.raises(ValidationError, match="site coordinates must be integers"):
            BoxGeometry(2, 3).site_index(coords)

    def test_integral_numpy_sites_accepted(self):
        g = BoxGeometry(2, 3)
        for dtype in (np.int8, np.int32, np.uint16, np.int64):
            idx = np.arange(g.n_sites, dtype=dtype) if np.iinfo(dtype).max >= g.n_sites else np.arange(40, dtype=dtype)
            assert np.array_equal(g.site_index(g.site_coords(idx)), idx)
        assert g.site_index(np.array([0, 0], dtype=np.int8)) == g.origin
        assert np.array_equal(g.site_coords(np.int32(g.origin)), [0, 0])

    def test_numpy_integers_accepted(self):
        g = BoxGeometry(np.int64(2), np.int32(3))
        assert g == BoxGeometry(2, 3)
        assert type(g.d) is int and type(g.N) is int and type(g.n_sites) is int
        assert sample_environment(g, 2.0, 1) == sample_environment(BoxGeometry(2, 3), 2.0, 1)

    @pytest.mark.parametrize(
        "d, N, n, radius",
        [(2, 3, 3, 0), (2, 5, 4, 3), (2, 5, 4, 7), (2, 5, 4, 20), (3, 4, 2, 4), (4, 2, 2, 5), (2, 3, 0, 2)],
    )
    def test_l1_ball_indices(self, d, N, n, radius, l1_ball):
        # the curve engine's ball pattern holds the sites of B_n within L1 radius
        # `radius`, each parity by (L1 distance, canonical index); B_n needs n <= N - 1
        g = BoxGeometry(d, N)
        if n > N - 1:
            with pytest.raises(ValidationError, match="box radius"):
                heatkernel._ball_pattern(g, n, radius)
            g = BoxGeometry(d, n + 1)
        pattern = heatkernel._ball_pattern(g, n, radius)
        ids = np.concatenate([np.arange(a, b) for a, b in pattern.bond_ranges])
        ref = l1_ball(g, n, radius)
        l1 = np.abs(g.all_coords[ref]).sum(axis=1)
        for parity in (0, 1):
            sites = g.bond_u[ids[pattern.site_bonds[parity][1]]]  # the lower end of each site's +e_1 bond
            side = l1 % 2 == parity
            assert np.array_equal(sites, ref[side]), parity
            assert np.array_equal(pattern.balls[parity], np.searchsorted(l1[side], np.arange(radius + 1), "right"))
        with pytest.raises(ValidationError, match="box radius"):
            heatkernel._ball_pattern(g, g.N, radius)

    def test_sub_box_indices(self):
        g = BoxGeometry(2, 3)
        sub = g.sub_box_indices(1)
        assert len(sub) == 9
        assert np.all(np.max(np.abs(g.all_coords[sub]), axis=1) <= 1)
        # canonical order of the sub-box itself
        inner = BoxGeometry(2, 1)
        assert np.array_equal(g.all_coords[sub], inner.all_coords)


def _bond_list_tables(env):
    """``neighbor_table`` and ``omega_by_direction`` assembled from the bond list: bond ``(u, u + e_i)`` fills
    column ``+e_i`` of ``u`` and column ``-e_i`` of ``v``."""
    g = env.geometry
    u, axis, v = g.bond_u, g.bond_axis, g.bond_v
    table = np.full((g.n_sites, 2 * g.d), -1, dtype=np.int64)
    table[u, 2 * axis + 1] = v
    table[v, 2 * axis] = u
    w = np.zeros((g.n_sites, 2 * g.d), dtype=np.float64)
    w[u, 2 * axis + 1] = env.omega
    w[v, 2 * axis] = env.omega
    return table, w


class TestLatticeTables:
    # d = 5, N = 7 (759,375 sites) is left out: its tables and bond arrays take about 380 MB
    @pytest.mark.parametrize("d,N", [(d, N) for d in (2, 3, 4, 5) for N in (0, 1, 2, 7) if (d, N) != (5, 7)])
    def test_grid_slices_equal_the_bond_list_assembly(self, d, N):
        env = sample_environment(BoxGeometry(d, N), 2.0, 10 * d + N)
        for got, want in zip((env.geometry.neighbor_table, env.omega_by_direction), _bond_list_tables(env)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


class TestSampling:
    def test_gamma_one_is_uniform(self):
        env = sample_environment(BoxGeometry(2, 80), 1.0, 3)
        w = env.omega
        assert w.min() > 0 and w.max() <= 1.0
        # KS distance against the uniform CDF at the 99% level
        m = len(w)
        grid = np.sort(w)
        ks = np.max(np.abs(np.arange(1, m + 1) / m - grid))
        assert ks <= 1.63 / math.sqrt(m)

    def test_power_law_fraction(self):
        # P(omega <= 0.1) = 0.1^2 = 0.01 under gamma=2; >= 1e5 bonds
        env = sample_environment(BoxGeometry(2, 160), 2.0, 5)
        m = env.geometry.n_bonds
        assert m >= 10**5
        frac = (env.omega <= 0.1).mean()
        sd = math.sqrt(0.01 * 0.99 / m)
        assert abs(frac - 0.01) <= 4 * sd

    def test_power_law_ks(self):
        env = sample_environment(BoxGeometry(2, 160), 2.0, 6)
        u = np.sort(env.omega) ** 2.0  # F(w) = w^gamma should be uniform
        m = len(u)
        ks = np.max(np.abs(np.arange(1, m + 1) / m - u))
        assert ks <= 1.63 / math.sqrt(m)

    def test_determinism(self):
        a = sample_environment(BoxGeometry(2, 10), 1.7, 99)
        b = sample_environment(BoxGeometry(2, 10), 1.7, 99)
        assert a == b
        c = sample_environment(BoxGeometry(2, 10), 1.7, 100)
        assert not np.array_equal(a.omega, c.omega)

    def test_range(self, small_env):
        assert small_env.omega.min() > 0
        assert small_env.omega.max() <= 1.0

    def test_bad_gamma(self):
        with pytest.raises(ValidationError):
            sample_environment(BoxGeometry(2, 2), 0.0, 1)

    def test_infinite_gamma_is_the_all_ones_table(self):
        # U**0 = 1 for every draw, so the law's limit needs no stream; the seed is still checked
        geom = BoxGeometry(2, 3)
        env = sample_environment(geom, math.inf, 5)
        assert env == Environment(geom, math.inf, 5, omega=np.ones(geom.n_bonds))
        with pytest.raises(ValidationError, match="64 bits"):
            sample_environment(geom, math.inf, -1)

    def test_seed_derivation(self):
        s1 = derive_environment_seeds(42, 5)
        s2 = derive_environment_seeds(42, 5)
        assert np.array_equal(s1, s2)
        assert len(set(s1.tolist())) == 5

    @pytest.mark.parametrize(
        "seed, match",
        [(2.7, "seed must be an integer"), ("7", "seed must be an integer"), (-1, "seed must fit in 64 bits"),
         (2**64, "seed must fit in 64 bits")],
    )
    def test_environment_seed_is_a_64_bit_integer(self, seed, match):
        # 2.7 once drew seed 2's environment, labelled seed 2, and "7" was parsed as 7
        with pytest.raises(ValidationError, match=match):
            sample_environment(BoxGeometry(2, 2), 2.0, seed)

    @pytest.mark.parametrize(
        "master_seed, n, match",
        [(2.7, 3, "master seed must be an integer"), (-1, 3, "master seed must fit in 64 bits"),
         (2**64, 3, "master seed must fit in 64 bits"), (42, 2.5, "number of seeds must be an integer"),
         (42, -1, "number of seeds must be >= 0")],
    )
    def test_seed_derivation_takes_integers(self, master_seed, n, match):
        # 2.7 once gave master seed 2's seeds, -1 a bare ValueError, 2**64 seeds, 2.5 a bare TypeError
        with pytest.raises(ValidationError, match=match):
            derive_environment_seeds(master_seed, n)

    def test_numpy_seeds_accepted(self):
        seeds = derive_environment_seeds(np.uint64(42), np.int64(3))
        assert np.array_equal(seeds, derive_environment_seeds(42, 3))
        env = sample_environment(BoxGeometry(2, 2), 2.0, seeds[0])
        assert type(env.seed) is int and env == sample_environment(BoxGeometry(2, 2), 2.0, int(seeds[0]))


@st.composite
def _sampled_ranges(draw):
    """A small sampled environment and ascending bond ranges of it, some empty."""
    d = draw(st.sampled_from([2, 3, 5]))
    geom = BoxGeometry(d, draw(st.integers(1, {2: 6, 3: 3, 5: 1}[d])))
    env = sample_environment(geom, draw(st.sampled_from([0.3, 0.75, 1.0, 2.0, 7.5])), draw(st.integers(0, 2**64 - 1)))
    cuts = sorted(draw(st.lists(st.integers(0, geom.n_bonds), max_size=12)))
    return env, list(zip(cuts[0::2], cuts[1::2]))


class TestConductanceReads:
    @settings(max_examples=60, deadline=None)
    @given(case=_sampled_ranges(), table_first=st.booleans())
    def test_ranges_are_slices_of_the_table(self, case, table_first):
        env, ranges = case
        n = env.geometry.n_bonds
        if table_first:
            env.omega
        read = env.conductances(ranges)
        assert ("omega" in env.__dict__) == table_first  # a range read draws no table
        law = (1.0 - np.random.default_rng(env.seed).random(n)) ** (1.0 / env.gamma)
        assert env.omega.tobytes() == law.tobytes()
        sliced = np.concatenate([env.omega[a:b] for a, b in ranges] + [np.empty(0)])
        assert read.tobytes() == sliced.tobytes()
        assert env.conductances(ranges).tobytes() == sliced.tobytes()
        first_and_last = env.conductances([(0, 1), (n - 1, n)])
        assert first_and_last.tobytes() == env.omega[[0, -1]].tobytes()

    def test_first_and_last_bond_before_the_table(self):
        env = sample_environment(BoxGeometry(3, 2), 0.3, 2**64 - 1)
        n = env.geometry.n_bonds
        ends = env.conductances([(0, 1), (5, 5), (n - 1, n)])
        assert "omega" not in env.__dict__
        assert ends.tobytes() == env.omega[[0, -1]].tobytes()

    @pytest.mark.parametrize(
        "ranges, match",
        [([(3, 2)], "ascend"), ([(0, 4), (3, 6)], "ascend"), ([(-1, 2)], "ascend"), ([(0, 3), (5, 10**6)], "ascend"),
         ([(0.5, 3)], "integers"), ([(1, 2, 3)], "pairs"), ([1, 2], "pairs")],
    )
    def test_ranges_that_do_not_ascend_in_the_box_rejected(self, ranges, match):
        for env in (sample_environment(BoxGeometry(2, 3), 2.0, 1), sample_environment(BoxGeometry(2, 3), math.inf, 0)):
            with pytest.raises(ValidationError, match=match):
                env.conductances(ranges)


class TestEnvironmentValidation:
    @pytest.mark.parametrize("bad", [math.nan, -0.5, 0.0, 1.5, math.inf])
    def test_bad_conductance(self, bad):
        geom = BoxGeometry(2, 2)
        omega = np.full(geom.n_bonds, 0.5)
        omega[7] = bad
        with pytest.raises(ValidationError, match="bond 7"):
            Environment(geometry=geom, gamma=2.0, seed=0, omega=omega)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, -math.inf])
    def test_bad_gamma(self, bad):
        geom = BoxGeometry(2, 2)
        with pytest.raises(ValidationError, match="gamma"):
            Environment(geometry=geom, gamma=bad, seed=0, omega=np.ones(geom.n_bonds))

    def test_infinite_gamma_accepted(self):
        geom = BoxGeometry(2, 2)
        assert Environment(geometry=geom, gamma=math.inf, seed=0, omega=np.ones(geom.n_bonds)).gamma == math.inf

    @pytest.mark.parametrize(
        "gamma, seed, match",
        [(math.inf, 1, "finite"), (math.nan, 1, "gamma"), (0.0, 1, "gamma"), (2.0, -1, "64 bits"),
         (2.0, 2**64, "64 bits"), (2.0, 2.5, "integer"), (2.0, "3", "integer")],
    )
    def test_sampled_environment_refuses_a_bad_law_or_seed(self, gamma, seed, match):
        # with no table, (gamma, seed) is the environment: an infinite gamma has no stream to draw
        with pytest.raises(ValidationError, match=match):
            Environment(BoxGeometry(2, 2), gamma, seed)

    @pytest.mark.parametrize("field", ["omega", "gamma"])
    def test_nan_file_with_valid_crc(self, tmp_path, field):
        # an RCMENV1 file written by hand: intact framing, correct CRC, NaN inside
        import struct

        geom = BoxGeometry(2, 2)
        omega = np.full(geom.n_bonds, 0.5)
        gamma = 2.0
        if field == "omega":
            omega[3] = math.nan
        else:
            gamma = math.nan
        body = b"RCMENV1" + struct.pack("<IIdQQ", 2, 2, gamma, 0, geom.n_bonds) + omega.astype("<f8").tobytes()
        path = tmp_path / "nan.rcmenv"
        path.write_bytes(body + struct.pack("<Q", crc64(body)))
        with pytest.raises(EnvironmentFileError, match="nan.rcmenv"):
            load_environment(path)

    @pytest.mark.parametrize(
        "d, match", [(1, "dimension must be >= 2, got 1"), (10_000, "too many sites")]
    )
    def test_bad_header_geometry_names_its_file(self, tmp_path, d, match):
        # valid CRCs over headers whose geometry is refused: d = 1 once raised a bare
        # ValidationError; at d = 10,000 the geometry's bond count would have about
        # 4,800 digits, and the site count bound refuses it before any power is taken
        import struct

        body = b"RCMENV1" + struct.pack("<IIdQQ", d, 1, 2.0, 0, 4) + np.full(4, 0.5).astype("<f8").tobytes()
        path = tmp_path / "bad.rcmenv"
        path.write_bytes(body + struct.pack("<Q", crc64(body)))
        with pytest.raises(EnvironmentFileError, match=rf"bad\.rcmenv: {match}"):
            load_environment(path)

    @pytest.mark.parametrize("d, match", [(2**32 - 1, "too many sites"), (39, "bond count 0 inconsistent")])
    def test_empty_file_with_a_huge_header_dimension_is_refused_at_once(self, tmp_path, d, match):
        # 47 bytes, valid CRC, no bonds: the bond count of d = 2^32 - 1 would be a
        # gigabyte-sized integer; d = 39 (3^39 < 2^63) is a geometry, with 4 * 3^39 bonds
        import struct

        body = b"RCMENV1" + struct.pack("<IIdQQ", d, 1, 2.0, 0, 0)
        path = tmp_path / "huge.rcmenv"
        path.write_bytes(body + struct.pack("<Q", crc64(body)))
        assert path.stat().st_size == 47
        with pytest.raises(EnvironmentFileError, match=rf"huge\.rcmenv: {match}"):
            load_environment(path)

    def test_single_site_file_with_a_huge_dimension_is_refused(self, tmp_path):
        # 47 bytes, valid CRC, N = 0 and no bonds: this one-site box at d = 10^6 once loaded,
        # and its pi_all then raised a bare numpy ValueError
        import struct

        body = b"RCMENV1" + struct.pack("<IIdQQ", 10**6, 0, 2.0, 0, 0)
        path = tmp_path / "wide.rcmenv"
        path.write_bytes(body + struct.pack("<Q", crc64(body)))
        assert path.stat().st_size == 47
        with pytest.raises(EnvironmentFileError, match=r"wide\.rcmenv: .*dimension must be < 40, got 1000000$"):
            load_environment(path)

    @pytest.mark.parametrize("x, y", [(-2, -1), (49, 50), (2.5, 3.5)])
    def test_bond_conductance_refuses_sites_off_the_box(self, x, y):
        # d = 2, N = 3 has 49 sites: (-2, -1) once read the bond (47, 48), the others raised a bare IndexError
        env = sample_environment(BoxGeometry(2, 3), math.inf, 0)
        with pytest.raises(ValidationError, match="site"):
            env.bond_conductance(x, y)

    def test_site_count_bound(self):
        assert BoxGeometry(39, 1).n_sites == 3**39 < 2**63
        assert BoxGeometry(2, 2**30).n_sites < 2**63
        assert BoxGeometry(39, 0).n_sites == 1
        with pytest.raises(ValidationError, match="dimension must be < 40, got 1000000000"):
            BoxGeometry(10**9, 0)  # one site, but per-site tables of 10^9 axes
        for d, N in [(40, 1), (2, 2**31 - 1), (10**9, 1)]:
            with pytest.raises(ValidationError, match="too many sites"):
                BoxGeometry(d, N)


class TestPi:
    def test_homogeneous_degrees(self):
        env = sample_environment(BoxGeometry(2, 2), math.inf, 0)
        g = env.geometry
        assert pi(env, g.origin) == 4.0
        assert pi(env, g.site_index([-2, -2])) == 2.0
        assert pi(env, g.site_index([-2, 0])) == 3.0

    def test_matches_independent_resummation(self, small_env):
        g = small_env.geometry
        rng = np.random.default_rng(0)
        for x in rng.integers(0, g.n_sites, 50):
            x = int(x)
            # same canonical incidence order: (-e_1, +e_1, -e_2, +e_2)
            total = 0.0
            for i in range(g.d):
                for col in (2 * i, 2 * i + 1):
                    y = g.neighbor_table[x, col]
                    if y >= 0:
                        total += small_env.bond_conductance(x, int(y))
            assert total == pi(small_env, x)
            assert total == small_env.pi_all[x]

    def test_outside_box(self, small_env):
        with pytest.raises(ValidationError):
            pi(small_env, small_env.geometry.n_sites)

    @pytest.mark.parametrize("x", [2.5, 3.0, "3", None])
    def test_non_integral_site_refused(self, small_env, x):
        with pytest.raises(ValidationError, match="site must be an integer"):
            pi(small_env, x)


class TestPersistence:
    def test_round_trip(self, small_env, tmp_path):
        path = tmp_path / "env.rcmenv"
        save_environment(small_env, path)
        back = load_environment(path)
        assert back == small_env
        assert back.geometry == small_env.geometry
        assert back.gamma == small_env.gamma
        assert back.seed == small_env.seed
        assert np.array_equal(back.omega, small_env.omega)

    def test_homogeneous_round_trip(self, tmp_path):
        env = sample_environment(BoxGeometry(3, 2), math.inf, 0)
        path = tmp_path / "h.rcmenv"
        save_environment(env, path)
        assert load_environment(path) == env

    def test_checksum_failure(self, small_env, tmp_path):
        path = tmp_path / "env.rcmenv"
        save_environment(small_env, path)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_environment(path)

    def test_version_mismatch(self, small_env, tmp_path):
        path = tmp_path / "env.rcmenv"
        save_environment(small_env, path)
        blob = bytearray(path.read_bytes())
        blob[6] = ord("2")  # RCMENV2
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_environment(path)

    def test_truncated(self, small_env, tmp_path):
        path = tmp_path / "env.rcmenv"
        save_environment(small_env, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFileError):
            load_environment(path)

    def test_not_an_env(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTANENV" + b"\0" * 64)
        with pytest.raises(EnvironmentFileError):
            load_environment(path)

    def test_crc64_catalog_value(self):
        # standard CRC-64/ECMA-182 check value
        assert crc64(b"123456789") == 0x6C40DF5F0B497347

    def test_trailing_bytes_rejected(self, small_env, tmp_path):
        path = tmp_path / "env.rcmenv"
        save_environment(small_env, path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(EnvironmentFileError, match=r"env\.rcmenv: 7 extra byte"):
            load_environment(path)

    def test_file_bytes_pinned(self, tmp_path):
        # sha256 of the RCMENV1 bytes as written by the byte-at-a-time CRC
        env = sample_environment(BoxGeometry(2, 241), 2.0, 301)
        path = tmp_path / "env.rcmenv"
        save_environment(env, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "ef9fc9777c6a39b043e40dd6f9aff737be388d7a4f4cdff28b421de4f4aeb6de"

    def test_trailer_matches_reference_crc(self, tmp_path):
        path = tmp_path / "env.rcmenv"
        save_environment(sample_environment(BoxGeometry(3, 6), 1.5, 4), path)
        blob = path.read_bytes()
        assert int.from_bytes(blob[-8:], "little") == _crc64_reference(blob[:-8])


def _crc64_reference(data: bytes) -> int:
    """CRC-64/ECMA-182 one byte at a time, from a bit-by-bit table (the oracle)."""
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            crc = ((crc << 1) ^ 0x42F0E1EBA9EA3693 if crc & (1 << 63) else crc << 1) & 0xFFFFFFFFFFFFFFFF
        table.append(crc)
    crc = 0
    for byte in data:
        crc = (table[((crc >> 56) ^ byte) & 0xFF] ^ (crc << 8)) & 0xFFFFFFFFFFFFFFFF
    return crc


# up to 40 chunks of 64 bytes: six levels of the combine tree
_CRC_MAX_LEN = 5 * 64 * 8


class TestCrc64:
    @pytest.mark.parametrize(
        "length", [0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 1023, 1024, 1025, _CRC_MAX_LEN]
    )
    def test_chunk_boundaries(self, length):
        data = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
        assert crc64(data) == _crc64_reference(data)
        assert crc64(memoryview(data)) == crc64(bytearray(data)) == crc64(data)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=_CRC_MAX_LEN))
    def test_matches_reference(self, data):
        assert crc64(data) == _crc64_reference(data)

    @settings(deadline=None)
    @given(st.integers(0, 3 * 64), st.binary(max_size=2 * 64 * 8))
    def test_leading_zeros(self, zeros, data):
        padded = bytes(zeros) + data
        assert crc64(padded) == _crc64_reference(padded) == crc64(data)

    @settings(deadline=None)
    @given(st.binary(min_size=1, max_size=_CRC_MAX_LEN), st.data())
    def test_single_bit_flip_detected(self, data, draw):
        bit = draw.draw(st.integers(0, 8 * len(data) - 1))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert crc64(bytes(flipped)) != crc64(data)


# ---------------------------------------------------------------------------
# static guard: BoxGeometry.operator_radius alone states the operator-box rule
# ---------------------------------------------------------------------------

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcmwalk"


def _operator_box_rules(source: str) -> list[str]:
    """The ``<expr>.N - 1`` expressions of ``source`` outside ``BoxGeometry.operator_radius``."""
    tree = ast.parse(source)
    owner = {
        id(node)
        for c in tree.body
        if isinstance(c, ast.ClassDef) and c.name == "BoxGeometry"
        for f in c.body
        if isinstance(f, ast.FunctionDef) and f.name == "operator_radius"
        for node in ast.walk(f)
    }
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Attribute)
        and node.left.attr == "N"
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
        and id(node) not in owner
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_operator_radius_states_the_operator_box(path):
    # the default N - 1 and the range [0, N - 1] of an operator box are operator_radius's alone
    assert _operator_box_rules(path.read_text()) == []


def test_an_operator_box_rule_is_found():
    source = (
        "class BoxGeometry:\n"
        "    def operator_radius(self, n=None):\n"
        "        return self.N - 1 if n is None else n\n"
        "def transition_matrix(env, box_radius=None):\n"
        "    return env.geometry.N - 1 if box_radius is None else box_radius\n"
        "def sites(geom):\n"
        "    return geom.N - 2, geom.n_sites - 1\n"
    )
    assert _operator_box_rules(source) == ["line 5: env.geometry.N - 1"]
