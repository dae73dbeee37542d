"""Box geometry, conductance sampling and environment persistence.

An :class:`Environment` is a box ``B_N = [-N, N]^d`` together with one
conductance in ``(0, 1]`` per nearest-neighbor bond inside the box.  Bonds
follow a fixed canonical enumeration (lexicographic site order, ascending
coordinate direction) so that sampling, persistence and cross-run
reproducibility all agree on addressing.

Conductances are drawn from the exact power law ``F(a) = a**gamma`` on
``[0, 1]`` by inverse-CDF sampling, one dedicated RNG stream per
environment.  Environments are immutable after construction and safe to
share read-only across workers.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import stats

from .errors import (
    ChecksumError,
    EnvironmentFileError,
    TruncatedFileError,
    ValidationError,
    VersionMismatchError,
)

_ENV_MAGIC = b"RCMENV1"
_ENV_HEADER = struct.Struct("<IIdQQ")  # d, N, gamma, seed, bond count


@dataclass(frozen=True)
class BoxGeometry:
    """Geometry of the box ``B_N = [-N, N]^d`` with canonical indexing.

    Sites are numbered 0..(2N+1)^d - 1 in lexicographic order of their
    coordinates (first coordinate slowest).  Bond ``b`` is the pair
    ``(x, x + e_i)``; bonds are numbered by ascending (site index, axis).
    """

    d: int
    N: int

    def __post_init__(self):
        if self.d < 2:
            raise ValidationError(f"dimension must be >= 2, got {self.d}")
        if self.N < 0:
            raise ValidationError(f"box radius must be >= 0, got {self.N}")

    @property
    def side(self) -> int:
        return 2 * self.N + 1

    @property
    def n_sites(self) -> int:
        return self.side**self.d

    @property
    def n_bonds(self) -> int:
        return self.d * 2 * self.N * self.side ** (self.d - 1)

    @cached_property
    def strides(self) -> np.ndarray:
        # +e_i moves the flat index by side**(d-1-i) (C order).
        return np.array([self.side ** (self.d - 1 - i) for i in range(self.d)], dtype=np.int64)

    def site_index(self, coords) -> np.ndarray | int:
        """Flat index of one site or an (m, d) array of sites."""
        c = np.asarray(coords, dtype=np.int64)
        if np.any(np.abs(c) > self.N):
            raise ValidationError("site outside the box")
        shifted = c + self.N
        idx = shifted @ self.strides if c.ndim > 1 else int(shifted @ self.strides)
        return idx

    def site_coords(self, index) -> np.ndarray:
        """Coordinates in [-N, N]^d for flat indices (scalar or array)."""
        idx = np.asarray(index, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self.n_sites):
            raise ValidationError("site index out of range")
        out = np.empty(idx.shape + (self.d,), dtype=np.int64)
        rem = idx
        for i in range(self.d):
            out[..., i], rem = divmod(rem, self.strides[i])
        return out - self.N

    @cached_property
    def all_coords(self) -> np.ndarray:
        """(n_sites, d) coordinates of every site in index order."""
        grids = np.indices((self.side,) * self.d).reshape(self.d, -1).T
        return grids.astype(np.int64) - self.N

    @cached_property
    def linf_norm(self) -> np.ndarray:
        """(n_sites,) sup-norm of each site."""
        return np.max(np.abs(self.all_coords), axis=1)

    @cached_property
    def origin(self) -> int:
        return (self.n_sites - 1) // 2

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """(n_sites, 2d) neighbor indices, -1 where the neighbor leaves the box.

        Column order is (-e_1, +e_1, -e_2, +e_2, ...), which is also the
        canonical incidence order used when summing conductances around a
        site.
        """
        coords = self.all_coords
        idx = np.arange(self.n_sites, dtype=np.int64)
        table = np.full((self.n_sites, 2 * self.d), -1, dtype=np.int64)
        for i in range(self.d):
            minus_ok = coords[:, i] > -self.N
            plus_ok = coords[:, i] < self.N
            table[minus_ok, 2 * i] = idx[minus_ok] - self.strides[i]
            table[plus_ok, 2 * i + 1] = idx[plus_ok] + self.strides[i]
        return table

    @cached_property
    def _bond_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bond_u, bond_axis, bond_v) in canonical bond order."""
        coords = self.all_coords
        # valid[s, i] == True iff site s has a +e_i bond; C-order flattening
        # of (site, axis) pairs is exactly the canonical bond enumeration.
        valid = coords < self.N
        flat = valid.ravel()
        pair_site = np.repeat(np.arange(self.n_sites, dtype=np.int64), self.d)[flat]
        pair_axis = np.tile(np.arange(self.d, dtype=np.int64), self.n_sites)[flat]
        pair_v = pair_site + self.strides[pair_axis]
        return pair_site, pair_axis, pair_v

    @property
    def bond_u(self) -> np.ndarray:
        return self._bond_arrays[0]

    @property
    def bond_axis(self) -> np.ndarray:
        return self._bond_arrays[1]

    @property
    def bond_v(self) -> np.ndarray:
        return self._bond_arrays[2]

    @cached_property
    def bond_id_table(self) -> np.ndarray:
        """(n_sites, d) bond index of (site, +e_i), -1 where absent."""
        valid = (self.all_coords < self.N).ravel()
        ids = np.full(self.n_sites * self.d, -1, dtype=np.int64)
        ids[valid] = np.arange(valid.sum(), dtype=np.int64)
        return ids.reshape(self.n_sites, self.d)

    def sub_box_indices(self, n: int) -> np.ndarray:
        """Indices of the sites of ``B_n`` (n <= N) in B_n's own canonical order."""
        if not 0 <= n <= self.N:
            raise ValidationError(f"sub-box radius {n} outside [0, {self.N}]")
        sub = BoxGeometry(self.d, n)
        return np.asarray(sub.all_coords @ self.strides + self.N * self.strides.sum(), dtype=np.int64)


@dataclass(frozen=True)
class ConductanceLaw:
    """Power-law conductance distribution: ``F(a) = a**gamma`` on [0, 1]."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")

    def cdf(self, a):
        a = np.asarray(a, dtype=float)
        return np.clip(a, 0.0, 1.0) ** self.gamma

    def inverse_cdf(self, u):
        return np.asarray(u, dtype=float) ** (1.0 / self.gamma)

    def min_median(self, m: int) -> float:
        """Median of the minimum of m i.i.d. draws (order-statistics closed form)."""
        return (1.0 - 2.0 ** (-1.0 / m)) ** (1.0 / self.gamma)


@dataclass(eq=False)
class Environment:
    """One realization of conductances on the bonds of ``B_N``.

    ``omega[k]`` is the conductance of the k-th bond in the canonical
    enumeration; every entry lies in (0, 1].
    """

    geometry: BoxGeometry
    gamma: float
    seed: int
    omega: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.omega = np.array(self.omega, dtype=np.float64, copy=True)
        if self.omega.shape != (self.geometry.n_bonds,):
            raise ValidationError(
                f"omega has {self.omega.shape} entries, geometry needs {self.geometry.n_bonds}"
            )
        bad = ~((self.omega > 0) & (self.omega <= 1))  # NaN fails both comparisons
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"conductance of bond {k} is {self.omega[k]!r}, outside (0, 1]")
        if not self.gamma > 0:
            raise ValidationError(f"gamma must be positive or inf, got {self.gamma!r}")
        self.omega.flags.writeable = False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Environment)
            and self.geometry == other.geometry
            and self.gamma == other.gamma
            and self.seed == other.seed
            and np.array_equal(self.omega, other.omega)
        )

    @property
    def d(self) -> int:
        return self.geometry.d

    @property
    def N(self) -> int:
        return self.geometry.N

    def bond_conductance(self, x, y) -> float:
        """Conductance of the bond between neighboring sites x and y (indices)."""
        geom = self.geometry
        lo, hi = (x, y) if x < y else (y, x)
        diff = hi - lo
        axis = int(np.where(geom.strides == diff)[0][0]) if diff in geom.strides else -1
        if axis < 0:
            raise ValidationError(f"sites {x} and {y} are not nearest neighbors")
        bond = geom.bond_id_table[lo, axis]
        if bond < 0:
            raise ValidationError(f"no bond between {x} and {y}")
        return float(self.omega[bond])

    @cached_property
    def omega_by_direction(self) -> np.ndarray:
        """(n_sites, 2d) conductance toward each neighbor, 0 where none.

        Column order matches :attr:`BoxGeometry.neighbor_table`.
        """
        geom = self.geometry
        out = np.zeros((geom.n_sites, 2 * geom.d), dtype=np.float64)
        ids = geom.bond_id_table
        for i in range(geom.d):
            plus = ids[:, i]
            has_plus = plus >= 0
            out[has_plus, 2 * i + 1] = self.omega[plus[has_plus]]
            # minus bond of x along axis i is the plus bond of x - e_i
            nb = geom.neighbor_table[:, 2 * i]
            has_minus = nb >= 0
            out[has_minus, 2 * i] = self.omega[ids[nb[has_minus], i]]
        return out

    @cached_property
    def pi_all(self) -> np.ndarray:
        """Invariant measure pi(x) = sum of incident in-box conductances.

        Accumulated in the canonical incidence order (-e_1, +e_1, -e_2, ...),
        so scalar recomputation in the same order reproduces it bit-exactly.
        """
        w = self.omega_by_direction
        pi = np.zeros(self.geometry.n_sites, dtype=np.float64)
        for col in range(2 * self.geometry.d):
            pi += w[:, col]
        pi.flags.writeable = False
        return pi


def pi(env: Environment, x: int) -> float:
    """Invariant measure at site ``x``: the incident in-box conductance sum.

    Summation follows the canonical incidence order so repeated computation
    is bit-exact.
    """
    if not 0 <= x < env.geometry.n_sites:
        raise ValidationError(f"site {x} outside the box")
    total = 0.0
    for col in range(2 * env.geometry.d):
        total += env.omega_by_direction[x, col]
    return total


def sample_environment(geom: BoxGeometry, gamma: float, seed: int) -> Environment:
    """Draw an environment with i.i.d. conductances ``U**(1/gamma)``.

    One RNG stream per environment; bonds are filled in canonical order, so
    the same (geometry, gamma, seed) always reproduces the identical table.
    """
    if not gamma > 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    if not 0 <= int(seed) < 2**64:
        raise ValidationError("seed must fit in 64 bits")
    rng = np.random.default_rng(int(seed))
    u = 1.0 - rng.random(geom.n_bonds)  # uniform on (0, 1]
    omega = u ** (1.0 / gamma)
    return Environment(geometry=geom, gamma=float(gamma), seed=int(seed), omega=omega)


def homogeneous_environment(d: int, N: int) -> Environment:
    """All-ones conductances (the gamma -> infinity limit of the law)."""
    geom = BoxGeometry(d, N)
    return Environment(geometry=geom, gamma=math.inf, seed=0, omega=np.ones(geom.n_bonds))


def derive_environment_seeds(master_seed: int, n: int) -> np.ndarray:
    """Per-environment 64-bit seeds split off a master seed by counter."""
    if n < 0:
        raise ValidationError("number of seeds must be >= 0")
    return np.random.SeedSequence(int(master_seed)).generate_state(n, dtype=np.uint64)


@dataclass
class SlopeEstimate:
    """Least-squares slope with a confidence interval."""

    slope: float
    ci_low: float
    ci_high: float
    per_seed_slopes: np.ndarray
    radii: np.ndarray


def min_conductance_scaling(
    d: int,
    gamma: float,
    N_list,
    seeds,
    confidence: float = 0.95,
) -> SlopeEstimate:
    """Scaling exponent of the minimal conductance in growing boxes.

    Fits the least-squares slope of ``log min(omega)`` against ``log N``
    separately for each seed and averages; the asymptotic value is
    ``-d/gamma``.  Requires at least 4 distinct radii spanning a factor 8.
    """
    radii = np.asarray(sorted(set(int(n) for n in N_list)), dtype=np.int64)
    if len(radii) < 4:
        raise ValidationError("need at least 4 distinct radii")
    if radii[-1] < 8 * radii[0]:
        raise ValidationError("radii must span at least a factor 8")
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("need at least one seed")

    log_n = np.log(radii.astype(float))
    log_min = np.empty((len(seeds), len(radii)))
    for j, seed in enumerate(seeds):
        for k, n in enumerate(radii):
            env_seed = np.random.SeedSequence([int(seed), int(n)]).generate_state(1, dtype=np.uint64)[0]
            env = sample_environment(BoxGeometry(d, int(n)), gamma, int(env_seed))
            log_min[j, k] = np.log(env.omega.min())
    slopes = np.array([np.polyfit(log_n, row, 1)[0] for row in log_min])

    mean = float(slopes.mean())
    if len(seeds) > 1:
        se = float(slopes.std(ddof=1) / math.sqrt(len(seeds)))
        tq = float(stats.t.ppf(0.5 + confidence / 2, len(seeds) - 1))
        half = tq * se
    else:
        # single seed: use the regression's own residual CI
        x = np.vstack([np.ones_like(log_n), log_n]).T
        _, res, *_ = np.linalg.lstsq(x, log_min[0], rcond=None)
        dof = len(radii) - 2
        s2 = float(res[0]) / dof if len(res) else 0.0
        cov = s2 * np.linalg.inv(x.T @ x)
        tq = float(stats.t.ppf(0.5 + confidence / 2, dof))
        half = tq * math.sqrt(cov[1, 1])
    return SlopeEstimate(mean, mean - half, mean + half, slopes, radii)


# ---------------------------------------------------------------------------
# persistence: little-endian binary with a CRC-64 trailer
# ---------------------------------------------------------------------------

_CRC64_POLY = 0x42F0E1EBA9EA3693  # ECMA-182


def _crc64_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            crc = ((crc << 1) ^ _CRC64_POLY if crc & (1 << 63) else crc << 1) & 0xFFFFFFFFFFFFFFFF
        table.append(crc)
    return table


_CRC64_TABLE = _crc64_table()


def crc64(data: bytes, crc: int = 0) -> int:
    """CRC-64/ECMA-182 of ``data`` (init 0, no reflection, no final xor)."""
    table = _CRC64_TABLE
    for byte in data:
        crc = (table[((crc >> 56) ^ byte) & 0xFF] ^ (crc << 8)) & 0xFFFFFFFFFFFFFFFF
    return crc


def save_environment(env: Environment, path) -> None:
    """Write ``env`` to ``path`` in the binary RCMENV1 format."""
    header = _ENV_MAGIC + _ENV_HEADER.pack(
        env.geometry.d, env.geometry.N, env.gamma, env.seed, env.geometry.n_bonds
    )
    payload = env.omega.astype("<f8").tobytes()
    trailer = struct.pack("<Q", crc64(header + payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(trailer)


def load_environment(path) -> Environment:
    """Read an environment saved by :func:`save_environment`.

    Raises :class:`VersionMismatchError`, :class:`TruncatedFileError` or
    :class:`ChecksumError` on malformed input, and :class:`EnvironmentFileError`
    when the stored conductances or gamma are out of range.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_ENV_MAGIC):
        raise TruncatedFileError(f"{path}: shorter than the magic header")
    magic = blob[: len(_ENV_MAGIC)]
    if magic != _ENV_MAGIC:
        if magic[:6] == _ENV_MAGIC[:6]:
            raise VersionMismatchError(
                f"{path}: format version {magic[6:7]!r} not supported (expected {_ENV_MAGIC[6:7]!r})"
            )
        raise EnvironmentFileError(f"{path}: not an environment file")
    head_end = len(_ENV_MAGIC) + _ENV_HEADER.size
    if len(blob) < head_end:
        raise TruncatedFileError(f"{path}: truncated header")
    d, N, gamma, seed, n_bonds = _ENV_HEADER.unpack(blob[len(_ENV_MAGIC) : head_end])
    expected = head_end + 8 * n_bonds + 8
    if len(blob) < expected:
        raise TruncatedFileError(f"{path}: expected {expected} bytes, found {len(blob)}")
    (stored_crc,) = struct.unpack("<Q", blob[expected - 8 : expected])
    if crc64(blob[: expected - 8]) != stored_crc:
        raise ChecksumError(f"{path}: CRC-64 trailer mismatch")
    geom = BoxGeometry(int(d), int(N))
    if geom.n_bonds != n_bonds:
        raise EnvironmentFileError(f"{path}: bond count {n_bonds} inconsistent with geometry")
    omega = np.frombuffer(blob[head_end : expected - 8], dtype="<f8").astype(np.float64)
    try:
        return Environment(geometry=geom, gamma=float(gamma), seed=int(seed), omega=omega)
    except ValidationError as exc:
        raise EnvironmentFileError(f"{path}: {exc}") from exc
