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
import operator
import struct
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.special import stdtrit

from .errors import (
    ChecksumError,
    EnvironmentFileError,
    TruncatedFileError,
    ValidationError,
    VersionMismatchError,
)

_ENV_MAGIC = b"RCMENV1"
_ENV_HEADER = struct.Struct("<IIdQQ")  # d, N, gamma, seed, bond count
_CONFIDENCE = 0.95  # two-sided level of every confidence interval the package reports


def _integral_radius(value, what: str = "box radius") -> int:
    """A box radius (or the ``what`` named) as an ``int``, refusing what is not an integer.

    No truncation of 2.7, no parsing of "3"; NumPy integers pass.  The range
    is the caller's to check.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


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
        object.__setattr__(self, "d", _integral_radius(self.d, "dimension"))
        object.__setattr__(self, "N", _integral_radius(self.N))
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
        site.  Canonical order is C order, so column ``-e_i`` is the index
        grid shifted one slice along axis ``i``, and ``+e_i`` one slice back.
        """
        grid = (self.side,) * self.d
        table = np.full(grid + (2 * self.d,), -1, dtype=np.int64)
        for i in range(self.d):
            idx, t = np.moveaxis(np.arange(self.n_sites).reshape(grid), i, 0), np.moveaxis(table, i, 0)
            t[1:, ..., 2 * i], t[:-1, ..., 2 * i + 1] = idx[:-1], idx[1:]
        return table.reshape(self.n_sites, 2 * self.d)

    @cached_property
    def _bond_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bond_u, bond_axis, bond_v) in canonical bond order: C order over the (site, axis) pairs with ``x_i < N``."""
        site, axis = np.divmod(np.flatnonzero(self.all_coords < self.N), self.d)
        return site, axis, site + self.strides[axis]

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
        ids = np.full((self.n_sites, self.d), -1, dtype=np.int64)
        ids[self.all_coords < self.N] = np.arange(self.n_bonds, dtype=np.int64)
        return ids

    def sub_box_rows(self, a: np.ndarray, n: int) -> np.ndarray:
        """The rows of the per-site array ``a`` at the sites of ``B_n`` (n <= N), in B_n's own canonical order.

        Canonical order is C order over the coordinates, so ``B_n`` is a slice
        of the box's grid.
        """
        if not 0 <= n <= self.N:
            raise ValidationError(f"sub-box radius {n} outside [0, {self.N}]")
        cut = (slice(self.N - n, self.N + n + 1),) * self.d
        return a.reshape((self.side,) * self.d + a.shape[1:])[cut].reshape((-1,) + a.shape[1:])

    def sub_box_indices(self, n: int) -> np.ndarray:
        """Indices of the sites of ``B_n`` (n <= N) in B_n's own canonical order."""
        return self.sub_box_rows(np.arange(self.n_sites, dtype=np.int64), n)

    def l1_ball_indices(self, n: int, radius: int) -> np.ndarray:
        """Indices of the sites of ``B_n`` within L1 distance ``radius`` of the origin.

        Sorted by (L1 distance, canonical index), so the order of a smaller
        ball is a prefix of a larger one's; radius ``d n`` gives all of ``B_n``.
        Only the ball's own sites are enumerated: for each point of the first
        ``d - 1`` coordinates of ``B_n`` that fits, the last coordinate runs
        over what the L1 norm leaves.
        """
        if not 0 <= n <= self.N:
            raise ValidationError(f"box radius {n} outside [0, {self.N}]")
        if radius < 0:
            raise ValidationError(f"L1 radius must be >= 0, got {radius}")
        a = min(n, int(radius))
        head = np.indices((2 * a + 1,) * (self.d - 1)).reshape(self.d - 1, -1).T - a
        head_l1 = np.abs(head).sum(axis=1)
        fits = head_l1 <= radius
        head, head_l1 = head[fits], head_l1[fits]
        reach = np.minimum(radius - head_l1, a)  # |last coordinate| <= reach
        count = 2 * reach + 1
        last = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count + reach, count)
        index = np.repeat((head + self.N) @ self.strides[:-1], count) + (last + self.N)
        l1 = np.repeat(head_l1, count) + np.abs(last)
        # lexicographic so far; a stable sort by distance (radix on small integers) keeps that within a shell
        return index[np.argsort(l1.astype(np.min_scalar_type(radius)), kind="stable")]


@dataclass(frozen=True)
class ConductanceLaw:
    """Power-law conductance distribution: ``F(a) = a**gamma`` on [0, 1]."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")

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

        Column order matches :attr:`BoxGeometry.neighbor_table`.  The ``+e_i``
        columns take ``omega`` in bond order, C order over (site, axis) where
        ``x_i < N``; column ``-e_i`` is column ``+e_i`` shifted one slice along axis ``i``.
        """
        geom = self.geometry
        out = np.zeros((geom.side,) * geom.d + (2 * geom.d,), dtype=np.float64)
        out.reshape(geom.n_sites, 2 * geom.d)[:, 1::2][geom.all_coords < geom.N] = self.omega
        for i in range(geom.d):
            o = np.moveaxis(out, i, 0)
            o[1:, ..., 2 * i] = o[:-1, ..., 2 * i + 1]
        return out.reshape(geom.n_sites, 2 * geom.d)

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
    if not 0 <= _integral_radius(x, "site") < env.geometry.n_sites:
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
    seed = _integral_radius(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must fit in 64 bits, got {seed}")
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(geom.n_bonds)  # uniform on (0, 1]
    omega = u ** (1.0 / gamma)
    return Environment(geometry=geom, gamma=float(gamma), seed=seed, omega=omega)


def homogeneous_environment(d: int, N: int) -> Environment:
    """All-ones conductances (the gamma -> infinity limit of the law)."""
    geom = BoxGeometry(d, N)
    return Environment(geometry=geom, gamma=math.inf, seed=0, omega=np.ones(geom.n_bonds))


def derive_environment_seeds(master_seed: int, n: int) -> np.ndarray:
    """Per-environment 64-bit seeds split off a master seed by counter."""
    master_seed = _integral_radius(master_seed, "master seed")
    if not 0 <= master_seed < 2**64:
        raise ValidationError(f"master seed must fit in 64 bits, got {master_seed}")
    n = _integral_radius(n, "number of seeds")
    if n < 0:
        raise ValidationError(f"number of seeds must be >= 0, got {n}")
    return np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint64)


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
        tq = float(stdtrit(len(seeds) - 1, 0.5 + _CONFIDENCE / 2))
        half = tq * se
    else:
        # single seed: use the regression's own residual CI
        x = np.vstack([np.ones_like(log_n), log_n]).T
        _, res, *_ = np.linalg.lstsq(x, log_min[0], rcond=None)
        dof = len(radii) - 2
        s2 = float(res[0]) / dof if len(res) else 0.0
        cov = s2 * np.linalg.inv(x.T @ x)
        tq = float(stdtrit(dof, 0.5 + _CONFIDENCE / 2))
        half = tq * math.sqrt(cov[1, 1])
    return SlopeEstimate(mean, mean - half, mean + half, slopes, radii)


# ---------------------------------------------------------------------------
# persistence: little-endian binary with a CRC-64 trailer
# ---------------------------------------------------------------------------

_CRC64_POLY = 0x42F0E1EBA9EA3693  # ECMA-182
_CRC64_MASK = 0xFFFFFFFFFFFFFFFF
_CRC64_CHUNK = 64  # bytes per chunk CRC-ed in one vectorized pass


def _gf2_mulmod(a: int, b: int) -> int:
    """Product of two CRC registers as GF(2) polynomials, reduced mod the generator."""
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        if a >> 64:
            a = (a ^ _CRC64_POLY) & _CRC64_MASK
        b >>= 1
    return prod


@cache
def _crc64_word_table() -> np.ndarray:
    """CRC of each of the 65536 big-endian two-byte words, for a step that feeds two bytes at once."""
    # CRC of the single byte b: b(x) * x**64 mod P, and x**64 = _CRC64_POLY mod P
    byte = np.array([_gf2_mulmod(b, _CRC64_POLY) for b in range(256)], dtype=np.uint64)
    word = np.arange(1 << 16, dtype=np.uint64)
    table = (byte[word >> 8] << 8) ^ byte[(byte[word >> 8] >> 56) ^ (word & 0xFF)]
    table.flags.writeable = False
    return table


@cache
def _zeros_shift_tables(level: int) -> np.ndarray:
    """(8, 256) tables of the linear map "append ``2**level * _CRC64_CHUNK`` zero bytes".

    With init 0 and no final xor, ``crc(A + B) = shift_len(B)(crc(A)) ^ crc(B)``
    and the shift is multiplication by ``x**(8 len(B))`` mod the generator
    (the combine step of zlib's ``crc32_combine``).  Row ``k`` maps the k-th
    least significant byte of a register to its image; the images of the
    eight bytes are xor-ed.
    """
    n_bits = 8 * _CRC64_CHUNK << level
    factor, power = 1, 2  # x**n_bits mod P by square-and-multiply, from x**0 and x**1
    while n_bits:
        if n_bits & 1:
            factor = _gf2_mulmod(factor, power)
        power = _gf2_mulmod(power, power)
        n_bits >>= 1
    bit_images = np.array([_gf2_mulmod(factor, 1 << i) for i in range(64)], dtype=np.uint64)
    values = np.arange(256)
    tables = np.zeros((8, 256), dtype=np.uint64)
    for k in range(8):
        for j in range(8):
            tables[k, (values >> j) & 1 == 1] ^= bit_images[8 * k + j]
    tables.flags.writeable = False
    return tables


def crc64(data) -> int:
    """CRC-64/ECMA-182 of a bytes-like ``data`` (init 0, no reflection, no final xor).

    Leading zero bytes leave this CRC unchanged, so the input is front-padded
    to whole 64-byte chunks; the table-driven step feeds two bytes (one
    big-endian word) of every chunk at once, and the chunk CRCs are then
    combined pairwise in a tree (a zero CRC in front of an odd count) with
    the precomputed zero-append shifts.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    n_chunks = -(-raw.size // _CRC64_CHUNK)
    if n_chunks == 0:
        return 0
    head_len = raw.size - (n_chunks - 1) * _CRC64_CHUNK
    columns = np.empty((_CRC64_CHUNK // 2, n_chunks), dtype=np.uint16)  # columns[j, c] = word j of chunk c
    columns[:, 0] = np.concatenate([np.zeros(_CRC64_CHUNK - head_len, dtype=np.uint8), raw[:head_len]]).view(">u2")
    columns[:, 1:] = raw[head_len:].view(">u2").reshape(n_chunks - 1, _CRC64_CHUNK // 2).T
    table = _crc64_word_table()
    crc = np.zeros(n_chunks, dtype=np.uint64)
    index = np.empty(n_chunks, dtype=np.uint64)
    for column in columns:
        np.right_shift(crc, 48, out=index)
        index ^= column
        crc <<= 16
        crc ^= table.take(index.view(np.int64))
    level = 0
    while crc.size > 1:
        if crc.size % 2:
            crc = np.concatenate([np.zeros(1, dtype=np.uint64), crc])
        head, crc = crc[0::2], crc[1::2].copy()
        shift = _zeros_shift_tables(level)
        byte = index[: head.size]
        for k in range(8):
            np.right_shift(head, 8 * k, out=byte)
            byte &= 0xFF
            crc ^= shift[k].take(byte.view(np.int64))
        level += 1
    return int(crc[0])


def save_environment(env: Environment, path) -> None:
    """Write ``env`` to ``path`` in the binary RCMENV1 format."""
    header = _ENV_MAGIC + _ENV_HEADER.pack(
        env.geometry.d, env.geometry.N, env.gamma, env.seed, env.geometry.n_bonds
    )
    body = header + env.omega.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<Q", crc64(body)))


def load_environment(path) -> Environment:
    """Read an environment saved by :func:`save_environment`.

    Raises :class:`VersionMismatchError`, :class:`TruncatedFileError` or
    :class:`ChecksumError` on malformed input, and :class:`EnvironmentFileError`
    on bytes after the trailer or when the stored geometry, bond count,
    conductances or gamma are out of range.
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
    if len(blob) > expected:
        raise EnvironmentFileError(f"{path}: {len(blob) - expected} extra byte(s) after the CRC-64 trailer")
    (stored_crc,) = struct.unpack("<Q", blob[expected - 8 : expected])
    if crc64(memoryview(blob)[: expected - 8]) != stored_crc:
        raise ChecksumError(f"{path}: CRC-64 trailer mismatch")
    try:
        geom = BoxGeometry(d, N)
        if geom.n_bonds != n_bonds:  # checked before Environment, whose message would print a huge n_bonds
            raise ValidationError(f"bond count {n_bonds} inconsistent with geometry")
        return Environment(geometry=geom, gamma=gamma, seed=seed, omega=np.frombuffer(blob, "<f8", n_bonds, head_end))
    except ValidationError as exc:
        raise EnvironmentFileError(f"{path}: {exc}") from exc
