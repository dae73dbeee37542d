"""Box geometry, conductance sampling and environment persistence.

An :class:`Environment` is a box ``B_N = [-N, N]^d`` together with one
conductance in ``(0, 1]`` per nearest-neighbor bond inside the box.  Bonds
follow a fixed canonical enumeration (lexicographic site order, ascending
coordinate direction) so that sampling, persistence and cross-run
reproducibility all agree on addressing.

Conductances are drawn from the exact power law ``F(a) = a**gamma`` on
``[0, 1]`` by inverse-CDF sampling, one dedicated RNG stream per
environment, when they are read: the whole table on the first read of
``omega``, or only the bond ranges asked of ``Environment.conductances``.
Environments are immutable after construction and safe to share read-only
across workers.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

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
_MAX_SITES = 2**63 - 1  # site indices are int64


def _integral_radius(value, what: str = "box radius") -> int:
    """A box radius (or the ``what`` named) as an ``int``, refusing what is not an integer.

    No truncation of 2.7, no parsing of "3"; NumPy integers pass.  The range
    is the caller's to check.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def _seed64(value, what: str = "seed") -> int:
    """A seed as an ``int``, refusing what is not an integer in ``[0, 2**64)``."""
    seed = _integral_radius(value, what)
    if not 0 <= seed < 2**64:
        raise ValidationError(f"{what} must fit in 64 bits, got {seed}")
    return seed


def _integral_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array, refusing an array whose dtype is not an integer one (2.5, "3", True)."""
    a = np.asarray(values)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValidationError(f"{what} must be integers, got {a.dtype} {values!r}")
    return a.astype(np.int64, copy=False)


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
        # 3^40 > 2^63: refusing d >= 40 first, at N = 0 too, means no power of a file header's u32
        # dimension is ever taken, and no single-site box carries a table of millions of axes
        if self.d >= 40:
            raise ValidationError(f"too many sites for int64 indices at N >= 1: dimension must be < 40, got {self.d}")
        if self.side**self.d > _MAX_SITES:
            raise ValidationError(f"too many sites for int64 indices: (2N + 1)^d = {self.side}^{self.d}")

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

    def operator_radius(self, n=None, what: str = "box radius") -> int:
        """The radius of an operator box ``B_n`` in this one as an ``int``; ``None`` is ``N - 1``.

        The killed walk needs every site of ``B_n`` to keep all ``2d`` of its
        bonds inside the box, so ``n`` must be an integer in ``[0, N - 1]``.
        """
        n = self.N - 1 if n is None else _integral_radius(n, what)
        if not 0 <= n <= self.N - 1:
            raise ValidationError(f"{what} must lie in [0, {self.N - 1}] (environment radius {self.N}), got {n}")
        return n

    def site(self, x, what: str = "site") -> int:
        """Site index ``x`` as an ``int``, refusing a non-integer and one outside the box (NumPy reads -1 as last)."""
        x = _integral_radius(x, what)
        if not 0 <= x < self.n_sites:
            raise ValidationError(f"{what} {x} outside the box")
        return x

    def site_index(self, coords) -> np.ndarray | int:
        """Flat index of one site or an (m, d) array of sites."""
        c = _integral_array(coords, "site coordinates")
        if np.any(np.abs(c) > self.N):
            raise ValidationError("site outside the box")
        shifted = c + self.N
        idx = shifted @ self.strides if c.ndim > 1 else int(shifted @ self.strides)
        return idx

    def site_coords(self, index) -> np.ndarray:
        """Coordinates in [-N, N]^d for flat indices (scalar or array)."""
        idx = _integral_array(index, "site index")
        if np.any(idx < 0) or np.any(idx >= self.n_sites):
            raise ValidationError("site index out of range")
        out = np.empty(idx.shape + (self.d,), dtype=np.int64)
        rem = idx
        for i in range(self.d):
            out[..., i], rem = divmod(rem, self.strides[i])
        return out - self.N

    @cached_property
    def steps(self) -> np.ndarray:
        """(2d,) move of the canonical index toward each neighbor in incidence order (-e_1, +e_1, -e_2, ...).

        Across a bond that carries conductance, the neighbor of ``x`` in direction ``c`` is ``x + steps[c]``.
        """
        return np.stack((-self.strides, self.strides), axis=1).ravel()

    @property
    def below_top(self) -> np.ndarray:
        """(n_sites, d) mask ``x_i < N`` of the (site, axis) pairs with a bond ``(x, x + e_i)``, true in bond order."""
        mask = np.ones((self.side,) * self.d + (self.d,), dtype=bool)
        for i in range(self.d):
            np.moveaxis(mask, i, 0)[-1, ..., i] = False
        return mask.reshape(self.n_sites, self.d)

    @cached_property
    def all_coords(self) -> np.ndarray:
        """(n_sites, d) coordinates of every site in index order; the package reads ``site_coords`` instead."""
        grids = np.indices((self.side,) * self.d).reshape(self.d, -1).T
        return grids.astype(np.int64) - self.N

    @cached_property
    def linf_norm(self) -> np.ndarray:
        """(n_sites,) sup-norm of each site: the kill test of ``ensemble_walk`` and the CLT bound read it."""
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
        The package's own readers step by :attr:`steps` instead; the table is
        kept for the benchmark's tracer and for tests.
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
        site, axis = np.divmod(np.flatnonzero(self.below_top), self.d)
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
        ids[self.below_top] = np.arange(self.n_bonds, dtype=np.int64)
        return ids

    def bond_ids(self, sites) -> np.ndarray:
        """``bond_id_table``'s rows at an (m,) array of sites, from the strides alone.

        The id of ``(k, +e_i)`` counts the (site, axis) pairs before it whose
        coordinate is below ``N``: the ``d k`` pairs of the sites before
        ``k``, less, per axis ``j``, the sites before ``k`` at ``x_j = N`` (one
        stride of them in each full period ``side * stride_j`` of the index,
        and what the last part period reaches past ``(side - 1) stride_j``),
        plus the axes ``j < i`` of ``k`` itself with ``x_j < N``.
        """
        k = np.asarray(sites, dtype=np.int64)[:, None]
        top, period = (self.side - 1) * self.strides, self.side * self.strides
        at_top = k // period * self.strides + np.maximum(k % period - top, 0)
        below = k % period < top  # x_j < N
        ids = self.d * k - at_top.sum(axis=1, keepdims=True) + np.cumsum(below, axis=1) - below
        return np.where(below, ids, -1)

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


class Environment:
    """One realization of conductances on the bonds of ``B_N``.

    ``omega[k]`` is the conductance of the k-th bond in the canonical
    enumeration; every entry lies in (0, 1].  Given ``omega``, the
    environment holds that table.  Without it, it is the sampled environment
    of ``(geometry, gamma, seed)``: bond ``k`` takes ``(1 - U_k)**(1/gamma)``
    with ``U_k`` the k-th double of ``default_rng(seed)``, and the table is
    drawn the first time ``omega`` is read.  :meth:`conductances` reads bond
    ranges without the table: PCG64 jumps ahead over the bonds between them
    (``advance``, O'Neill 2014), so a range comes out bit for bit as the
    table's slice.
    """

    def __init__(self, geometry: BoxGeometry, gamma: float, seed: int, omega: np.ndarray | None = None):
        self.geometry, self.gamma, self.seed = geometry, gamma, seed
        if omega is None:
            if not 0 < gamma < math.inf:
                raise ValidationError(f"gamma of a sampled environment must be positive and finite, got {gamma!r}")
            self.gamma, self.seed = float(gamma), _seed64(seed)
            return
        omega = np.array(omega, dtype=np.float64, copy=True)
        if omega.shape != (geometry.n_bonds,):
            raise ValidationError(f"omega has {omega.shape} entries, geometry needs {geometry.n_bonds}")
        bad = ~((omega > 0) & (omega <= 1))  # NaN fails both comparisons
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"conductance of bond {k} is {omega[k]!r}, outside (0, 1]")
        if not gamma > 0:
            raise ValidationError(f"gamma must be positive or inf, got {gamma!r}")
        omega.flags.writeable = False
        self.__dict__["omega"] = omega  # where the cached property below keeps a drawn table

    def __repr__(self) -> str:
        return f"Environment(geometry={self.geometry!r}, gamma={self.gamma!r}, seed={self.seed!r})"

    @cached_property
    def omega(self) -> np.ndarray:
        """The whole table, drawn through :meth:`conductances` (only a sampled environment gets here)."""
        omega = self.conductances([(0, self.geometry.n_bonds)])
        omega.flags.writeable = False
        return omega

    def conductances(self, ranges) -> np.ndarray:
        """The conductances of the ascending bond-id ranges ``[start, stop)`` of ``ranges``, one after another.

        A table in memory is sliced; otherwise each range is drawn from the
        seed's stream, advanced over the bonds before it.
        """
        ranges = np.asarray(ranges)
        pairs = np.issubdtype(ranges.dtype, np.integer) and ranges.ndim == 2 and ranges.shape[1] == 2
        if ranges.size and not pairs:
            raise ValidationError(f"bond ranges must be (start, stop) pairs of integers, got {ranges.dtype} {ranges.shape}")
        ranges = ranges.astype(np.int64).reshape(-1, 2)
        starts, stops = ranges[:, 0], ranges[:, 1]
        if np.any(stops < starts) or np.any(starts[1:] < stops[:-1]) or (
            len(ranges) and not 0 <= starts[0] <= stops[-1] <= self.geometry.n_bonds
        ):
            raise ValidationError(f"bond ranges must ascend within [0, {self.geometry.n_bonds}]")
        table = self.__dict__.get("omega")
        if table is not None:
            return np.concatenate([table[start:stop] for start, stop in ranges.tolist()] + [np.empty(0)])
        out = np.empty(int((stops - starts).sum()))
        bits = np.random.PCG64(self.seed)  # the stream of default_rng(seed)
        uniform, at, drawn = np.random.Generator(bits).random, 0, 0
        for start, stop in ranges.tolist():
            if stop > start:
                bits.advance(start - drawn)
                uniform(out=out[at : at + stop - start])
                at, drawn = at + stop - start, stop
        np.subtract(1.0, out, out=out)  # 1 - U is uniform on (0, 1]
        np.power(out, 1.0 / self.gamma, out=out)
        return out

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
        x, y = geom.site(x), geom.site(y)
        lo, hi = (x, y) if x < y else (y, x)
        diff = hi - lo
        axis = int(np.where(geom.strides == diff)[0][0]) if diff in geom.strides else -1
        if axis < 0:
            raise ValidationError(f"sites {x} and {y} are not nearest neighbors")
        bond = geom.bond_ids([lo])[0, axis]
        if bond < 0:
            raise ValidationError(f"no bond between {x} and {y}")
        return float(self.omega[bond])

    @cached_property
    def omega_by_direction(self) -> np.ndarray:
        """(n_sites, 2d) conductance toward each neighbor, 0 where none.

        Columns come in incidence order, that of :attr:`BoxGeometry.steps`:
        the neighbor across a positive entry in column ``c`` is ``x + steps[c]``.
        The ``+e_i`` columns take ``omega`` in bond order, C order over (site,
        axis) where ``x_i < N``; column ``-e_i`` is column ``+e_i`` shifted one
        slice along axis ``i``.
        """
        geom = self.geometry
        out = np.zeros((geom.side,) * geom.d + (2 * geom.d,), dtype=np.float64)
        out.reshape(geom.n_sites, 2 * geom.d)[:, 1::2][geom.below_top] = self.omega
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
    x = env.geometry.site(x)
    total = 0.0
    for col in range(2 * env.geometry.d):
        total += env.omega_by_direction[x, col]
    return total


def sample_environment(geom: BoxGeometry, gamma: float, seed: int) -> Environment:
    """The environment with i.i.d. conductances ``U**(1/gamma)``, drawn as it is read.

    One RNG stream per environment; bonds are filled in canonical order, so
    the same (geometry, gamma, seed) always reproduces the identical table.
    Nothing is drawn here: the table on the first read of ``omega``, a bond
    range on each :meth:`Environment.conductances` call.  ``gamma = inf``,
    the law's all-ones limit, gives that table at once.
    """
    if gamma == math.inf:
        return Environment(geom, math.inf, _seed64(seed), omega=np.ones(geom.n_bonds))
    return Environment(geom, gamma, seed)


def derive_environment_seeds(master_seed: int, n: int) -> np.ndarray:
    """Per-environment 64-bit seeds split off a master seed by counter."""
    master_seed = _seed64(master_seed, "master seed")
    n = _integral_radius(n, "number of seeds")
    if n < 0:
        raise ValidationError(f"number of seeds must be >= 0, got {n}")
    return np.random.SeedSequence(master_seed).generate_state(n, dtype=np.uint64)


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
