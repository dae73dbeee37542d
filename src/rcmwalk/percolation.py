"""Strong-cluster extraction and hole bookkeeping.

Thresholding the conductances at ``xi`` splits the box into the largest
connected component of the strong-bond graph (the finite-box surrogate of
the infinite cluster) and *holes*: grid-connected components of the
remaining sites.  Each hole records its volume, its outer boundary inside
the strong cluster, and a fixed anchor site on that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpbsv
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from .errors import EmptyClusterError, NumericalError, ValidationError
from .lattice import Environment

STRONG_LABEL = -1

# Reference bond-percolation thresholds, used for sanity warnings only.
P_CRITICAL = {2: 0.5, 3: 0.2488126, 4: 0.1601314, 5: 0.118172}


def threshold_for_density(gamma: float, p: float) -> float:
    """Threshold ``xi`` with ``Q(omega >= xi) = p`` under the power law.

    Under ``F(a) = a**gamma`` this is ``(1 - p)**(1/gamma)``.
    """
    if not gamma > 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    if not 0 < p < 1:
        raise ValidationError(f"density p must lie in (0, 1), got {p}")
    return (1.0 - p) ** (1.0 / gamma)


@dataclass
class Hole:
    """One grid-connected component of the strong cluster's complement."""

    sites: np.ndarray
    boundary: np.ndarray  # outer boundary, subset of the strong cluster
    anchor: int  # smallest boundary site index

    @property
    def volume(self) -> int:
        return len(self.sites)


@dataclass
class ClusterDecomposition:
    """Per-site labels splitting a box into strong cluster and holes.

    ``labels[x] == STRONG_LABEL`` marks the strong cluster; otherwise the
    value is the hole id.  Hole ids are assigned in order of each hole's
    smallest site index, so the decomposition is deterministic.
    """

    env: Environment
    threshold: float
    labels: np.ndarray
    holes: list[Hole]

    @property
    def in_cluster(self) -> np.ndarray:
        return self.labels == STRONG_LABEL

    @property
    def cluster_size(self) -> int:
        return int(self.in_cluster.sum())

    def check_env(self, env: Environment) -> None:
        """Raise unless the decomposition was computed on ``env`` itself."""
        if env is not self.env:
            raise ValidationError("the decomposition was computed on a different environment")

    @cached_property
    def hitting(self) -> csr_matrix:
        """``(n_sites, n_sites)``: row ``z`` of a hole site is the law of the first
        strong-cluster site the walk from ``z`` visits (on the hole's outer
        boundary); cluster rows are empty.  Solved for all holes on first use.
        """
        return _hole_pass(self)


def _hole_pass(decomp: ClusterDecomposition) -> csr_matrix:
    """Solve ``(diag(pi) - W) H = B`` on every hole in one pass.

    ``W`` holds the bonds inside a hole, ``B`` those toward its boundary sites, both read off the hole
    sites' rows of ``omega_by_direction``, each bond's far end one of the geometry's ``steps`` away (holes
    are never adjacent, so a bonded neighbor off the cluster is in the same hole).
    One sort of the sites by (boundary width, hole, site) makes the holes of a width ``nb``, and their
    bonds, one slice: a block-diagonal system with exactly ``nb`` right-hand sides.  ``diag(pi) - W`` on
    a connected hole with rim conductance is irreducibly diagonally dominant, hence positive definite.
    Reverse Cuthill-McKee numbers each hole of a slice on its own to a narrow band (bandwidth at most
    21 on two ``N = 241`` boxes), and one LAPACK ``pbsv`` call factors and solves the slice in about
    ``8 m (kd + 1 + nb)`` bytes for ``m`` sites and bandwidth ``kd``.  Widths, boundaries and anchors are
    read from ``decomp.holes``.
    """
    env = decomp.env
    n = env.geometry.n_sites
    holes = decomp.holes
    if not holes:
        return csr_matrix((n, n))
    width = np.array([len(h.boundary) for h in holes], dtype=np.int64)
    bdry = np.concatenate([h.boundary for h in holes])
    bfirst = np.cumsum(width) - width
    sites = np.flatnonzero(~decomp.in_cluster)
    sites = sites[np.lexsort((decomp.labels[sites], width[decomp.labels[sites]]))]  # by (width, hole, site)
    label = decomp.labels[sites]
    at = np.empty(n, dtype=np.int64)  # each hole site's row
    at[sites] = np.arange(len(sites))
    bond_row, c = np.nonzero(env.omega_by_direction[sites] > 0)  # absent neighbors carry no conductance
    far, bond_w = sites[bond_row] + env.geometry.steps[c], env.omega_by_direction[sites[bond_row], c]
    inner = ~decomp.in_cluster[far]
    row, col, w = bond_row[inner], at[far[inner]], bond_w[inner]
    rim_row, rim_w, rim_hole = bond_row[~inner], bond_w[~inner], label[bond_row[~inner]]
    # each rim bond's column in its hole's boundary
    rim_col = np.searchsorted(np.repeat(np.arange(len(holes)), width) * n + bdry, rim_hole * n + far[~inner])
    rim_col -= bfirst[rim_hole]
    del at, bond_row, c, far, bond_w, inner, rim_hole  # kept alive, they would add to the peak of the solves below

    # row z holds z's hole boundary; indices as narrow as the matrix keeps them, so it takes them uncopied
    nnz = int(width[label].sum())
    indptr = np.zeros(n + 1, dtype=np.int32 if max(n, nnz) < 2**31 else np.int64)
    indptr[sites + 1] = width[label]
    np.cumsum(indptr, out=indptr)
    indices, data = np.empty(nnz, dtype=indptr.dtype), np.empty(nnz)
    row_width = width[label]  # ascending
    for nb in np.unique(width).tolist():
        start, end = np.searchsorted(row_width, [nb, nb + 1]).tolist()
        m, group = end - start, np.flatnonzero(width == nb)  # the group's hole ids, ascending as its rows
        inner, rim = slice(*np.searchsorted(row, [start, end])), slice(*np.searchsorted(rim_row, [start, end]))
        r, c, w_in = row[inner] - start, col[inner] - start, w[inner]
        graph = csr_matrix((w_in, c, np.searchsorted(r, np.arange(m + 1))), shape=(m, m))  # r ascending
        order = reverse_cuthill_mckee(graph, symmetric_mode=True)
        new = np.empty(m, dtype=np.int64)
        new[order] = np.arange(m)
        # row i of the solve is site members[i], whose hole's boundary is one row of the group's table
        members = sites[start:end][order]
        table = bdry[bfirst[group][:, None] + np.arange(nb)].astype(indptr.dtype)
        at = indptr[members][:, None] + np.arange(nb, dtype=indptr.dtype)
        indices[at] = table[np.searchsorted(group, label[start:end][order])]
        r, c = new[r], new[c]
        low = r > c
        ab = np.zeros((int((r - c).max(initial=0)) + 1, m), order="F")  # ab[i - j, j] = A[i, j], the lower band
        ab[0] = env.pi_all[members]
        ab[(r - c)[low], c[low]] = -w_in[low]
        B = np.zeros((m, nb), order="F")
        B[new[rim_row[rim] - start], rim_col[rim]] = rim_w[rim]
        X, info = dpbsv(ab, B, lower=1, overwrite_ab=1, overwrite_b=1)[1:]
        if info < 0:
            raise ValueError(f"dpbsv: illegal value in argument {-info}")
        if info > 0:  # the leading minor of order info fails, in the block of the hole that holds row info - 1
            hole = holes[label[start + order[info - 1]]]
            raise NumericalError(f"hole of {hole.volume} sites at anchor {hole.anchor}: banded Cholesky failed")
        data[at] = X
    return csr_matrix((data, indices, indptr), shape=(n, n))


def _components(n: int, site: np.ndarray, axis: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """Component labels of ``n`` sites under the bonds ``(site, site + e_axis)``, listed by ascending ``site``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(site, minlength=n), out=indptr[1:])
    graph = csr_matrix((np.ones(len(site)), site + strides[axis], indptr), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def strong_cluster(env: Environment, xi: float) -> ClusterDecomposition:
    """Decompose the box at threshold ``xi``.

    Bonds with ``omega >= xi`` form the strong graph; its largest connected
    component is retained as the strong cluster, and the remaining sites are
    grouped into grid-connected holes with their outer boundaries and
    anchors.  Raises :class:`EmptyClusterError` when no bond is strong.
    Bonds are read off the ``+e_i`` columns of ``omega_by_direction``, whose
    C order over (site, axis) is the bond order, and their far ends one
    stride up; each hole's sites and boundary are slices of two flat arrays
    sorted by hole.
    """
    if not 0 < xi < 1:
        raise ValidationError(f"threshold must lie in (0, 1), got {xi}")
    geom = env.geometry
    n = geom.n_sites
    plus = env.omega_by_direction[:, 1::2]  # conductance of (x, x + e_i), 0 where there is no bond
    strong = np.nonzero(plus >= xi)
    if not len(strong[0]):
        raise EmptyClusterError(f"no bond with conductance >= {xi}")

    comp = _components(n, *strong, geom.strides)
    sizes = np.bincount(comp)
    giant = int(np.argmax(sizes))
    if sizes[giant] < 2:
        raise EmptyClusterError(f"no bond with conductance >= {xi}")
    in_cluster = comp == giant

    labels = np.full(n, STRONG_LABEL, dtype=np.int64)
    holes: list[Hole] = []
    complement = ~in_cluster
    if complement.any():
        # grid-connect the complement with every lattice bond between two
        # complement sites, then number the components by smallest member site
        # x + e_i off the cluster: the complement's grid shifted one slice back along axis i
        grid = (geom.side,) * geom.d
        far_off = np.zeros(grid + (geom.d,), dtype=bool)
        for i in range(geom.d):
            np.moveaxis(far_off[..., i], i, 0)[:-1] = np.moveaxis(complement.reshape(grid), i, 0)[1:]
        near_off, far_off = complement[:, None] & (plus > 0), far_off.reshape(n, geom.d) & (plus > 0)
        hole_comp = _components(n, *np.nonzero(near_off & far_off), geom.strides)

        comp_sites = np.flatnonzero(complement)  # ascending
        _, first, raw_ids = np.unique(hole_comp[comp_sites], return_index=True, return_inverse=True)
        labels[comp_sites] = np.argsort(np.argsort(first, kind="stable"))[raw_ids]  # rank by smallest site
        members = comp_sites[np.argsort(labels[comp_sites], kind="stable")]
        site_end = np.cumsum(np.bincount(labels[comp_sites]))

        # outer boundaries: the cluster ends of the bonds between a hole and the cluster, sorted by (hole, site)
        u, axis = np.nonzero(near_off != far_off)
        v = u + geom.strides[axis]
        hole_end = np.where(complement[u], u, v)
        keys = np.sort(labels[hole_end] * n + (u + v - hole_end))
        # the distinct keys, as np.unique gives them, at a fraction of the time of its hash path
        bdry_hole, bdry = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        bdry_start, bdry_end = (np.searchsorted(bdry_hole, np.arange(len(first)), side=s) for s in ("left", "right"))
        if np.any(bdry_start == bdry_end):
            raise ValidationError("hole without outer boundary; box is disconnected")
        slices = zip(np.r_[0, site_end[:-1]].tolist(), site_end.tolist(), bdry_start.tolist(), bdry_end.tolist())
        holes = [Hole(members[a:b], bdry[c:e], int(bdry[c])) for a, b, c, e in slices]

    return ClusterDecomposition(env=env, threshold=float(xi), labels=labels, holes=holes)


@dataclass
class HoleVolumeReport:
    """Hole-volume statistics against the ``(log n)**(5/2)`` envelope."""

    max_volume: int
    histogram: dict[int, int]
    n_values: np.ndarray  # sub-box radii 1..N
    max_volume_by_n: np.ndarray  # over holes intersecting B_n
    bound_by_n: np.ndarray  # (log n)**(5/2)
    flagged_n: np.ndarray  # radii where some intersecting hole exceeds the bound

    def exceeds_at(self, n: int) -> bool:
        k = int(np.searchsorted(self.n_values, n))
        if k >= len(self.n_values) or self.n_values[k] != n:
            raise ValidationError(f"radius {n} not covered by the report")
        return bool(self.max_volume_by_n[k] > self.bound_by_n[k])


def hole_volume_report(decomp: ClusterDecomposition) -> HoleVolumeReport:
    """Max and histogram of hole volumes, per sub-box radius.

    For each ``n <= N`` the report lists the largest volume among holes
    intersecting ``B_n`` next to the envelope ``(log n)**(5/2)``.  The
    envelope is asymptotic, so flags at small ``n`` are expected; desk-scale
    conclusions should be read at ``n`` of the order of the box radius.
    """
    geom = decomp.env.geometry
    n_values = np.arange(1, geom.N + 1, dtype=np.int64)
    bound = np.log(n_values.astype(float)) ** 2.5

    volumes = np.array([h.volume for h in decomp.holes], dtype=np.int64)
    # smallest sub-box radius each hole intersects
    sites = np.flatnonzero(~decomp.in_cluster)
    reach = np.full(len(volumes), geom.N, dtype=np.int64)
    np.minimum.at(reach, decomp.labels[sites], np.abs(geom.site_coords(sites)).max(axis=1))
    # largest volume reaching each radius, then the running max over radii
    largest = np.zeros(geom.N + 1, dtype=np.int64)
    np.maximum.at(largest, reach, volumes)
    max_by_n = np.maximum.accumulate(largest)[1:]

    sizes, counts = np.unique(volumes, return_counts=True)
    hist = dict(zip(sizes.tolist(), counts.tolist()))
    flagged = n_values[max_by_n > bound]
    return HoleVolumeReport(int(largest.max()), hist, n_values, max_by_n, bound, flagged)


def percolation_density_warning(d: int, p: float) -> str | None:
    """Sanity note when the requested strong-bond density is subcritical."""
    pc = P_CRITICAL.get(d)
    if pc is not None and p <= pc:
        return f"strong-bond density {p} is at or below the d={d} percolation threshold {pc}"
    return None


_CSV_BLOCK_ROWS = 16384  # rows formatted per string operation; bounds the temporary arrays


def write_decomposition_csv(decomp: ClusterDecomposition, path) -> None:
    """Export per-site labels: site_index, x_1..x_d, label (-1 = strong cluster).

    Lines end in CRLF, as the csv module's default dialect writes them; rows
    are formatted as bytes a block of sites at a time, with no text-layer
    encode.
    """
    geom = decomp.env.geometry
    row = b",".join([b"%d"] * (geom.d + 2)) + b"\r\n"
    with open(path, "wb") as fh:
        fh.write(",".join(["site_index"] + [f"x_{i + 1}" for i in range(geom.d)] + ["label"]).encode() + b"\r\n")
        for start in range(0, geom.n_sites, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, geom.n_sites)
            block = np.column_stack(
                [np.arange(start, stop), geom.site_coords(np.arange(start, stop)), decomp.labels[start:stop]]
            )
            fh.write(row * (stop - start) % tuple(block.ravel().tolist()))
