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
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import EmptyClusterError, ValidationError
from .lattice import Environment, _restrict

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

    @cached_property
    def hitting(self) -> csr_matrix:
        """``(n_sites, n_sites)``: row ``z`` of a hole site is the law of the first
        strong-cluster site the walk from ``z`` visits (on the hole's outer
        boundary); cluster rows are empty.  Solved for all holes on first use.
        """
        return _hole_pass(self)


def _hole_pass(decomp: ClusterDecomposition) -> csr_matrix:
    """Solve ``(diag(pi) - W) H = B`` on every hole in one pass.

    ``W`` holds the bonds inside a hole, ``B`` those toward its boundary
    sites.  One bond restriction over all hole sites builds every system
    (holes are never adjacent); holes of one size share one stacked
    ``np.linalg.solve``, ``B`` padded with zero columns, which gives each hole
    bit for bit its own solve.  A hole of ``m`` sites and ``nb`` boundary
    sites takes ``8 m (m + 2 nb)`` bytes, about 63 MB at 2,632 and 179.
    """
    env = decomp.env
    n = env.geometry.n_sites
    holes = decomp.holes
    if not holes:
        return csr_matrix((n, n))
    sites = np.flatnonzero(~decomp.in_cluster)
    (row, col, w), (rim_row, outside, rim_w), _ = _restrict(env, sites)
    label = decomp.labels[sites]
    size = np.array([h.volume for h in holes], dtype=np.int64)
    width = np.array([len(h.boundary) for h in holes], dtype=np.int64)
    # sites hole by hole, each site's position in its hole, each rim bond's boundary column
    by_hole = np.argsort(label, kind="stable")
    first = np.cumsum(size) - size
    pos = np.empty(len(sites), dtype=np.int64)
    pos[by_hole] = np.arange(len(sites)) - np.repeat(first, size)
    bdry = np.concatenate([h.boundary for h in holes])
    bfirst = np.cumsum(width) - width
    rim_hole = label[rim_row]
    rim_col = np.searchsorted(np.repeat(np.arange(len(holes)), width) * n + bdry, rim_hole * n + outside)
    rim_col -= bfirst[rim_hole]

    # row z holds z's hole boundary; indices as narrow as the matrix keeps them, so it takes them uncopied
    nnz = int(width[label].sum())
    indptr = np.zeros(n + 1, dtype=np.int32 if max(n, nnz) < 2**31 else np.int64)
    indptr[sites + 1] = width[label]
    np.cumsum(indptr, out=indptr)
    indices, data = np.empty(nnz, dtype=indptr.dtype), np.empty(nnz)
    inner_size, rim_size = size[label[row]], size[rim_hole]
    slot = np.empty(len(holes), dtype=np.int64)
    for m in np.unique(size):
        group = np.flatnonzero(size == m)
        slot[group] = np.arange(len(group))
        members = sites[by_hole[first[group][:, None] + np.arange(m)]]
        A = np.zeros((len(group), m, m))
        at = inner_size == m
        A[slot[label[row[at]]], pos[row[at]], pos[col[at]]] = -w[at]
        A[:, np.arange(m), np.arange(m)] = env.pi_all[members]
        cols = np.arange(width[group].max())
        B = np.zeros((len(group), m, len(cols)))
        at = rim_size == m
        B[slot[rim_hole[at]], pos[rim_row[at]], rim_col[at]] = rim_w[at]
        H = np.linalg.solve(A, B)
        del A, B  # the largest hole's system is the peak of the pass; the scatter need not add to it
        keep = np.broadcast_to(cols < width[group][:, None, None], H.shape)
        at = (indptr[members][:, :, None] + cols)[keep]
        data[at] = H[keep]
        indices[at] = bdry[np.broadcast_to(bfirst[group][:, None, None] + cols, H.shape)[keep]]
    return csr_matrix((data, indices, indptr), shape=(n, n))


def strong_cluster(env: Environment, xi: float) -> ClusterDecomposition:
    """Decompose the box at threshold ``xi``.

    Bonds with ``omega >= xi`` form the strong graph; its largest connected
    component is retained as the strong cluster, and the remaining sites are
    grouped into grid-connected holes with their outer boundaries and
    anchors.  Raises :class:`EmptyClusterError` when no bond is strong.
    """
    if not 0 < xi < 1:
        raise ValidationError(f"threshold must lie in (0, 1), got {xi}")
    geom = env.geometry
    n = geom.n_sites
    strong = env.omega >= xi
    if not strong.any():
        raise EmptyClusterError(f"no bond with conductance >= {xi}")

    u = geom.bond_u[strong]
    v = geom.bond_v[strong]
    graph = coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
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
        both = complement[geom.bond_u] & complement[geom.bond_v]
        hu = geom.bond_u[both]
        hv = geom.bond_v[both]
        grid = coo_matrix((np.ones(len(hu), dtype=np.int8), (hu, hv)), shape=(n, n))
        _, hole_comp = connected_components(grid, directed=False)

        comp_sites = np.flatnonzero(complement)  # ascending
        raw_ids = hole_comp[comp_sites]
        uniq, first = np.unique(raw_ids, return_index=True)
        by_smallest = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[by_smallest] = np.arange(len(uniq))
        labels[comp_sites] = rank[np.searchsorted(uniq, raw_ids)]

        member_order = comp_sites[np.argsort(labels[comp_sites], kind="stable")]
        counts = np.bincount(labels[comp_sites], minlength=len(uniq))
        member_groups = np.split(member_order, np.cumsum(counts)[:-1])

        # outer boundaries: cluster endpoints of mixed bonds
        mixed_uv = complement[geom.bond_u] & in_cluster[geom.bond_v]
        mixed_vu = complement[geom.bond_v] & in_cluster[geom.bond_u]
        hole_of = np.concatenate([labels[geom.bond_u[mixed_uv]], labels[geom.bond_v[mixed_vu]]])
        bdry_site = np.concatenate([geom.bond_v[mixed_uv], geom.bond_u[mixed_vu]])
        bdry_order = np.argsort(hole_of, kind="stable")
        bdry_counts = np.bincount(hole_of, minlength=len(uniq))
        bdry_groups = np.split(bdry_site[bdry_order], np.cumsum(bdry_counts)[:-1])

        for members, bdry_raw in zip(member_groups, bdry_groups):
            bdry = np.unique(bdry_raw)
            if len(bdry) == 0:
                raise ValidationError("hole without outer boundary; box is disconnected")
            holes.append(Hole(sites=members, boundary=bdry, anchor=int(bdry[0])))

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
    np.minimum.at(reach, decomp.labels[sites], geom.linf_norm[sites])
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
    are formatted a block of sites at a time.
    """
    geom = decomp.env.geometry
    coords = geom.all_coords
    row = ",".join(["%d"] * (geom.d + 2)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["site_index"] + [f"x_{i + 1}" for i in range(geom.d)] + ["label"]) + "\r\n")
        for start in range(0, geom.n_sites, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, geom.n_sites)
            block = np.column_stack(
                [np.arange(start, stop), coords[start:stop], decomp.labels[start:stop]]
            )
            fh.write(row * (stop - start) % tuple(block.ravel().tolist()))
