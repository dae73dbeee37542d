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
from numpy.linalg import LinAlgError
from scipy.linalg import solveh_banded
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from .errors import EmptyClusterError, NumericalError, ValidationError
from .lattice import Environment

STRONG_LABEL = -1

# Holes of at least this many sites take a banded Cholesky solve, smaller ones a stacked dense solve.
_DENSE_SITES = 100

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
    sites' table rows (holes are never adjacent, so a bonded neighbor off the cluster is in the same hole).
    One sort of the sites by (hole size, hole, site) makes the holes of a size, and their bonds, one slice.
    Holes under ``_DENSE_SITES`` sites share one stacked ``np.linalg.solve`` per size, ``B`` padded with
    zero columns, which gives each hole bit for bit its own solve; OpenBLAS runs ``getrf`` on one thread
    below ``m * m = 10,000``.  A larger hole takes :func:`_banded_hitting` instead: a dense solve of it
    would wake OpenBLAS's thread pool, whose spin costs more CPU than the solve, and hold ``16 m^2`` bytes.
    Sizes, widths, boundaries and anchors are read from ``decomp.holes``.
    """
    env = decomp.env
    n = env.geometry.n_sites
    holes = decomp.holes
    if not holes:
        return csr_matrix((n, n))
    size = np.array([h.volume for h in holes], dtype=np.int64)
    width = np.array([len(h.boundary) for h in holes], dtype=np.int64)
    bdry = np.concatenate([h.boundary for h in holes])
    bfirst = np.cumsum(width) - width
    sites = np.flatnonzero(~decomp.in_cluster)
    sites = sites[np.lexsort((decomp.labels[sites], size[decomp.labels[sites]]))]  # by (hole size, hole, site)
    label = decomp.labels[sites]
    at = np.empty(n, dtype=np.int64)  # each hole site's row
    at[sites] = np.arange(len(sites))
    bond_row, c = np.nonzero(env.omega_by_direction[sites] > 0)  # absent neighbors (-1) carry no conductance
    far, bond_w = env.geometry.neighbor_table[sites[bond_row], c], env.omega_by_direction[sites[bond_row], c]
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
    by_size = np.argsort(size, kind="stable")  # hole ids by size
    sizes, count = np.unique(size, return_counts=True)
    ends = zip(np.cumsum(count).tolist(), np.cumsum(sizes * count).tolist())
    for m, k, (hole_end, end) in zip(sizes.tolist(), count.tolist(), ends):
        group, start = by_size[hole_end - k : hole_end], end - k * m
        members = sites[start:end].reshape(k, m)
        if m >= _DENSE_SITES:
            for j, h in enumerate(group.tolist()):
                lo = start + j * m
                inner, rim = (slice(*np.searchsorted(a, [lo, lo + m])) for a in (row, rim_row))
                local = (row[inner] - lo, col[inner] - lo, w[inner], rim_row[rim] - lo, rim_col[rim], rim_w[rim])
                order, X = _banded_hitting(env.pi_all[members[j]], *local, holes[h])
                at = indptr[members[j][order]][:, None] + np.arange(width[h], dtype=indptr.dtype)
                data[at] = X
                indices[at] = bdry[bfirst[h] : bfirst[h] + width[h]]
            continue
        inner, rim = slice(*np.searchsorted(row, [start, end])), slice(*np.searchsorted(rim_row, [start, end]))
        A = np.zeros((k, m, m))
        slot, pos = np.divmod(row[inner] - start, m)  # the hole's place in the group, the site's in the hole
        A[slot, pos, (col[inner] - start) % m] = -w[inner]
        A[:, np.arange(m), np.arange(m)] = env.pi_all[members]
        cols = np.arange(width[group].max())
        B = np.zeros((k, m, len(cols)))
        slot, pos = np.divmod(rim_row[rim] - start, m)
        B[slot, pos, rim_col[rim]] = rim_w[rim]
        H = np.linalg.solve(A, B)
        del A, B  # the largest hole's system is the peak of the pass; the scatter need not add to it
        keep = np.broadcast_to(cols < width[group][:, None, None], H.shape)
        at = (indptr[members][:, :, None] + cols)[keep]
        data[at] = H[keep]
        indices[at] = bdry[np.broadcast_to(bfirst[group][:, None, None] + cols, H.shape)[keep]]
    return csr_matrix((data, indices, indptr), shape=(n, n))


def _banded_hitting(pi, row, col, w, rim_row, rim_col, rim_w, hole: Hole) -> tuple[np.ndarray, np.ndarray]:
    """One hole's hitting law as a banded SPD solve: ``(order, X)``, ``X[i]`` the law of local site ``order[i]``.

    ``row``/``col``/``w`` are the hole's bonds and ``rim_*`` its rim bonds, in local site numbers.  Reverse
    Cuthill-McKee orders the sites to a narrow band (7-20 wide on the holes of ``N = 241`` boxes), then
    ``solveh_banded`` (LAPACK ``pbsv``, whose blocked calls stay under OpenBLAS's threading thresholds)
    factors it: ``diag(pi) - W`` on a connected hole with rim conductance is irreducibly diagonally
    dominant, hence positive definite.  About ``8 m (kd + 1 + nb)`` bytes for bandwidth ``kd``.
    """
    m = len(pi)
    order = reverse_cuthill_mckee(csr_matrix((w, (row, col)), shape=(m, m)), symmetric_mode=True)
    new = np.empty(m, dtype=np.int64)
    new[order] = np.arange(m)
    row, col = new[row], new[col]
    low = row > col
    ab = np.zeros((int((row - col).max()) + 1, m), order="F")  # ab[i - j, j] = A[i, j], the lower band
    ab[0] = pi[order]
    ab[(row - col)[low], col[low]] = -w[low]
    B = np.zeros((m, len(hole.boundary)), order="F")
    B[new[rim_row], rim_col] = rim_w
    try:
        return order, solveh_banded(ab, B, overwrite_ab=True, overwrite_b=True, lower=True)
    except LinAlgError as exc:
        raise NumericalError(f"hole of {m} sites at anchor {hole.anchor}: banded Cholesky failed ({exc})") from exc


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
    C order over (site, axis) is the bond order; each hole's sites and
    boundary are slices of two flat arrays sorted by hole.
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
        far = geom.neighbor_table[:, 1::2]
        near_off, far_off = complement[:, None] & (plus > 0), complement[far] & (plus > 0)
        hole_comp = _components(n, *np.nonzero(near_off & far_off), geom.strides)

        comp_sites = np.flatnonzero(complement)  # ascending
        _, first, raw_ids = np.unique(hole_comp[comp_sites], return_index=True, return_inverse=True)
        labels[comp_sites] = np.argsort(np.argsort(first, kind="stable"))[raw_ids]  # rank by smallest site
        members = comp_sites[np.argsort(labels[comp_sites], kind="stable")]
        site_end = np.cumsum(np.bincount(labels[comp_sites]))

        # outer boundaries: the cluster ends of the bonds between a hole and the cluster, sorted by (hole, site)
        u, axis = np.nonzero(near_off != far_off)
        v = far[u, axis]
        hole_end = np.where(complement[u], u, v)
        bdry_hole, bdry = np.divmod(np.unique(labels[hole_end] * n + (u + v - hole_end)), n)
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
    are formatted as bytes a block of sites at a time, with no text-layer
    encode.
    """
    geom = decomp.env.geometry
    coords = geom.all_coords
    row = b",".join([b"%d"] * (geom.d + 2)) + b"\r\n"
    with open(path, "wb") as fh:
        fh.write(",".join(["site_index"] + [f"x_{i + 1}" for i in range(geom.d)] + ["label"]).encode() + b"\r\n")
        for start in range(0, geom.n_sites, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, geom.n_sites)
            block = np.column_stack(
                [np.arange(start, stop), coords[start:stop], decomp.labels[start:stop]]
            )
            fh.write(row * (stop - start) % tuple(block.ravel().tolist()))
