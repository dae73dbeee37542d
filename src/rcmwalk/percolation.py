"""Strong-cluster extraction and hole bookkeeping.

Thresholding the conductances at ``xi`` splits the box into the largest
connected component of the strong-bond graph (the finite-box surrogate of
the infinite cluster) and *holes*: grid-connected components of the
remaining sites.  Each hole records its volume, its outer boundary inside
the strong cluster, and a fixed anchor site on that boundary.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import EmptyClusterError, ValidationError
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
    _hitting_cache: dict = field(default_factory=dict, repr=False)

    @property
    def in_cluster(self) -> np.ndarray:
        return self.labels == STRONG_LABEL

    @property
    def cluster_size(self) -> int:
        return int(self.in_cluster.sum())


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
    if len(volumes) == 0:
        zeros = np.zeros(len(n_values), dtype=np.int64)
        return HoleVolumeReport(0, {}, n_values, zeros, bound, np.array([], dtype=np.int64))

    # smallest sub-box radius each hole intersects
    linf = geom.linf_norm
    reach = np.array([int(linf[h.sites].min()) for h in decomp.holes], dtype=np.int64)
    # running max volume over holes with reach <= n
    order = np.argsort(reach, kind="stable")
    max_by_n = np.zeros(len(n_values), dtype=np.int64)
    running = 0
    ptr = 0
    for k, n in enumerate(n_values):
        while ptr < len(order) and reach[order[ptr]] <= n:
            running = max(running, int(volumes[order[ptr]]))
            ptr += 1
        max_by_n[k] = running

    hist: dict[int, int] = {}
    for vol in volumes:
        hist[int(vol)] = hist.get(int(vol), 0) + 1
    flagged = n_values[max_by_n > bound]
    return HoleVolumeReport(int(volumes.max()), hist, n_values, max_by_n, bound, flagged)


def percolation_density_warning(d: int, p: float) -> str | None:
    """Sanity note when the requested strong-bond density is subcritical."""
    pc = P_CRITICAL.get(d)
    if pc is not None and p <= pc:
        return f"strong-bond density {p} is at or below the d={d} percolation threshold {pc}"
    return None


def write_decomposition_csv(decomp: ClusterDecomposition, path) -> None:
    """Export per-site labels: site_index, x_1..x_d, label (-1 = strong cluster)."""
    geom = decomp.env.geometry
    coords = geom.all_coords
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_index"] + [f"x_{i + 1}" for i in range(geom.d)] + ["label"])
        for s in range(geom.n_sites):
            writer.writerow([s] + [int(c) for c in coords[s]] + [int(decomp.labels[s])])

