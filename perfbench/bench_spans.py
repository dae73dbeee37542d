"""Spans around the calls into each rcmwalk module, recorded from outside.

The traced run rebinds every public function of the package modules, in every
module namespace that imported it, so calls made inside a module through its
own globals are caught too.  The cached table properties of ``BoxGeometry``
and ``Environment`` get their own spans because on large boxes they cost more
than the work that asks for them.  Nothing in the package is edited: the
rebinding is undone when the traced run ends.

A span records its name, layer, start, end, parent and a few counters.  A
layer's self time is the sum over its spans of the duration minus the part
covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

# Package module -> layer.  The CLI is reported together with experiments.
LAYERS = {
    "rcmwalk.lattice": "lattice",
    "rcmwalk.percolation": "percolation",
    "rcmwalk.walk": "walk",
    "rcmwalk.heatkernel": "heatkernel",
    "rcmwalk.spectral": "spectral",
    "rcmwalk.experiments": "experiments",
    "rcmwalk.cli": "experiments",
}
LAYER_NAMES = ("lattice", "percolation", "walk", "heatkernel", "spectral", "experiments")

# Library functions the package imports by name, counted where they are called.
FOREIGN = {"splu": "factorization"}

# Hole solves above this size took the conjugate-gradient branch at the seed
# commit; the count is an input-shape figure and stays meaningful without it.
HOLE_CG_SITES = 512


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out = {name: 0.0 for name in LAYER_NAMES}
    for s, own in zip(spans, self_times(spans)):
        out[s.layer] = out.get(s.layer, 0.0) + own
    return out


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self, hooks: dict | None = None):
        self.hooks = hooks or {}
        self.spans: list[Span] = []
        self.hook_errors: set[str] = set()
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    def _timed(self, fn, name: str, layer: str, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._exit(index)
            if hook is not None:
                try:
                    span.counts.update(hook(fn, args, kwargs, result))
                except Exception as exc:  # a counter must never break the traced program
                    self.hook_errors.add(f"{name}: {exc!r}")
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the package's public functions and cached tables; see the module doc."""
        modules = {name: m for name, m in sys.modules.items() if name == "rcmwalk" or name.startswith("rcmwalk.")}
        wrapped: dict[int, object] = {}
        for modname, layer in LAYERS.items():
            module = modules.get(modname)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = self._timed(obj, name, layer, self.hooks.get(name))
            for attr, kind in FOREIGN.items():
                obj = vars(module).get(attr)
                if obj is not None and id(obj) not in wrapped:
                    self._rebind(module, attr, self._timed(obj, f"{layer}.{kind}", layer))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._rebind(module, attr, wrapped[id(obj)])
        lattice = modules.get("rcmwalk.lattice")
        for cls_name in ("BoxGeometry", "Environment"):
            cls = getattr(lattice, cls_name, None)
            for attr, obj in list(vars(cls).items()) if cls is not None else ():
                if isinstance(obj, functools.cached_property):
                    prop = functools.cached_property(self._timed(obj.func, f"lattice.table.{attr}", "lattice"))
                    prop.__set_name__(cls, attr)
                    self._rebind(cls, attr, prop)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# counters taken from arguments and results, after each call
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs):
    ba = _signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def make_hooks(poisson_truncation_k) -> dict:
    """Counters per wrapped function, keyed by span name.

    ``poisson_truncation_k`` is the untraced library function, so counting
    adds no spans of its own.
    """

    def assembly(fn, args, kwargs, chain):
        P = getattr(chain, "P", None)
        if P is None:
            return {}
        return {
            "nnz": int(P.nnz),
            "n": int(P.shape[0]),
            "matrix_bytes": int(P.data.nbytes + P.indices.nbytes + P.indptr.nbytes),
        }

    def curve(fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        return {"matvecs": poisson_truncation_k(float(max(result.t)), a["tol"])}

    def fk_uniformization(fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        t = float(a["t"])
        if t == 0:
            return {"matvecs": 0}
        return {"matvecs": poisson_truncation_k((1.0 + a["spec"].lam) * t, a["tol"])}

    def ensemble(fn, args, kwargs, result):
        return {"jumps": int(result.n_jumps.sum())}

    def eigen(fn, args, kwargs, report):
        return {"solves": int(report.iterations)}

    def cluster(fn, args, kwargs, decomp):
        volumes = [h.volume for h in decomp.holes]
        # the reference keeps the decomposition alive, so its id names it for the whole run
        return {"holes": len(volumes), "hole_sites_max": max(volumes, default=0), "decomp": decomp}

    def hole(fn, args, kwargs, result):
        # called once per query, so it only notes the query; layer_metrics finds the holes
        if len(args) == 3:
            return {"hole_query": (id(args[1]), int(args[2]))}
        a = _bound(fn, args, kwargs)
        return {"hole_query": (id(a["decomp"]), int(a["x"]))}

    def file_size(key):
        def hook(fn, args, kwargs, result):
            return {key: _file_bytes(_bound(fn, args, kwargs)["path"])}

        return hook

    def manifest_written(fn, args, kwargs, path):
        return {"output_bytes": _file_bytes(path)}

    return {
        "walk.transition_matrix": assembly,
        "heatkernel.return_prob_curve_exact": curve,
        "spectral.feynman_kac_uniformization": fk_uniformization,
        "walk.ensemble_walk": ensemble,
        "spectral.lambda1": eigen,
        "percolation.strong_cluster": cluster,
        "walk.effective_conductances": hole,
        "lattice.save_environment": file_size("io_bytes"),
        "lattice.load_environment": file_size("io_bytes"),
        "experiments.write_csv": file_size("output_bytes"),
        "experiments.write_manifest": manifest_written,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run
# ---------------------------------------------------------------------------


def _outermost(spans: list[Span], names) -> list[Span]:
    """Spans with one of ``names`` that have no ancestor with one of them."""
    picked = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            picked.append(s)
    return picked


def _inclusive(spans, names) -> float:
    return sum(s.duration for s in _outermost(spans, names))


def _count(spans, names, key) -> float:
    return sum(s.counts.get(key, 0) for s in spans if s.name in names)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric of the benchmark from the spans of one traced run."""
    own = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": t for layer, t in layer_self_times(spans).items()}

    tables = [i for i, s in enumerate(spans) if s.name.startswith("lattice.table.")]
    m["lattice.tables_s"] = sum(own[i] for i in tables)
    m["lattice.table_builds"] = len(tables)
    m["lattice.sample_s"] = _inclusive(spans, {"lattice.sample_environment"})
    m["lattice.save_s"] = _inclusive(spans, {"lattice.save_environment"})
    m["lattice.load_s"] = _inclusive(spans, {"lattice.load_environment"})
    m["lattice.io_bytes"] = _count(spans, {"lattice.save_environment", "lattice.load_environment"}, "io_bytes")

    clusters = [s for s in spans if s.name == "percolation.strong_cluster"]
    m["percolation.cluster_s"] = _inclusive(spans, {"percolation.strong_cluster"})
    m["percolation.holes"] = sum(s.counts.get("holes", 0) for s in clusters)
    m["percolation.hole_sites_max"] = max((s.counts.get("hole_sites_max", 0) for s in clusters), default=0)
    m["percolation.csv_s"] = _inclusive(spans, {"percolation.write_decomposition_csv"})

    assembly = [i for i, s in enumerate(spans) if s.name == "walk.transition_matrix"]
    m["walk.assembly_s"] = sum(own[i] for i in assembly)
    m["walk.assembly_nnz"] = sum(spans[i].counts.get("nnz", 0) for i in assembly)
    m["walk.ensemble_s"] = _inclusive(spans, {"walk.ensemble_walk"})
    m["walk.jumps"] = _count(spans, {"walk.ensemble_walk"}, "jumps")
    m["walk.jumps_per_s"] = m["walk.jumps"] / m["walk.ensemble_s"] if m["walk.ensemble_s"] > 0 else 0.0
    m["walk.hole_s"] = _inclusive(spans, {"walk.effective_conductances", "walk.effective_conductance_matrix"})
    # a query at x needs the hitting law of every hole next to x, solved once per decomposition
    decomps = {id(s.counts["decomp"]): s.counts["decomp"] for s in clusters if "decomp" in s.counts}
    solved: set[tuple[int, int]] = set()
    for s in spans:
        key, x = s.counts.get("hole_query", (None, None))
        if key in decomps:
            neigh = decomps[key].env.geometry.neighbor_table[x]
            labels = decomps[key].labels[neigh[neigh >= 0]]
            solved.update((key, int(lab)) for lab in labels[labels >= 0])
    volumes = [decomps[key].holes[lab].volume for key, lab in solved]
    m["walk.hole_solves"] = len(volumes)
    m["walk.hole_sites"] = sum(volumes)
    m["walk.hole_cg"] = sum(1 for v in volumes if v > HOLE_CG_SITES)

    curves = [i for i, s in enumerate(spans) if s.name == "heatkernel.return_prob_curve_exact"]
    curve_s = 0.0
    stream_bytes = []
    for i in curves:
        inner = [j for j in _descendants(spans, i) if spans[j].name == "walk.transition_matrix"]
        curve_s += spans[i].duration - sum(spans[j].duration for j in inner)
        for j in inner:
            c = spans[j].counts
            if "matrix_bytes" in c:
                # computed, not measured: the CSR arrays once, plus reading x and writing y
                stream_bytes.append(c["matrix_bytes"] + 16 * c["n"])
    m["heatkernel.curve_s"] = curve_s
    m["heatkernel.matvecs"] = _count(spans, {"heatkernel.return_prob_curve_exact"}, "matvecs")
    m["heatkernel.matvec_us"] = 1e6 * curve_s / m["heatkernel.matvecs"] if m["heatkernel.matvecs"] else 0.0
    m["heatkernel.bytes_per_matvec"] = sum(stream_bytes) / len(stream_bytes) if stream_bytes else 0.0

    m["spectral.eig_s"] = _inclusive(spans, {"spectral.lambda1"})
    m["spectral.eigensolves"] = sum(1 for s in spans if s.name == "spectral.lambda1")
    m["spectral.factorizations"] = sum(1 for s in spans if s.name == "spectral.factorization")
    m["spectral.solves"] = _count(spans, {"spectral.lambda1"}, "solves")
    fk = {n for n in {s.name for s in spans} if n.startswith("spectral.feynman_kac")}
    m["spectral.fk_s"] = _inclusive(spans, fk)
    m["spectral.fk_matvecs"] = _count(spans, fk, "matvecs")

    report = {"experiments.write_csv", "experiments.write_manifest"}
    m["experiments.report_s"] = _inclusive(spans, report)
    m["experiments.output_bytes"] = _count(spans, report, "output_bytes")
    return m


def _descendants(spans: list[Span], index: int) -> list[int]:
    """Spans are stored in the order they open, so a subtree is contiguous."""
    out = []
    for j in range(index + 1, len(spans)):
        p = spans[j].parent
        while p is not None and p > index:
            p = spans[p].parent
        if p != index:
            break
        out.append(j)
    return out
