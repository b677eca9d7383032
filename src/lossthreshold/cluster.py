"""Finite spin clusters and exact evaluation of their Boltzmann factors.

A cluster is a small graph with boundary vertices (spins pinned to +1) and
internal vertices (spins summed over). Single-layer clusters carry one Ising
spin per vertex; two-layer clusters have vertices on a primal and a dual
sublattice, and each disorder slot couples one primal edge, one dual edge and
their four-body product.

The principal Boltzmann factor x_0 of a cluster is the partition sum over
internal spin configurations with everything on the boundary held at +1.
Evaluation is log-domain throughout, so large couplings never overflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import EdgeDisorder

ROLES = ("internal", "boundary")
LAYERS = ("primal", "dual")

# 2**24 configurations is the largest exact internal sum we are willing to do.
MAX_INTERNAL_SPINS = 24

# Internal-spin configurations are processed in blocks of this many, so a
# 24-spin cluster never holds the cells of all 2**24 configurations at once.
CONFIG_BLOCK = 1 << 14

DisorderAssignment = tuple[EdgeDisorder, ...]


class UnknownCluster(ValueError):
    """Requested cluster name is not registered."""


class ShapeMismatch(ValueError):
    """Disorder assignment does not match the cluster's slot structure."""


class NonFinite(ArithmeticError):
    """A cluster factor evaluated to inf or nan."""


class ClusterFileError(ValueError):
    """A cluster description file is malformed."""


@dataclass(frozen=True)
class Vertex:
    id: str
    role: str
    layer: str = "primal"

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise ClusterFileError(f"vertex id must be a nonempty string, got {self.id!r}")
        if self.role not in ROLES:
            raise ClusterFileError(f"vertex {self.id!r}: role must be one of {ROLES}, got {self.role!r}")
        if self.layer not in LAYERS:
            raise ClusterFileError(f"vertex {self.id!r}: layer must be one of {LAYERS}, got {self.layer!r}")


@dataclass(frozen=True)
class Slot:
    """One disorder slot: a primal edge, plus the crossing dual edge on two-layer clusters."""

    primal_edge: tuple[str, str]
    dual_edge: tuple[str, str] | None = None

    def __post_init__(self):
        for edge in (self.primal_edge, self.dual_edge):
            if edge is None:
                continue
            if len(edge) != 2 or edge[0] == edge[1]:
                raise ClusterFileError(f"edge {edge!r} must join two distinct vertices")


@dataclass(frozen=True)
class ClusterSpec:
    name: str
    layers: int
    vertices: tuple[Vertex, ...]
    slots: tuple[Slot, ...]

    def __post_init__(self):
        if not self.name:
            raise ClusterFileError("cluster name must be nonempty")
        if self.layers not in (1, 2):
            raise ClusterFileError(f"layers must be 1 or 2, got {self.layers}")
        if not self.slots:
            raise ClusterFileError("cluster must have at least one slot")
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise ClusterFileError("vertex ids must be distinct")
        by_layer = {v.id: v.layer for v in self.vertices}
        for slot in self.slots:
            if self.layers == 1 and slot.dual_edge is not None:
                raise ClusterFileError("single-layer cluster cannot carry dual edges")
            if self.layers == 2 and slot.dual_edge is None:
                raise ClusterFileError("two-layer cluster slots need a dual edge")
            for edge, layer in ((slot.primal_edge, "primal"), (slot.dual_edge, "dual")):
                if edge is None:
                    continue
                for vid in edge:
                    if vid not in by_layer:
                        raise ClusterFileError(f"edge {edge!r} references unknown vertex {vid!r}")
                    if by_layer[vid] != layer:
                        raise ClusterFileError(f"edge {edge!r} must lie on the {layer} layer")
        if self.layers == 1 and any(v.layer != "primal" for v in self.vertices):
            raise ClusterFileError("single-layer cluster must reference only primal vertices")
        n_int = len(self.internal_ids)
        if n_int > MAX_INTERNAL_SPINS:
            raise ClusterFileError(f"{n_int} internal spins exceed the cap of {MAX_INTERNAL_SPINS}")

    @property
    def internal_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices if v.role == "internal")

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    @property
    def config_count(self) -> int:
        return 1 << len(self.internal_ids)


def slot_cells(cluster: ClusterSpec, start: int, stop: int) -> np.ndarray:
    """int8 cell of every slot in internal configurations [start, stop), shape (stop - start, S).

    Configuration c gives the b-th internal vertex the bit (c >> b) & 1, that
    is spin 1 - 2 bit, and every boundary vertex bit 0. A slot's cell is the
    XOR of its primal edge's end bits; on two layers it is twice that plus
    the XOR of its dual edge's, the component order of
    `duality.edge_factor`.
    """
    bit = {vid: b for b, vid in enumerate(cluster.internal_ids)}
    configs = np.arange(start, stop, dtype=np.int64)[:, None]

    def parity(edges) -> np.ndarray:
        # bit 63 of a configuration is 0, as a boundary spin's bit is
        first, second = (np.array([bit.get(vid, 63) for vid in ends]) for ends in zip(*edges))
        return ((configs >> first) ^ (configs >> second)) & 1

    cell = parity([slot.primal_edge for slot in cluster.slots])
    if cluster.layers == 2:
        cell = 2 * cell + parity([slot.dual_edge for slot in cluster.slots])
    return cell.astype(np.int8)


def signs_array(disorder: DisorderAssignment, layers: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate one assignment against a slot count and unpack it to int arrays."""
    tau = np.array([d.sign for d in disorder], dtype=np.int8)
    if layers == 1:
        if any(d.layers != 1 for d in disorder):
            raise ShapeMismatch("single-layer cluster needs single-layer disorder")
        return tau, None
    if any(d.layers != 2 for d in disorder):
        raise ShapeMismatch("two-layer cluster needs two-layer disorder")
    tau_star = np.array([d.dual_sign for d in disorder], dtype=np.int8)
    return tau, tau_star


def log_partition_batch(
    cluster: ClusterSpec,
    tau: np.ndarray,
    tau_star: np.ndarray | None,
    K: float,
) -> np.ndarray:
    """ln x_0 for a batch of disorder assignments given as sign rows.

    tau (and tau_star for two-layer clusters) has shape (n, S) with entries in
    {+1, -1, 0}; returns shape (n,). Boundary spins are +1, internal spins are
    summed exactly, CONFIG_BLOCK configurations at a time. A diluted slot
    (sign 0) drops out of the energy, which is exactly the weight-1
    convention.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if cluster.layers == 2:
        tau_star = np.asarray(tau_star, dtype=np.float64)
        cross = tau * tau_star
    # a running log-sum-exp: the largest term so far and the sum scaled by it
    maxlog, scaled = np.full(tau.shape[0], -np.inf), np.zeros(tau.shape[0])
    total = cluster.config_count
    for start in range(0, total, CONFIG_BLOCK):
        cell = slot_cells(cluster, start, min(start + CONFIG_BLOCK, total))
        P = 1.0 - 2.0 * (cell >> (cluster.layers - 1))
        if cluster.layers == 1:
            energy = tau @ P.T
        else:
            D = 1.0 - 2.0 * (cell & 1)
            energy = tau @ P.T + tau_star @ D.T + cross @ (P * D).T
        logmag = K * energy
        newmax = np.maximum(maxlog, np.max(logmag, axis=-1))
        # rows that are still all -inf rescale by exp(-inf - 0) = 0, never nan
        safe = np.where(np.isfinite(newmax), newmax, 0.0)
        scaled = scaled * np.exp(maxlog - safe) + np.exp(logmag - safe[:, None]).sum(axis=-1)
        maxlog = newmax
    with np.errstate(divide="ignore"):
        return maxlog + np.log(scaled)


def cluster_partition(cluster: ClusterSpec, disorder: DisorderAssignment, K: float) -> float:
    """Principal Boltzmann factor ln x_0 of the cluster under one disorder assignment.

    Raises ShapeMismatch when the assignment does not fit the cluster and
    NonFinite, before summing, for a K that is not finite, and when the
    log-sum-exp escapes the representable range.
    """
    if len(disorder) != cluster.slot_count:
        raise ShapeMismatch(
            f"cluster {cluster.name!r} has {cluster.slot_count} slots, got {len(disorder)} disorder entries"
        )
    tau, tau_star = signs_array(disorder, cluster.layers)
    if not np.isfinite(K):
        raise NonFinite(f"cluster partition of {cluster.name!r} is not finite (K={K})")
    value = float(
        log_partition_batch(
            cluster, tau[None, :], None if tau_star is None else tau_star[None, :], K
        )[0]
    )
    if not np.isfinite(value):
        raise NonFinite(f"cluster partition of {cluster.name!r} is not finite (K={K})")
    return value


def gauge_orbit_check(
    cluster: ClusterSpec, disorder: DisorderAssignment, K: float, tol: float = 1e-12
) -> bool:
    """True iff ln x_0 is invariant under gauge flips at every internal vertex.

    Flipping one internal spin together with the signs of all non-diluted
    couplings on its incident edges is an exact symmetry of the partition sum,
    so any violation beyond roundoff signals an evaluation bug. Single-layer
    clusters only; vacuously true when there are no internal vertices.
    """
    if cluster.layers != 1:
        raise ShapeMismatch("gauge check applies to single-layer clusters")
    base = cluster_partition(cluster, disorder, K)
    for vid in cluster.internal_ids:
        flipped = []
        for slot, d in zip(cluster.slots, disorder):
            if vid in slot.primal_edge and not d.diluted:
                flipped.append(EdgeDisorder(-d.sign))
            else:
                flipped.append(d)
        if abs(cluster_partition(cluster, tuple(flipped), K) - base) > tol:
            return False
    return True


def _single_layer(name: str, internal: list[str], edges: list[tuple[str, str]]) -> ClusterSpec:
    seen = dict.fromkeys(v for e in edges for v in e)
    vertices = tuple(
        Vertex(v, "internal" if v in internal else "boundary", "primal") for v in seen
    )
    return ClusterSpec(name, 1, vertices, tuple(Slot(e) for e in edges))


def _two_layer(
    name: str,
    internal: list[str],
    slots: list[tuple[tuple[str, str], tuple[str, str]]],
) -> ClusterSpec:
    primal = dict.fromkeys(v for pe, _ in slots for v in pe)
    dual = dict.fromkeys(v for _, de in slots for v in de)
    vertices = tuple(
        Vertex(v, "internal" if v in internal else "boundary", "primal") for v in primal
    ) + tuple(Vertex(v, "internal" if v in internal else "boundary", "dual") for v in dual)
    return ClusterSpec(name, 2, vertices, tuple(Slot(pe, de) for pe, de in slots))


# Registered geometries. "single" and "C" are the one-unit clusters; "A" is the
# four-edge star around one summed site. "B" takes every edge incident to a
# 2x2 block of summed sites; "D" is the four crossing slots around one summed
# site (their dual edges close the surrounding cycle); "E" is the seven
# crossing slots around two adjacent summed sites (dual edges form the theta
# graph of the six surrounding faces). B, D and E shapes were fixed by
# calibration against the reference threshold columns; see CALIBRATION below.
_BUILTINS: dict[str, ClusterSpec] = {
    "single": _single_layer("single", [], [("u", "v")]),
    "A": _single_layer("A", ["c"], [("c", "b1"), ("c", "b2"), ("c", "b3"), ("c", "b4")]),
    "B": _single_layer(
        "B",
        ["i1", "i2", "i3", "i4"],
        [
            ("i1", "i2"),
            ("i2", "i3"),
            ("i3", "i4"),
            ("i4", "i1"),
            ("i1", "b1"),
            ("i1", "b2"),
            ("i2", "b3"),
            ("i2", "b4"),
            ("i3", "b5"),
            ("i3", "b6"),
            ("i4", "b7"),
            ("i4", "b8"),
        ],
    ),
    "C": _two_layer("C", [], [(("u1", "u2"), ("v1", "v2"))]),
    "D": _two_layer(
        "D",
        ["c"],
        [
            (("c", "p1"), ("d1", "d2")),
            (("c", "p2"), ("d2", "d3")),
            (("c", "p3"), ("d3", "d4")),
            (("c", "p4"), ("d4", "d1")),
        ],
    ),
    "E": _two_layer(
        "E",
        ["i1", "i2"],
        [
            (("i1", "i2"), ("ne", "se")),
            (("i1", "n1"), ("nw", "ne")),
            (("i1", "w1"), ("nw", "sw")),
            (("i1", "s1"), ("sw", "se")),
            (("i2", "n2"), ("ne", "ne2")),
            (("i2", "e2"), ("ne2", "se2")),
            (("i2", "s2"), ("se", "se2")),
        ],
    ),
}

# verified: reproduces its reference threshold column within 5e-4 at every q.
CALIBRATION: dict[str, str] = {
    "single": "verified",
    "A": "verified",
    "B": "verified",
    "C": "verified",
    "D": "verified",
    "E": "verified",
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin_cluster(name: str) -> ClusterSpec:
    """Look up a registered cluster geometry by name (case-insensitive)."""
    key = name.strip()
    matches = [k for k in _BUILTINS if k.lower() == key.lower()]
    if not matches:
        raise UnknownCluster(f"unknown cluster {name!r}; registered: {', '.join(_BUILTINS)}")
    return _BUILTINS[matches[0]]


def calibration_status(name: str) -> str:
    key = name.strip()
    matches = [k for k in CALIBRATION if k.lower() == key.lower()]
    if not matches:
        raise UnknownCluster(f"unknown cluster {name!r}")
    return CALIBRATION[matches[0]]


def cluster_to_dict(cluster: ClusterSpec) -> dict:
    """Schema form of a cluster, inverse of cluster_from_dict."""
    return {
        "name": cluster.name,
        "layers": cluster.layers,
        "vertices": [{"id": v.id, "role": v.role, "layer": v.layer} for v in cluster.vertices],
        "slots": [
            {
                "primal_edge": list(s.primal_edge),
                "dual_edge": None if s.dual_edge is None else list(s.dual_edge),
            }
            for s in cluster.slots
        ],
    }


def _name(value, what: str) -> str:
    """A vertex id or cluster name of a cluster description: a JSON string, never converted."""
    if not isinstance(value, str):
        raise ClusterFileError(f"{what} {value!r} must be a string")
    return value


def _edge(value) -> tuple[str, ...]:
    """An edge of a cluster description: a JSON list of vertex ids, never a string."""
    if not isinstance(value, list):
        raise ClusterFileError(f"edge {value!r} must be a list of two vertex ids")
    return tuple(_name(x, "edge end") for x in value)


def cluster_from_dict(data: dict) -> ClusterSpec:
    """Build a ClusterSpec from its schema dict, validating everything."""
    if not isinstance(data, dict):
        raise ClusterFileError("cluster description must be a JSON object")
    missing = {"name", "layers", "vertices", "slots"} - set(data)
    if missing:
        raise ClusterFileError(f"cluster description missing fields: {sorted(missing)}")
    try:
        vertices = tuple(
            Vertex(_name(v["id"], "vertex id"), str(v["role"]), str(v.get("layer", "primal")))
            for v in data["vertices"]
        )
        slots = []
        for s in data["slots"]:
            de = s.get("dual_edge")
            slots.append(Slot(_edge(s["primal_edge"]), None if de is None else _edge(de)))
        layers = data["layers"]
        if not isinstance(layers, int) or isinstance(layers, bool):
            raise ClusterFileError(f"layers must be an integer, got {layers!r}")
        return ClusterSpec(_name(data["name"], "cluster name"), layers, vertices, tuple(slots))
    except ClusterFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ClusterFileError(f"malformed cluster description: {exc}") from exc


def load_cluster_file(path: str) -> ClusterSpec:
    """Read a cluster description from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ClusterFileError(f"cannot read cluster file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ClusterFileError(f"cluster file {path} is not valid JSON: {exc}") from exc
    return cluster_from_dict(data)
