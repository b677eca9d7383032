"""Cluster geometries, their validation, and exact Boltzmann factors."""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest

from lossthreshold.cluster import (
    MAX_INTERNAL_SPINS,
    ClusterFileError,
    ClusterSpec,
    ShapeMismatch,
    Slot,
    UnknownCluster,
    Vertex,
    builtin_cluster,
    builtin_names,
    calibration_status,
    cluster_from_dict,
    cluster_partition,
    cluster_to_dict,
    gauge_orbit_check,
    load_cluster_file,
)
from lossthreshold.model import EdgeDisorder


def _line_cluster(n_edges: int) -> ClusterSpec:
    vertices = [Vertex("v0", "boundary")]
    vertices += [Vertex(f"v{i}", "internal") for i in range(1, n_edges)]
    vertices.append(Vertex(f"v{n_edges}", "boundary"))
    slots = tuple(Slot((f"v{i}", f"v{i + 1}")) for i in range(n_edges))
    return ClusterSpec("line", 1, tuple(vertices), slots)


def test_builtin_names():
    assert builtin_names() == ("single", "A", "B", "C", "D", "E")


@pytest.mark.parametrize(
    "name,layers,slots,internal",
    [
        ("single", 1, 1, 0),
        ("A", 1, 4, 1),
        ("B", 1, 12, 4),
        ("C", 2, 1, 0),
        ("D", 2, 4, 1),
        ("E", 2, 7, 2),
    ],
)
def test_builtin_geometry(name, layers, slots, internal):
    spec = builtin_cluster(name)
    assert spec.layers == layers
    assert spec.slot_count == slots
    assert len(spec.internal_ids) == internal
    assert spec.config_count == 2**internal
    assert calibration_status(name) == "verified"


def test_builtin_lookup_is_case_insensitive():
    assert builtin_cluster("a") is builtin_cluster("A")
    assert builtin_cluster(" Single ").name == "single"


def test_unknown_cluster():
    with pytest.raises(UnknownCluster):
        builtin_cluster("Z")
    with pytest.raises(UnknownCluster):
        calibration_status("Z")


def test_validation_rejects_duplicate_vertices():
    with pytest.raises(ClusterFileError):
        ClusterSpec(
            "bad",
            1,
            (Vertex("u", "boundary"), Vertex("u", "boundary")),
            (Slot(("u", "u")),),
        )


def test_validation_rejects_self_loops():
    with pytest.raises(ClusterFileError):
        Slot(("u", "u"))


def test_validation_rejects_unknown_edge_vertex():
    with pytest.raises(ClusterFileError):
        ClusterSpec("bad", 1, (Vertex("u", "boundary"), Vertex("v", "boundary")), (Slot(("u", "w")),))


def test_validation_layer_congruence():
    vs = (Vertex("u", "boundary"), Vertex("v", "boundary"))
    with pytest.raises(ClusterFileError):
        ClusterSpec("bad", 1, vs, (Slot(("u", "v"), ("u", "v")),))
    with pytest.raises(ClusterFileError):
        ClusterSpec("bad", 2, vs, (Slot(("u", "v")),))
    # dual edge must reference dual-layer vertices
    with pytest.raises(ClusterFileError):
        ClusterSpec(
            "bad",
            2,
            (Vertex("u", "boundary"), Vertex("v", "boundary"), Vertex("w", "boundary", "dual")),
            (Slot(("u", "v"), ("u", "w")),),
        )


def test_validation_requires_slots_and_known_roles():
    with pytest.raises(ClusterFileError):
        ClusterSpec("bad", 1, (Vertex("u", "boundary"),), ())
    with pytest.raises(ClusterFileError):
        Vertex("u", "pinned")
    with pytest.raises(ClusterFileError):
        Vertex("u", "boundary", "middle")


def test_validation_internal_spin_cap():
    largest = _line_cluster(MAX_INTERNAL_SPINS + 1)
    assert largest.config_count == 2**MAX_INTERNAL_SPINS
    with pytest.raises(ClusterFileError):
        _line_cluster(MAX_INTERNAL_SPINS + 2)


def test_single_edge_partition_is_coupling():
    spec = builtin_cluster("single")
    K = 0.73
    assert cluster_partition(spec, (EdgeDisorder(1),), K) == pytest.approx(K, rel=1e-15)
    assert cluster_partition(spec, (EdgeDisorder(-1),), K) == pytest.approx(-K, rel=1e-15)
    assert cluster_partition(spec, (EdgeDisorder(0),), K) == 0.0


@pytest.mark.parametrize(
    "signs,expected",
    [
        ((1, 1, 1, 1), lambda K: math.log(2.0 * math.cosh(4.0 * K))),
        ((-1, 1, 1, 1), lambda K: math.log(2.0 * math.cosh(2.0 * K))),
        ((0, 1, 1, 1), lambda K: math.log(2.0 * math.cosh(3.0 * K))),
        ((0, 0, 0, 0), lambda K: math.log(2.0)),
    ],
)
def test_star_partition_anchors(signs, expected):
    spec = builtin_cluster("A")
    K = 0.44
    got = cluster_partition(spec, tuple(EdgeDisorder(s) for s in signs), K)
    assert got == pytest.approx(expected(K), rel=1e-14)


def test_crossing_partition_anchors():
    spec = builtin_cluster("C")
    K = 0.61
    assert cluster_partition(spec, (EdgeDisorder(1, 1),), K) == pytest.approx(3.0 * K, rel=1e-14)
    assert cluster_partition(spec, (EdgeDisorder(1, -1),), K) == pytest.approx(-K, rel=1e-14)
    assert cluster_partition(spec, (EdgeDisorder(0, 0),), K) == 0.0


def test_partition_shape_mismatch():
    spec = builtin_cluster("A")
    with pytest.raises(ShapeMismatch):
        cluster_partition(spec, (EdgeDisorder(1),), 0.5)
    with pytest.raises(ShapeMismatch):
        cluster_partition(spec, tuple(EdgeDisorder(1, 1) for _ in range(4)), 0.5)
    with pytest.raises(ShapeMismatch):
        cluster_partition(builtin_cluster("C"), (EdgeDisorder(1),), 0.5)


@pytest.mark.parametrize("name", ["A", "B"])
def test_gauge_orbit_invariance(name):
    spec = builtin_cluster(name)
    rng = np.random.default_rng(11)
    for _ in range(12):
        signs = rng.choice([1, -1, 0], size=spec.slot_count, p=[0.5, 0.3, 0.2])
        disorder = tuple(EdgeDisorder(int(s)) for s in signs)
        assert gauge_orbit_check(spec, disorder, 0.9, tol=1e-12)


def test_gauge_check_rejects_two_layer():
    with pytest.raises(ShapeMismatch):
        gauge_orbit_check(builtin_cluster("D"), (EdgeDisorder(1, 1),) * 4, 0.5)


@pytest.mark.parametrize("name", ["single", "A", "B", "C", "D", "E"])
def test_schema_round_trip(name):
    spec = builtin_cluster(name)
    assert cluster_from_dict(cluster_to_dict(spec)) == spec


def test_load_cluster_file(tmp_path):
    spec = builtin_cluster("A")
    path = tmp_path / "star.json"
    path.write_text(json.dumps(cluster_to_dict(spec)), encoding="utf-8")
    assert load_cluster_file(str(path)) == spec


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        json.dumps([1, 2, 3]),
        json.dumps({"name": "x", "layers": 1}),
        json.dumps({"name": "x", "layers": 3, "vertices": [], "slots": []}),
        json.dumps(
            {
                "name": "x",
                "layers": 1,
                "vertices": [{"id": "u", "role": "boundary"}],
                "slots": [{"primal_edge": ["u", "w"]}],
            }
        ),
    ],
)
def test_load_cluster_file_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload, encoding="utf-8")
    with pytest.raises(ClusterFileError):
        load_cluster_file(str(path))


def _edge_payload(primal_edge, dual_edge=None) -> dict:
    """A one-slot cluster whose vertex ids are single letters, so a string edge splits into two."""
    vertices = [{"id": "c", "role": "internal"}, {"id": "n", "role": "boundary"}]
    slot = {"primal_edge": primal_edge}
    if dual_edge is not None:
        vertices += [{"id": v, "role": "boundary", "layer": "dual"} for v in "de"]
        slot["dual_edge"] = dual_edge
    return {"name": "x", "layers": 1 if dual_edge is None else 2, "vertices": vertices,
            "slots": [slot]}


@pytest.mark.parametrize(
    "data",
    [
        # a string edge is not a list of vertex ids, even when its characters name vertices
        _edge_payload("cn"),
        _edge_payload(["c", "n"], "de"),
        {**cluster_to_dict(builtin_cluster("A")), "layers": 1.9},
        {**cluster_to_dict(builtin_cluster("A")), "layers": True},
        {**cluster_to_dict(builtin_cluster("A")), "layers": "1"},
    ],
)
def test_cluster_from_dict_rejects_string_edges_and_non_integer_layers(data):
    with pytest.raises(ClusterFileError):
        cluster_from_dict(data)


def _renamed_centre(vertex_id, edge_end) -> dict:
    """Star A with its centre "c" given as `vertex_id` in the vertex list and `edge_end` in every edge."""
    data = cluster_to_dict(builtin_cluster("A"))
    for vertex in data["vertices"]:
        if vertex["id"] == "c":
            vertex["id"] = vertex_id
    for slot in data["slots"]:
        slot["primal_edge"] = [edge_end if end == "c" else end for end in slot["primal_edge"]]
    return data


@pytest.mark.parametrize(
    "data,what",
    [
        # each would otherwise be read through str(): the vertex "None" or
        # "7", with edges that name it, or the cluster "None" or "3"
        (_renamed_centre(None, "None"), "vertex id"),
        (_renamed_centre(7, "7"), "vertex id"),
        (_renamed_centre("None", None), "edge end"),
        (_renamed_centre("7", 7), "edge end"),
        ({**cluster_to_dict(builtin_cluster("A")), "name": None}, "cluster name"),
        ({**cluster_to_dict(builtin_cluster("A")), "name": 3}, "cluster name"),
    ],
    ids=["null-id", "number-id", "null-end", "number-end", "null-name", "number-name"],
)
def test_cluster_from_dict_rejects_names_that_are_not_strings(data, what):
    with pytest.raises(ClusterFileError, match=f"{what} .* must be a string"):
        cluster_from_dict(data)


def test_load_cluster_file_missing_path(tmp_path):
    with pytest.raises(ClusterFileError):
        load_cluster_file(str(tmp_path / "absent.json"))


def test_cluster_hash_is_its_fields_hash_across_pickles():
    # lru_cache lookups hash a cluster every call; the hash is the one of
    # its fields that the frozen dataclass makes, and a pickle carries none,
    # since str hashes differ between processes
    spec = builtin_cluster("E")
    want = hash((spec.name, spec.layers, spec.vertices, spec.slots))
    assert hash(spec) == want and hash(spec) == want
    copy = pickle.loads(pickle.dumps(spec))
    assert "_hash" not in copy.__dict__
    assert copy == spec and hash(copy) == want
    assert cluster_from_dict(cluster_to_dict(spec)) == spec
    assert len({spec, copy, cluster_from_dict(cluster_to_dict(spec))}) == 1
