"""Strict parsers and canonical serializers for the on-disk formats.

Three formats, all line-oriented text:

Exchange graph (``*.exg``)::

    robots 3
    vertex <id> <robot> <weight>
    edge <id> <u> <v> <p>

Pose graph: a 2D g2o-style subset plus a candidate-map section::

    VERTEX_SE2 <id> <x> <y> <theta>
    FIX <anchor-id>
    EDGE_SE2 <i> <j> <dx> <dy> <dtheta> <I11> <I12> <I13> <I22> <I23> <I33>
    CANDIDATE <exchange-edge-id> <pose-i> <pose-j> <weight>

``EDGE_SE2`` carries the usual relative-pose measurement and the upper
triangle of its information matrix; this library keeps a scalar weight per
base edge, taken from ``I11``. The canonical serializer writes measurements
recomputed from the pose coordinates and an isotropic information pattern
(``I11 = I22 = I33 = weight``), so canonical files round-trip byte for byte.

Ground truth (``*.csv``)::

    edge_id,realized
    0,1

Parsers are strict: unknown record types, wrong field counts, or invariant
violations raise :class:`~loopselect.errors.ParseError` with the offending
line number. Every number must be finite, and a pose graph has at most one
``FIX`` record.
"""

from __future__ import annotations

import math

from .errors import ParseError
from .generate import GroundTruth
from .graph import Edge, ExchangeGraph, Vertex
from .objectives import PoseGraph

__all__ = [
    "parse_exchange_graph",
    "serialize_exchange_graph",
    "load_exchange_graph",
    "save_exchange_graph",
    "parse_pose_graph",
    "serialize_pose_graph",
    "load_pose_graph",
    "save_pose_graph",
    "parse_ground_truth",
    "serialize_ground_truth",
]


def _fields(line_no, line, expect, kind):
    parts = line.split()
    if len(parts) != expect:
        raise ParseError(
            line_no, f"{kind} record needs {expect} fields, got {len(parts)}"
        )
    return parts


def _to_int(line_no, token, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def _to_float(line_no, token, what):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"{what} must be finite, got {token!r}")
    return value


# -- exchange graphs -----------------------------------------------------------


def parse_exchange_graph(text) -> ExchangeGraph:
    num_robots = None
    vertices = []
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag = line.split(None, 1)[0]
        if tag == "robots":
            parts = _fields(line_no, line, 2, "robots")
            if num_robots is not None:
                raise ParseError(line_no, "duplicate robots header")
            num_robots = _to_int(line_no, parts[1], "robot count")
        elif tag == "vertex":
            parts = _fields(line_no, line, 4, "vertex")
            vertices.append(
                Vertex(
                    id=_to_int(line_no, parts[1], "vertex id"),
                    robot=_to_int(line_no, parts[2], "robot"),
                    weight=_to_float(line_no, parts[3], "weight"),
                )
            )
        elif tag == "edge":
            parts = _fields(line_no, line, 5, "edge")
            edges.append(
                Edge(
                    id=_to_int(line_no, parts[1], "edge id"),
                    u=_to_int(line_no, parts[2], "endpoint"),
                    v=_to_int(line_no, parts[3], "endpoint"),
                    p=_to_float(line_no, parts[4], "probability"),
                )
            )
        else:
            raise ParseError(line_no, f"unknown record {tag!r}")
    if num_robots is None:
        raise ParseError(1, "missing robots header")
    graph = ExchangeGraph(num_robots, vertices, edges)
    bad = graph.validate()
    if bad:
        raise ParseError(1, "invalid exchange graph: " + "; ".join(bad))
    return graph


def serialize_exchange_graph(graph) -> str:
    lines = [f"robots {graph.num_robots}"]
    for v in sorted(graph.vertices, key=lambda v: v.id):
        lines.append(f"vertex {v.id} {v.robot} {v.weight!r}")
    for e in sorted(graph.edges, key=lambda e: e.id):
        lines.append(f"edge {e.id} {e.u} {e.v} {e.p!r}")
    return "\n".join(lines) + "\n"


def load_exchange_graph(path) -> ExchangeGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_exchange_graph(fh.read())


def save_exchange_graph(graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_exchange_graph(graph))


# -- pose graphs ---------------------------------------------------------------


def parse_pose_graph(text) -> PoseGraph:
    poses = {}
    anchor = None
    base_edges = []
    candidate_map = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag = line.split(None, 1)[0]
        if tag == "VERTEX_SE2":
            parts = _fields(line_no, line, 5, "VERTEX_SE2")
            pid = _to_int(line_no, parts[1], "pose id")
            if pid in poses:
                raise ParseError(line_no, f"duplicate pose id {pid}")
            poses[pid] = tuple(
                _to_float(line_no, t, "pose coordinate") for t in parts[2:5]
            )
        elif tag == "FIX":
            parts = _fields(line_no, line, 2, "FIX")
            if anchor is not None:
                raise ParseError(line_no, "duplicate FIX record")
            anchor = _to_int(line_no, parts[1], "anchor id")
        elif tag == "EDGE_SE2":
            parts = _fields(line_no, line, 12, "EDGE_SE2")
            i = _to_int(line_no, parts[1], "pose id")
            j = _to_int(line_no, parts[2], "pose id")
            info11 = _to_float(line_no, parts[6], "information coefficient")
            for t in parts[3:12]:
                _to_float(line_no, t, "EDGE_SE2 field")
            if info11 <= 0:
                raise ParseError(line_no, "information coefficient must be positive")
            base_edges.append((i, j, info11))
        elif tag == "CANDIDATE":
            parts = _fields(line_no, line, 5, "CANDIDATE")
            eid = _to_int(line_no, parts[1], "exchange edge id")
            if eid in candidate_map:
                raise ParseError(line_no, f"duplicate candidate for edge {eid}")
            candidate_map[eid] = (
                _to_int(line_no, parts[2], "pose id"),
                _to_int(line_no, parts[3], "pose id"),
                _to_float(line_no, parts[4], "candidate weight"),
            )
        else:
            raise ParseError(line_no, f"unknown record {tag!r}")
    if not poses:
        raise ParseError(1, "missing VERTEX_SE2 records")
    ids = sorted(poses)
    if ids != list(range(len(ids))):
        raise ParseError(1, "pose ids must be dense and 0-based")
    pg = PoseGraph(
        num_poses=len(ids),
        base_edges=tuple(base_edges),
        candidate_map=candidate_map,
        anchor=0 if anchor is None else anchor,
        poses=tuple(poses[i] for i in ids),
    )
    bad = pg.validate()
    if bad:
        raise ParseError(1, "invalid pose graph: " + "; ".join(bad))
    return pg


def serialize_pose_graph(pg) -> str:
    coords = pg.poses or tuple((0.0, 0.0, 0.0) for _ in range(pg.num_poses))
    lines = []
    for pid, (x, y, th) in enumerate(coords):
        lines.append(f"VERTEX_SE2 {pid} {x!r} {y!r} {th!r}")
    lines.append(f"FIX {pg.anchor}")
    for i, j, w in pg.base_edges:
        dx = coords[j][0] - coords[i][0]
        dy = coords[j][1] - coords[i][1]
        dth = coords[j][2] - coords[i][2]
        lines.append(
            f"EDGE_SE2 {i} {j} {dx!r} {dy!r} {dth!r} "
            f"{w!r} 0.0 0.0 {w!r} 0.0 {w!r}"
        )
    for eid in sorted(pg.candidate_map):
        i, j, w = pg.candidate_map[eid]
        lines.append(f"CANDIDATE {eid} {i} {j} {w!r}")
    return "\n".join(lines) + "\n"


def load_pose_graph(path) -> PoseGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pose_graph(fh.read())


def save_pose_graph(pg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_pose_graph(pg))


# -- ground truth --------------------------------------------------------------


def parse_ground_truth(text) -> GroundTruth:
    realized = {}
    lines = text.splitlines()
    if not lines or lines[0].strip() != "edge_id,realized":
        raise ParseError(1, "missing 'edge_id,realized' header")
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(line_no, "ground-truth rows need two fields")
        eid = _to_int(line_no, parts[0], "edge id")
        if parts[1] not in ("0", "1"):
            raise ParseError(line_no, f"realized flag must be 0 or 1, got {parts[1]!r}")
        if eid in realized:
            raise ParseError(line_no, f"duplicate edge id {eid}")
        realized[eid] = parts[1] == "1"
    ids = sorted(realized)
    if ids != list(range(len(ids))):
        raise ParseError(1, "edge ids must be dense and 0-based")
    return GroundTruth(realized=tuple(realized[i] for i in ids))


def serialize_ground_truth(gt) -> str:
    lines = ["edge_id,realized"]
    for eid, flag in enumerate(gt.realized):
        lines.append(f"{eid},{1 if flag else 0}")
    return "\n".join(lines) + "\n"
