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
line number. Every number must be finite and spelt in ASCII without ``_``
(a leading sign is fine), and a pose graph has at most one ``FIX`` record.
Given the exchange graph's edge ids, the pose parser also rejects a
``CANDIDATE`` for an edge that graph does not have.

Two readers share that contract. numpy's C text reader reads each record
kind's lines with one ``np.loadtxt`` when every kind's lines are ASCII with
no ``_`` outside their tags, have the kind's field count, ints within 64 bits
and finite reals, and the file has exactly one ``robots`` header (exchange)
or repeats no pose id, candidate or ``FIX``, names only known edges and has
``I11 > 0`` (pose). Every other file goes to the line loop, which accepts
and builds each record kind in one place only; a record refused there goes
to field-by-field checks that build nothing and raise its first fault. On
any file the first reader takes, the two give the same columns, bit for bit
and of the same Python types, and the tests compare them on generated and
mangled files. An exchange graph's columns go to
:meth:`~loopselect.graph.ExchangeGraph.from_columns`, and either graph's
invariants are checked over its columns at the end; only when one is broken
is the text read again, for the line of each record at fault. The loaders
read UTF-8 and reject a byte that is not UTF-8 at the line that holds it;
their errors name the file after the message.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import defaultdict

import numpy as np

from .errors import ParseError
from .graph import ExchangeGraph, GroundTruth
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


_INF = math.inf


def _fields(line_no, parts, expect, kind):
    if len(parts) != expect:
        raise ParseError(
            line_no, f"{kind} record needs {expect} fields, got {len(parts)}"
        )


def _plain(token):
    """``token`` if ASCII without ``_``; int() and float() read both, no format holds either."""
    if token.isascii() and "_" not in token:
        return token
    raise ValueError(f"not a number: {token!r}")


def _to_int(line_no, token, what):
    try:
        return int(_plain(token))
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def _to_float(line_no, token, what):
    try:
        value = float(_plain(token))
    except ValueError:
        raise ParseError(line_no, f"{what} must be a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"{what} must be finite, got {token!r}")
    return value


def _finite(values):
    """Whether every value is finite: their sum is, unless it overflowed."""
    return -_INF < sum(values) < _INF or all(map(math.isfinite, values))


def _reject_violations(violations, line_of, kind):
    """Raise at the first line whose record breaks an invariant (line 1: none).

    ``line_of()`` maps each record to its line; it is only called once an
    invariant is broken.
    """
    bad = list(violations)
    if bad:
        line_of = line_of()
        bad = [(line_of.get(record, 1), message) for record, message in bad]
        line_no = min(at for at, _ in bad)
        messages = [message for at, message in bad if at == line_no]
        raise ParseError(line_no, f"invalid {kind}: " + "; ".join(messages))


def _read_text(path):
    """A file's UTF-8 text; a byte that is not UTF-8 is a ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # numbered as the parsers number lines: by str.splitlines
        before = data[: err.start].decode("utf-8")
        line_no = len((before + "x").splitlines())
        raise ParseError(
            line_no, f"byte 0x{data[err.start]:02x} is not UTF-8 ({err.reason})", path
        ) from None


def _load(path, parse, *args):
    """``parse`` of the text of the file at ``path``; a ParseError names the file."""
    text = _read_text(path)
    try:
        return parse(text, *args)
    except ParseError as err:
        raise ParseError(err.line_no, err.message, path) from None


def _numbered(kind, lines):
    return {(kind, i): line_no for i, line_no in enumerate(lines)}


# -- numpy's C text reader ----------------------------------------------------


def _row_dtypes(**fields):
    """Each tag's row: the tag, one character wider than the tag so that a
    longer tag is not cut down to it, then its fields, ``i`` for an int64
    and ``f`` for a float64 each."""
    types = {"i": np.int64, "f": np.float64}
    return {
        tag: np.dtype(
            [("tag", f"U{len(tag) + 1}")] + [(f"f{n}", types[k]) for n, k in enumerate(kinds)]
        )
        for tag, kinds in fields.items()
    }


_EXCHANGE_ROWS = _row_dtypes(robots="i", vertex="iif", edge="iiif")
_POSE_ROWS = _row_dtypes(VERTEX_SE2="ifff", FIX="i", EDGE_SE2="ii" + "f" * 9, CANDIDATE="iiif")


def _read_columns(text, rows):
    """The records of ``text`` as columns of Python ints and floats, one list
    of columns per tag of ``rows`` (tag -> row dtype), read with one
    ``np.loadtxt`` per tag; None when the line loop must read the file.

    The tags start with distinct letters, so a line's first letter picks its
    tag; blank and ``#`` lines are dropped, and any other line is an unknown
    record. A tag's lines are read only if they are ASCII with no ``_``
    outside their tags, every row has the tag's field count and the tag
    itself, every int fits 64 bits and every real is finite. On those lines
    numpy reads what int() and float() read, to the bit (the tests compare
    both readers), and refuses what they refuse.
    """
    skip = []
    buckets = {"": skip, "#": skip, **{tag[0]: [] for tag in rows}}
    try:
        for line in text.splitlines():
            buckets[line.lstrip()[:1]].append(line)
    except KeyError:
        return None  # an unknown record
    columns = {}
    with warnings.catch_warnings():
        # numpy 1.x reads an int spelt as a float ("1.0") with only a warning
        warnings.simplefilter("error")
        for tag, dtype in rows.items():
            lines = buckets[tag[0]]
            joined = "".join(lines)
            if not (joined.isascii() and joined.count("_") == tag.count("_") * len(lines)):
                return None
            table = np.empty(0, dtype)  # numpy warns on no lines
            if lines:
                try:
                    table = np.loadtxt(lines, dtype, comments=None, ndmin=1)
                except (ValueError, Warning):
                    return None
            fields = [table[name] for name in dtype.names[1:]]
            if not ((table["tag"] == tag).all()
                    and all(np.isfinite(f).all() for f in fields if f.dtype.kind == "f")):
                return None
            columns[tag] = [f.tolist() for f in fields]
    return columns


def _record_lines(text):
    """Each tag's line numbers, in file order, of a file whose every record was accepted."""
    lines = defaultdict(list)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split(None, 1)
        if parts and parts[0][0] != "#":
            lines[parts[0]].append(line_no)
    return lines


# -- exchange graphs -----------------------------------------------------------


def parse_exchange_graph(text) -> ExchangeGraph:
    columns = _read_columns(text, _EXCHANGE_ROWS)
    if columns is None or len(columns["robots"][0]) != 1:
        num_robots, vertices, edges = _exchange_by_line(text)
    else:
        num_robots = columns["robots"][0][0]
        vertices, edges = columns["vertex"], columns["edge"]
    graph = ExchangeGraph.from_columns(num_robots, vertices, edges)
    _reject_violations(graph.violations(), lambda: _exchange_lines(text), "exchange graph")
    return graph


def _exchange_by_line(text):
    """``text``'s robot count, vertex columns and edge columns, read line by line."""
    num_robots = None
    vids, robots, weights = vertices = [], [], []
    eids, us, vs, ps = edges = [], [], [], []
    plain = text.isascii() and "_" not in text  # the common case: no record to screen
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue  # blank, or a comment
        tag = parts[0]
        try:  # the one path that accepts a record; a ValueError refuses it
            if not plain:
                _plain("".join(parts[1:]))
            if tag == "edge" and len(parts) == 5:
                p = float(parts[4])
                if -_INF < p < _INF:
                    eid, u, v = int(parts[1]), int(parts[2]), int(parts[3])
                    eids.append(eid)
                    us.append(u)
                    vs.append(v)
                    ps.append(p)
                    continue
            elif tag == "vertex" and len(parts) == 4:
                weight = float(parts[3])
                if -_INF < weight < _INF:
                    vid, robot = int(parts[1]), int(parts[2])
                    vids.append(vid)
                    robots.append(robot)
                    weights.append(weight)
                    continue
            elif tag == "robots" and len(parts) == 2 and num_robots is None:
                num_robots = int(parts[1])
                continue
        except ValueError:
            pass
        # refused: find the first fault, in field order; these checks build nothing
        if tag == "robots":
            _fields(line_no, parts, 2, "robots")
            if num_robots is not None:
                raise ParseError(line_no, "duplicate robots header")
            _to_int(line_no, parts[1], "robot count")
        elif tag == "vertex":
            _fields(line_no, parts, 4, "vertex")
            _to_int(line_no, parts[1], "vertex id")
            _to_int(line_no, parts[2], "robot")
            _to_float(line_no, parts[3], "weight")
        elif tag == "edge":
            _fields(line_no, parts, 5, "edge")
            _to_int(line_no, parts[1], "edge id")
            _to_int(line_no, parts[2], "endpoint")
            _to_int(line_no, parts[3], "endpoint")
            _to_float(line_no, parts[4], "probability")
        else:
            raise ParseError(line_no, f"unknown record {tag!r}")
        raise AssertionError(f"line {line_no}: a faultless {tag} record was refused")
    if num_robots is None:
        raise ParseError(1, "missing robots header")
    return num_robots, vertices, edges


def _exchange_lines(text):
    """The line of each record of ``text``, a file whose every record was accepted."""
    lines = _record_lines(text)
    return {
        **{("robots",): n for n in lines["robots"]},
        **_numbered("vertex", lines["vertex"]),
        **_numbered("edge", lines["edge"]),
    }


def serialize_exchange_graph(graph) -> str:
    by_id = operator.itemgetter(0)
    vertices = sorted(zip(*graph.vertex_columns), key=by_id)
    edges = sorted(zip(*graph.edge_columns), key=by_id)
    return "\n".join([
        f"robots {graph.num_robots}",
        *[f"vertex {vid} {robot} {weight!r}" for vid, robot, weight in vertices],
        *[f"edge {eid} {u} {v} {p!r}" for eid, u, v, p in edges],
    ]) + "\n"


def load_exchange_graph(path) -> ExchangeGraph:
    return _load(path, parse_exchange_graph)


def save_exchange_graph(graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_exchange_graph(graph))


# -- pose graphs ---------------------------------------------------------------


def parse_pose_graph(text, edge_ids=None) -> PoseGraph:
    """Parse a pose file; with ``edge_ids``, every CANDIDATE must name one of them."""
    records = _pose_by_columns(text, edge_ids)
    if records is None:
        records = _pose_by_line(text, edge_ids)
    poses, anchor, base_edges, candidate_map = records
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
    _reject_violations(pg.violations(), lambda: _pose_lines(text, candidate_map), "pose graph")
    return pg


def _pose_by_columns(text, edge_ids):
    """``_pose_by_line``'s records, read by :func:`_read_columns`; None when a
    record is one that the line loop refuses or must check."""
    columns = _read_columns(text, _POSE_ROWS)
    if columns is None:
        return None
    pids, *coords = columns["VERTEX_SE2"]
    (fix,) = columns["FIX"]
    i, j, *reals = columns["EDGE_SE2"]
    eids, *pairs = columns["CANDIDATE"]
    info11 = reals[3]
    if (len(fix) > 1 or len(set(pids)) < len(pids) or len(set(eids)) < len(eids)
            or min(info11, default=1.0) <= 0
            or edge_ids is not None and not all(map(edge_ids.__contains__, eids))):
        return None
    return (
        dict(zip(pids, zip(*coords))),
        fix[0] if fix else None,
        list(zip(i, j, info11)),
        dict(zip(eids, zip(*pairs))),
    )


def _pose_by_line(text, edge_ids):
    """``text``'s poses (id -> coordinates), anchor (None without FIX), base
    edges and candidate map, read line by line."""
    poses = {}
    anchor = None
    base_edges = []
    candidate_map = {}
    plain = text.isascii() and text.count("_") == text.count("_SE2")  # "_" only in tags
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue  # blank, or a comment
        tag = parts[0]
        try:  # as in _exchange_by_line
            if not plain:
                _plain("".join(parts[1:]))
            if tag == "CANDIDATE" and len(parts) == 5:
                eid, w = int(parts[1]), float(parts[4])
                if (-_INF < w < _INF and eid not in candidate_map
                        and (edge_ids is None or eid in edge_ids)):
                    candidate_map[eid] = (int(parts[2]), int(parts[3]), w)
                    continue
            elif tag == "EDGE_SE2" and len(parts) == 12:
                i, j = int(parts[1]), int(parts[2])
                reals = [float(t) for t in parts[3:12]]
                if _finite(reals) and reals[3] > 0:
                    base_edges.append((i, j, reals[3]))
                    continue
            elif tag == "VERTEX_SE2" and len(parts) == 5:
                pid = int(parts[1])
                coords = (float(parts[2]), float(parts[3]), float(parts[4]))
                if _finite(coords) and pid not in poses:
                    poses[pid] = coords
                    continue
            elif tag == "FIX" and len(parts) == 2 and anchor is None:
                anchor = int(parts[1])
                continue
        except ValueError:
            pass
        # refused: as in _exchange_by_line
        if tag == "VERTEX_SE2":
            _fields(line_no, parts, 5, "VERTEX_SE2")
            pid = _to_int(line_no, parts[1], "pose id")
            if pid in poses:
                raise ParseError(line_no, f"duplicate pose id {pid}")
            for t in parts[2:5]:
                _to_float(line_no, t, "pose coordinate")
        elif tag == "FIX":
            _fields(line_no, parts, 2, "FIX")
            if anchor is not None:
                raise ParseError(line_no, "duplicate FIX record")
            _to_int(line_no, parts[1], "anchor id")
        elif tag == "EDGE_SE2":
            _fields(line_no, parts, 12, "EDGE_SE2")
            _to_int(line_no, parts[1], "pose id")
            _to_int(line_no, parts[2], "pose id")
            info11 = _to_float(line_no, parts[6], "information coefficient")
            for t in parts[3:12]:
                _to_float(line_no, t, "EDGE_SE2 field")
            if info11 <= 0:
                raise ParseError(line_no, "information coefficient must be positive")
        elif tag == "CANDIDATE":
            _fields(line_no, parts, 5, "CANDIDATE")
            eid = _to_int(line_no, parts[1], "exchange edge id")
            if eid in candidate_map:
                raise ParseError(line_no, f"duplicate candidate for edge {eid}")
            if edge_ids is not None and eid not in edge_ids:
                raise ParseError(
                    line_no, f"candidate for edge {eid}, which the exchange graph lacks"
                )
            _to_int(line_no, parts[2], "pose id")
            _to_int(line_no, parts[3], "pose id")
            _to_float(line_no, parts[4], "candidate weight")
        else:
            raise ParseError(line_no, f"unknown record {tag!r}")
        raise AssertionError(f"line {line_no}: a faultless {tag} record was refused")
    return poses, anchor, base_edges, candidate_map


def _pose_lines(text, candidate_ids):
    """The line of each record of ``text``, a file whose every record was
    accepted, with its candidates in ``candidate_ids`` order."""
    lines = _record_lines(text)
    return {
        **{("anchor",): n for n in lines["FIX"]},
        **_numbered("base", lines["EDGE_SE2"]),
        **{("candidate", eid): n for eid, n in zip(candidate_ids, lines["CANDIDATE"])},
    }


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


def load_pose_graph(path, edge_ids=None) -> PoseGraph:
    return _load(path, parse_pose_graph, edge_ids)


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
