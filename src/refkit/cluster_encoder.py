"""Clustering-based screen encoding, kept for ablation comparison.

Instead of one spatially ordered parse, each entity gets the texts of its
own spatial neighborhood: surrounding boxes are clustered by rectangle
distance, the entity is assigned to its nearest cluster, and same-cluster
texts (minus anything overlapping the entity's own text) become its context
along with the entity's absolute position. The per-entity context lists
make total prompt size grow super-linearly with cluster size, which is why
the layout parse is the production path.

Clustering is DBSCAN over an eps-neighbourhood graph found through a
uniform spatial grid over parallel lists of box edges. A pair in reach goes
to rect_distance, the one definition of the distance, only when both its
axis gaps are within eps. This is exact: the graph, so every cluster, is
what a scan over all objects gives. n objects with about m neighbours each
cost about O(n * m) tests, O(n^2) when every box spans the scene.

encode_clusters builds the graph once per scene and eps value, and one
labeller walks it for each entity in the entity's own order, skipping
objects outside its set, with no restricted copy. Only that visiting order
depends on object order, so each result is what clustering the entity's
objects on their own gives. It reads the scene through `object_columns`
and works on object numbers, texts and box tuples, so a decoded Screen is
never unpacked into ScreenObjects.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable, Mapping, Sequence

from .screen_model import (
    BBox, Entity, ScreenObject, bbox_center, median, object_columns
)

NOISE_CLUSTER_ID = -1
_OUTSIDE = -2  # the label of an object outside the set being clustered


@dataclass(frozen=True)
class Cluster:
    """A group of spatially close screen objects; id -1 collects noise."""

    id: int
    members: tuple[ScreenObject, ...]


@dataclass(frozen=True)
class ClusterEncoding:
    """Per-entity context: nearby texts plus absolute screen position."""

    entity_index: int
    surrounding_prompt: tuple[str, ...]
    distance_from_top: float
    distance_from_left: float


def rect_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Minimum edge-to-edge Euclidean distance; 0 when boxes overlap or touch.

    Fields are read by position, so a box may be a BBox or any (left, top,
    width, height) sequence.
    """
    # Comparisons rather than max(), which costs more than the rest of the
    # function; every tested pair of boxes comes through here.
    gap_x = a[0] - (b[0] + b[2])
    other = b[0] - (a[0] + a[2])
    if other > gap_x:
        gap_x = other
    gap_y = a[1] - (b[1] + b[3])
    other = b[1] - (a[1] + a[3])
    if other > gap_y:
        gap_y = other
    return math.hypot(gap_x if gap_x > 0.0 else 0.0, gap_y if gap_y > 0.0 else 0.0)


# Extra reach of a query, in cells, beyond eps: far above the rounding error
# of a cell position (a few ulps of at most k + 3) and far below a cell.
_REACH_MARGIN = 2.0**-20


def _axis_cells(
    starts: Sequence[float], ends: Sequence[float], eps: float, k: int
) -> tuple[list[range], list[range]]:
    """Along one axis: the cells each box covers and the cells its query scans.

    Cells have side max(eps, extent / k) and are numbered from 1 at the
    smallest start, so every box lies within cells 1..k+1 however large it
    is or small eps is, and every scan within 0..k+2. A box at most eps away
    along the axis is then at most one cell away, and each query scans its
    box's cells widened by that reach. Offsets past the float range are
    clamped; clamping, like rounding, is monotone and widens no gap, so it
    cannot push a neighbour out of reach.
    """
    top = sys.float_info.max
    origin = min(starts)
    side = min(max(eps, (max(ends) - origin) / k), top)
    reach = min(eps / side, 1.0) + _REACH_MARGIN
    covers, scans = [], []
    for start, end in zip(starts, ends):
        low, high = start - origin, end - origin
        low = 1 + (low if low < top else top) / side
        high = 1 + (high if high < top else top) / side
        covers.append(range(int(low), int(high) + 1))
        scans.append(range(int(low - reach), int(high + reach) + 1))
    return covers, scans


def _neighbor_lists(boxes: Sequence[Sequence[float]], eps: float) -> list[list[int]]:
    """For each box i, the indices j with rect_distance(i, j) <= eps, i first.

    Boxes are filed in turn under every cell they cover of a uniform grid of
    (k + 3)^2 cells, k = ceil(sqrt(n)), and box i is tested against the
    earlier boxes filed under the cells within reach of its own; a match is
    recorded on both sides (rect_distance is symmetric). Small boxes with m
    neighbours each so cost about n * m / 2 tests instead of n^2; the worst
    case, every box covering every cell, tests every pair once. A pair is
    skipped when one of the four edge differences rect_distance takes its
    axis gaps from exceeds eps, as the distance is at least each of them.
    """
    k = math.isqrt(len(boxes) - 1) + 1
    lefts, tops, widths, heights = zip(*boxes)
    # Right and bottom edges are summed as rect_distance sums them.
    rights = [left + width for left, width in zip(lefts, widths)]
    bottoms = [top + height for top, height in zip(tops, heights)]
    x_covers, x_scans = _axis_cells(lefts, rights, eps, k)
    y_covers, y_scans = _axis_cells(tops, bottoms, eps, k)
    stride = k + 3
    cells: list[list[int]] = [[] for _ in range(stride * stride)]
    neighbors: list[list[int]] = [[i] for i in range(len(boxes))]
    for i, box in enumerate(boxes):
        left, top, right, bottom = lefts[i], tops[i], rights[i], bottoms[i]
        earlier = {
            j for cx in x_scans[i] for cy in y_scans[i] for j in cells[cx * stride + cy]
        }
        for j in earlier:
            if (
                left - rights[j] <= eps and lefts[j] - right <= eps
                and top - bottoms[j] <= eps and tops[j] - bottom <= eps
                and rect_distance(box, boxes[j]) <= eps
            ):
                neighbors[i].append(j)
                neighbors[j].append(i)
        for cx in x_covers[i]:
            for cy in y_covers[i]:
                cells[cx * stride + cy].append(i)
    return neighbors


def _check_parameters(eps: float, min_pts: int) -> None:
    if not eps > 0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")


def _label_clusters(
    size: int,
    graph: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
    order: Sequence[int],
    min_pts: int,
) -> list[list[int]]:
    """DBSCAN labelling of the objects numbered n in order, each below size,
    over their eps graph. Returns the members of clusters 0, 1, ... in turn
    and then the noise (maybe none), each in `order`.

    graph[n] holds the n' within eps of n, n itself included, in any order;
    objects not in `order` are neither labelled nor counted as neighbours.
    Unlabelled points start a cluster in `order`, which alone fixes cluster
    ids, which cluster claims a border point, and member order: an expansion
    claims every unclaimed point density-reachable from its start, whatever
    order it reaches them in.
    """
    labels: list[int | None] = [_OUTSIDE] * size
    for n in order:
        labels[n] = None
    core = None  # with min_pts 1 every point is core: its neighbourhood holds itself
    if min_pts > 1:
        core = {n: sum(labels[m] != _OUTSIDE for m in graph[n]) >= min_pts for n in order}
    cluster_id = 0
    for n in order:
        if labels[n] is not None:
            continue
        if core is not None and not core[n]:
            labels[n] = NOISE_CLUSTER_ID
            continue
        labels[n] = cluster_id
        cores = [n]  # claimed core points whose neighbours are still unclaimed
        while cores:
            for m in graph[cores.pop()]:
                label = labels[m]
                if label is None:
                    labels[m] = cluster_id
                    if core is None or core[m]:
                        cores.append(m)
                elif label == NOISE_CLUSTER_ID:
                    labels[m] = cluster_id  # noise reachable from a core point -> border
        cluster_id += 1

    # members[c] for cluster c; members[-1], so members[NOISE_CLUSTER_ID], is noise.
    members: list[list[int]] = [[] for _ in range(cluster_id + 1)]
    for n in order:
        members[labels[n]].append(n)
    return members


def dbscan_cluster(
    objects: Sequence[ScreenObject], eps: float, min_pts: int = 1
) -> list[Cluster]:
    """Density-based clustering under rect_distance.

    Clusters are grown from core points in input order, so the result is
    deterministic for a given input sequence. Real clusters get ids 0..k-1
    in discovery order; noise objects, if any, are returned last under the
    reserved id NOISE_CLUSTER_ID. A point's eps-neighborhood includes itself,
    so min_pts=1 makes every point a core point.

    Region queries are answered from a uniform spatial grid (see
    _neighbor_lists) and are exact: the same neighbours as a scan over all
    objects, so the same clusters. For n objects with about m neighbours
    each they cost O(n * m) rather than the scan's O(n^2); O(n^2) remains
    the worst case, when every box spans the scene.
    """
    _check_parameters(eps, min_pts)
    if not objects:
        return []
    graph = _neighbor_lists([obj.box for obj in objects], eps)
    *groups, noise = _label_clusters(len(objects), graph, range(len(objects)), min_pts)
    clusters = [
        Cluster(cid, tuple(map(objects.__getitem__, group))) for cid, group in enumerate(groups)
    ]
    if noise:
        clusters.append(Cluster(NOISE_CLUSTER_ID, tuple(map(objects.__getitem__, noise))))
    return clusters


def _nearest(box: BBox, groups: Iterable[Iterable[Sequence[float]]]) -> int | None:
    """Position of the group holding the box nearest `box`; the first such
    group wins a tie. None when no group has a member.

    Groups are scanned in order, member by member, and the first member at
    distance 0.0 ends the scan: no distance is smaller, and a later group
    would need a smaller one to win. A scene where no member touches the box
    still tests every member. The first member seen sets `best` even at a
    distance that overflows to inf.
    """
    best = None
    best_distance = math.inf
    for position, members in enumerate(groups):
        for member in members:
            distance = rect_distance(box, member)
            if best is None or distance < best_distance:
                if distance == 0.0:
                    return position
                best = position
                best_distance = distance
    return best


def assign_entity_cluster(entity: Entity, clusters: Sequence[Cluster]) -> Cluster | None:
    """Nearest real cluster by minimum member distance; ties go to the lowest id.

    Returns None when only noise (or nothing) is available, signalling that
    the encoding should degrade to positioning information alone. Clusters
    are scanned in id order and the scan stops at the first member that
    touches the entity (see _nearest); a scene where none does tests every
    member, O(n) per entity.
    """
    if entity.placement is None:
        raise ValueError("entity has no placement")
    real = [c for c in sorted(clusters, key=lambda c: c.id) if c.id != NOISE_CLUSTER_ID]
    position = _nearest(
        entity.placement.box, ([member.box for member in c.members] for c in real)
    )
    return None if position is None else real[position]


def _tokens(text: str) -> set[str]:
    return set(text.lower().split())


def build_cluster_encoding(
    entity_index: int, entity: Entity, clusters: Sequence[Cluster]
) -> ClusterEncoding:
    """Context texts from the entity's cluster plus its absolute position.

    Same-cluster texts sharing any token with the entity's own text are
    filtered out, so the entity's duplicate on-screen string never lands in
    its own context.
    """
    cluster = assign_entity_cluster(entity, clusters)
    texts = () if cluster is None else [member.text for member in cluster.members]
    return _encoding(entity_index, entity, texts)


def _encoding(entity_index: int, entity: Entity, texts: Iterable[str]) -> ClusterEncoding:
    """The encoding of the entity whose cluster has these member texts."""
    own = _tokens(entity.display_text)
    center = bbox_center(entity.placement.box)
    return ClusterEncoding(
        entity_index=entity_index,
        surrounding_prompt=tuple(text for text in texts if own.isdisjoint(_tokens(text))),
        distance_from_top=center.y,
        distance_from_left=center.x,
    )


def encode_clusters(
    screen: Sequence[ScreenObject],
    entities: Sequence[Entity],
    eps: float | None = None,
    min_pts: int = 1,
) -> list[ClusterEncoding]:
    """Cluster each entity's neighborhood and build its encoding.

    The object set per entity is the union of its own surrounding list and
    the shared screen list, deduplicated by (text, box). eps=None derives
    the threshold from the entity's object set (median object height).

    The eps-neighbourhood graph is built once per scene and eps value, over
    the union of the object sets that use it, and each entity's objects are
    labelled over it in the entity's own order, skipping all others. A
    neighbourhood restricted to a subset is the subset's own neighbourhood,
    so every encoding is exactly what dbscan_cluster over the entity's own
    object set gives.
    """
    # The scene's distinct objects, each numbered once: numbers maps an
    # object's (text, box) to its number, and texts and boxes hold its fields.
    numbers: dict[tuple[str, tuple], int] = {}
    texts: list[str] = []
    boxes: list[tuple] = []

    def numbered(objects: Sequence[ScreenObject]) -> list[int]:
        found, *fields = object_columns(objects)
        keys = list(zip(found, zip(*fields)))
        for key in filterfalse(numbers.__contains__, keys):
            numbers[key] = len(texts)
            texts.append(key[0])
            boxes.append(key[1])
        return list(map(numbers.__getitem__, keys))

    screen_numbers = numbered(screen)
    # Per entity: its surrounding objects, then the screen's, without repeats; and eps.
    object_sets: list[tuple[list[int], float | None]] = []
    for index, entity in enumerate(entities, 1):
        if entity.placement is None:
            raise ValueError(f"entity {index} has no placement")
        own = list(dict.fromkeys(numbered(entity.placement.surrounding) + screen_numbers))
        entity_eps = eps
        if own:
            if eps is None:
                entity_eps = median(boxes[number][3] for number in own) or 1.0
            _check_parameters(entity_eps, min_pts)
        object_sets.append((own, entity_eps))

    # Per eps, one graph over the union of the object sets that use it.
    unions: dict[float, set[int]] = {}
    for own, entity_eps in object_sets:
        if own:
            unions.setdefault(entity_eps, set()).update(own)
    graphs: dict[float, dict[int, list[int]]] = {}
    for graph_eps, union in unions.items():
        members = list(union)
        near = _neighbor_lists([boxes[n] for n in members], graph_eps)
        graphs[graph_eps] = {
            n: [members[j] for j in around] for n, around in zip(members, near)
        }

    encodings = []
    for index, (entity, (own, entity_eps)) in enumerate(zip(entities, object_sets), 1):
        member_texts: Iterable[str] = ()
        if own:
            *groups, _ = _label_clusters(len(texts), graphs[entity_eps], own, min_pts)
            position = _nearest(
                entity.placement.box, (map(boxes.__getitem__, group) for group in groups)
            )
            if position is not None:
                member_texts = map(texts.__getitem__, groups[position])
        encodings.append(_encoding(index, entity, member_texts))
    return encodings
