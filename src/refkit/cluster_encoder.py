"""Clustering-based screen encoding, kept for ablation comparison.

Instead of one spatially ordered parse, each entity gets the texts of its
own spatial neighborhood: surrounding boxes are clustered by rectangle
distance, the entity joins its nearest cluster, and same-cluster texts
(minus anything sharing a token with the entity's own text) become its
context along with the entity's absolute position. The per-entity context
lists make total prompt size grow super-linearly with cluster size, which
is why the layout parse is the production path. encode_clusters is the one
way to build these encodings; dbscan_cluster, the same clustering over one
object list, stays public while the benchmark's traced run wraps it.

Clustering is DBSCAN over an eps-neighbourhood graph found by one sorted
sweep over parallel lists of box edges, along the axis the scene spans
further. A pair goes to rect_distance, the one definition of the distance,
only when all four edge differences it takes its axis gaps from are within
eps. The sweep compares the same float expressions, so the graph, and with
it every cluster, is exactly what a scan over all objects gives. It costs
O(n log n) plus the pairs within eps along the sweep axis, O(n^2) when
every box shares one band on both axes.

encode_clusters numbers the scene's distinct objects once, the screen's
first, and builds the graph over all of them the first time an eps value is
used. At min_pts 1, the default, the clusters are the graph's connected
components: those over the screen are found once per graph, and each
entity's private (off-screen) objects are folded in by a union-find. At
min_pts > 1 one labeller walks the graph for each entity in its own order,
skipping objects outside its set. Either way each result is what clustering
the entity's objects on their own gives. It reads the screen and each
surrounding, every one a Screen, through `object_columns` and works on
object numbers, texts and box tuples, so no Screen is unpacked into
ScreenObjects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import Iterable, Sequence

from .screen_model import (
    _NUMBER_TYPES, BBox, Entity, ScreenObject, bbox_center, median, object_columns
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


def _neighbor_lists(boxes: Sequence[Sequence[float]], eps: float) -> list[list[int]]:
    """For each box i, the indices j with rect_distance(i, j) <= eps, i first.

    One sweep along the axis the scene spans further (its largest far edge
    less its smallest near edge): boxes are visited in order of their near
    edge, each tested against the earlier boxes still active, and a match
    is recorded on both sides (rect_distance is symmetric). An earlier box
    j leaves the active list once near_i - far_j > eps; float subtraction
    is monotone and near edges only grow, so that difference exceeds eps
    for every later box too, and the distance is at least it. An active
    pair reaches rect_distance only when the two edge differences across
    the sweep are within eps as well. The cost is O(n log n) plus the
    pairs within eps along the sweep axis: O(n^2) when every box shares
    one band on both axes.
    """
    lefts, tops, widths, heights = zip(*boxes)
    # Right and bottom edges are summed as rect_distance sums them.
    rights = [left + width for left, width in zip(lefts, widths)]
    bottoms = [top + height for top, height in zip(tops, heights)]
    near, far, lows, highs = lefts, rights, tops, bottoms
    if max(bottoms) - min(tops) > max(rights) - min(lefts):
        near, far, lows, highs = tops, bottoms, lefts, rights
    neighbors: list[list[int]] = [[i] for i in range(len(boxes))]
    active: list[int] = []
    for i in sorted(range(len(boxes)), key=near.__getitem__):
        start, low, high, box = near[i], lows[i], highs[i], boxes[i]
        active = [j for j in active if start - far[j] <= eps]
        for j in active:
            if (
                low - highs[j] <= eps and lows[j] - high <= eps
                and rect_distance(box, boxes[j]) <= eps
            ):
                neighbors[i].append(j)
                neighbors[j].append(i)
        active.append(i)
    return neighbors


def _check_parameters(eps: float, min_pts: int) -> None:
    # Exact types, as BBox checks its fields: a bool is not a number here.
    if type(eps) not in _NUMBER_TYPES or not eps > 0:
        raise ValueError(f"eps must be a number > 0, got {eps!r}")
    try:
        float(eps)
    except OverflowError:  # not shown, as BBox shows no such int
        raise ValueError("eps must fit in a float, got an int past the float range") from None
    if type(min_pts) is not int or min_pts < 1:
        raise ValueError(f"min_pts must be an int >= 1, got {min_pts!r}")


def _label_clusters(
    graph: Sequence[Sequence[int]], order: Sequence[int], min_pts: int
) -> list[list[int]]:
    """DBSCAN labelling of the objects numbered n in order over their eps
    graph, a list indexed by object number. Returns the members of clusters
    0, 1, ... in turn and then the noise (maybe none), each in `order`.

    graph[n] holds the n' within eps of n, n itself included, in any order;
    objects not in `order` are neither labelled nor counted as neighbours.
    Unlabelled points start a cluster in `order`, which alone fixes cluster
    ids, which cluster claims a border point, and member order: an expansion
    claims every unclaimed point density-reachable from its start, whatever
    order it reaches them in.
    """
    labels: list[int | None] = [_OUTSIDE] * len(graph)
    for n in order:
        labels[n] = None
    core = {n: sum(labels[m] != _OUTSIDE for m in graph[n]) >= min_pts for n in order}
    cluster_id = 0
    for n in order:
        if labels[n] is not None:
            continue
        if not core[n]:
            labels[n] = NOISE_CLUSTER_ID
            continue
        labels[n] = cluster_id
        cores = [n]  # claimed core points whose neighbours are still unclaimed
        while cores:
            for m in graph[cores.pop()]:
                label = labels[m]
                if label is None:
                    labels[m] = cluster_id
                    if core[m]:
                        cores.append(m)
                elif label == NOISE_CLUSTER_ID:
                    labels[m] = cluster_id  # noise reachable from a core point -> border
        cluster_id += 1

    # members[c] for cluster c; members[-1], so members[NOISE_CLUSTER_ID], is noise.
    members: list[list[int]] = [[] for _ in range(cluster_id + 1)]
    for n in order:
        members[labels[n]].append(n)
    return members


def _components(graph: Sequence[Sequence[int]], count: int) -> tuple[list, list[list[int]]]:
    """Each object's label and the members, in order, of each connected
    component over the objects 0..count-1; an object n >= count is ~n.
    """
    labels: list = [None] * count + [~n for n in range(count, len(graph))]
    groups: list[list[int]] = []
    for n in range(count):
        if labels[n] is not None:
            continue
        label = labels[n] = len(groups)
        members = [n]
        stack = [n]
        while stack:
            for m in graph[stack.pop()]:
                if labels[m] is None:
                    labels[m] = label
                    members.append(m)
                    stack.append(m)
        members.sort()
        groups.append(members)
    return labels, groups


def _entity_clusters(
    graph: Sequence[Sequence[int]],
    labels: list[int],
    groups: list[list[int]],
    first: list[int],
    private: set[int],
) -> list[list[int]]:
    """_label_clusters(graph, first + the other screen objects, 1) less its
    empty noise, from the screen's components (labels, groups): at min_pts 1
    the clusters are the connected components. A private object's edge
    counts only when its other end is in the entity's set.
    """
    parent: dict[int, int] = {}

    def find(key: int) -> int:
        while key in parent:
            up = parent[key]
            parent[key] = parent.get(up, up)  # path splitting
            key = up
        return key

    for p in private:
        root = find(labels[p])
        for m in graph[p]:
            if labels[m] >= 0 or m in private:
                key = find(labels[m])
                if key != root:
                    parent[key] = root
    touched: dict[int, list[int]] = {}
    for n in first:
        touched.setdefault(find(labels[n]), []).append(n)
    # Every merge takes in a private object, so its root is touched.
    joined: dict[int, list[int]] = {root: [root] for root in touched if root >= 0}
    for label in parent:
        if label >= 0:
            joined.setdefault(find(label), []).append(label)
    taken = set(first)
    for root, members in touched.items():
        rest = sorted(chain.from_iterable(map(groups.__getitem__, joined.get(root, ()))))
        members += filterfalse(taken.__contains__, rest)
    clusters = list(touched.values())
    clusters += [
        group for label, group in enumerate(groups) if label not in touched and label not in parent
    ]
    return clusters


def dbscan_cluster(
    objects: Sequence[ScreenObject], eps: float, min_pts: int = 1
) -> list[Cluster]:
    """Density-based clustering under rect_distance.

    Clusters are grown from core points in input order, so the result is
    deterministic for a given input sequence. Real clusters get ids 0..k-1
    in discovery order; noise objects, if any, are returned last under the
    reserved id NOISE_CLUSTER_ID. A point's eps-neighborhood includes itself,
    so min_pts=1 makes every point a core point.

    Region queries are answered by one sorted sweep (see _neighbor_lists)
    and are exact: the same neighbours as a scan over all objects, so the
    same clusters. They cost O(n log n) plus the pairs within eps along the
    sweep axis rather than the scan's O(n^2); O(n^2) remains the worst
    case, when every box shares one band on both axes.
    """
    _check_parameters(eps, min_pts)
    if not objects:
        return []
    graph = _neighbor_lists([obj.box for obj in objects], eps)
    *groups, noise = _label_clusters(graph, range(len(objects)), min_pts)
    clusters = [
        Cluster(cid, tuple(map(objects.__getitem__, group))) for cid, group in enumerate(groups)
    ]
    if noise:
        clusters.append(Cluster(NOISE_CLUSTER_ID, tuple(map(objects.__getitem__, noise))))
    return clusters


def _nearest(box: BBox, groups: Iterable[Iterable[Sequence[float]]]) -> int | None:
    """Position of the group holding the box nearest `box`; the first such
    group wins a tie. None when no group has a member.

    encode_clusters passes an entity's box and the member boxes of its real
    clusters in id order, so the entity joins the nearest cluster by minimum
    member distance and the lowest id wins a tie. Groups are scanned in
    order, member by member, and the first member at distance 0.0 ends the
    scan: no distance is smaller, and a later group would need a smaller one
    to win. A scene where no member touches the box still tests every
    member, O(n) per entity. The first member seen sets `best` even at a
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


def _encoding(entity_index: int, entity: Entity, texts: Iterable[str]) -> ClusterEncoding:
    """The encoding of the entity whose cluster has these member texts (none
    when it has no cluster): the texts sharing no token with the entity's
    display text, compared as lower-cased whitespace-split words, so its own
    on-screen duplicate never lands in its context, plus its box centre.
    """
    own = set(entity.display_text.lower().split())
    center = bbox_center(entity.placement.box)
    return ClusterEncoding(
        entity_index=entity_index,
        surrounding_prompt=tuple(text for text in texts if own.isdisjoint(text.lower().split())),
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

    The eps-neighbourhood graph is built the first time an eps value is
    used, over every object of the scene, with its connected components
    over the screen at min_pts 1; the screen's median height is found once.
    A neighbourhood restricted to a subset is the subset's own
    neighbourhood, so every encoding is exactly what dbscan_cluster over the
    entity's own object set gives. With one eps for all entities, as any
    explicit eps gives, the graph is just the union of their object sets; it
    holds more only when eps=None and private objects give entities
    different medians.
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

    # The screen is numbered first, so its distinct objects are 0..count-1
    # in screen order.
    numbered(screen)
    count = len(texts)
    # Every surrounding is numbered before the first graph is built, so each
    # graph covers every object of the scene.
    surroundings = [
        None if entity.placement is None else numbered(entity.placement.surrounding)
        for entity in entities
    ]
    if eps is None:
        # The derived eps of every entity whose surrounding lies on the screen.
        screen_heights = sorted(box[3] for box in boxes[:count])
        screen_eps = median(screen_heights) or 1.0
    # Per eps: the graph and, at min_pts 1, the screen's components in it.
    graphs: dict[float, tuple] = {}
    encodings = []
    for index, (entity, surrounding) in enumerate(zip(entities, surroundings), 1):
        if surrounding is None:
            raise ValueError(f"entity {index} has no placement")
        first = list(dict.fromkeys(surrounding))
        private = {number for number in first if number >= count}
        member_texts: Iterable[str] = ()
        if first or count:
            entity_eps = eps
            if eps is None and private:
                # Sorting the screen's sorted heights again is linear.
                heights = chain(screen_heights, (boxes[number][3] for number in private))
                entity_eps = median(heights) or 1.0
            elif eps is None:
                entity_eps = screen_eps
            _check_parameters(entity_eps, min_pts)
            if entity_eps not in graphs:
                graph = _neighbor_lists(boxes, entity_eps)
                components = _components(graph, count) if min_pts == 1 else None
                graphs[entity_eps] = graph, components
            graph, components = graphs[entity_eps]
            if components is None:
                # Its surrounding objects, then the screen's, without repeats.
                own = list(dict.fromkeys(chain(first, range(count))))
                *groups, _ = _label_clusters(graph, own, min_pts)
            else:
                groups = _entity_clusters(graph, *components, first, private)
            position = _nearest(
                entity.placement.box, (map(boxes.__getitem__, group) for group in groups)
            )
            if position is not None:
                member_texts = map(texts.__getitem__, groups[position])
        encodings.append(_encoding(index, entity, member_texts))
    return encodings
