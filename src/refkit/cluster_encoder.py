"""Clustering-based screen encoding, kept for ablation comparison.

Instead of one spatially ordered parse, each entity gets the texts of its
own spatial neighborhood: surrounding boxes are clustered by rectangle
distance, the entity is assigned to its nearest cluster, and same-cluster
texts (minus anything overlapping the entity's own text) become its context
along with the entity's absolute position. The per-entity context lists
make total prompt size grow super-linearly with cluster size, which is why
the layout parse is the production path.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .screen_model import (
    BBox, Entity, ScreenObject, bbox_center, median_height, unique_objects
)

NOISE_CLUSTER_ID = -1


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


def rect_distance(a: BBox, b: BBox) -> float:
    """Minimum edge-to-edge Euclidean distance; 0 when boxes overlap or touch."""
    gap_x = max(a.left - (b.left + b.width), b.left - (a.left + a.width), 0.0)
    gap_y = max(a.top - (b.top + b.height), b.top - (a.top + a.height), 0.0)
    return math.hypot(gap_x, gap_y)


def dbscan_cluster(
    objects: Sequence[ScreenObject], eps: float, min_pts: int = 1
) -> list[Cluster]:
    """Density-based clustering under rect_distance.

    Core points are expanded breadth-first in input order, so the result is
    deterministic for a given input sequence. Real clusters get ids 0..k-1
    in discovery order; noise objects, if any, are returned last under the
    reserved id NOISE_CLUSTER_ID. A point's eps-neighborhood includes itself,
    so min_pts=1 makes every point a core point.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")

    n = len(objects)
    labels: list[int | None] = [None] * n

    def region(i: int) -> list[int]:
        return [
            j for j in range(n) if rect_distance(objects[i].box, objects[j].box) <= eps
        ]

    cluster_id = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        neighbors = region(i)
        if len(neighbors) < min_pts:
            labels[i] = NOISE_CLUSTER_ID
            continue
        labels[i] = cluster_id
        seeds = deque(neighbors)
        while seeds:
            j = seeds.popleft()
            if labels[j] == NOISE_CLUSTER_ID:
                labels[j] = cluster_id  # noise reachable from a core point -> border
                continue
            if labels[j] is not None:
                continue
            labels[j] = cluster_id
            expansion = region(j)
            if len(expansion) >= min_pts:
                seeds.extend(expansion)
        cluster_id += 1

    clusters = [
        Cluster(cid, tuple(objects[i] for i in range(n) if labels[i] == cid))
        for cid in range(cluster_id)
    ]
    noise = tuple(objects[i] for i in range(n) if labels[i] == NOISE_CLUSTER_ID)
    if noise:
        clusters.append(Cluster(NOISE_CLUSTER_ID, noise))
    return clusters


def assign_entity_cluster(entity: Entity, clusters: Sequence[Cluster]) -> Cluster | None:
    """Nearest real cluster by minimum member distance; ties go to the lowest id.

    Returns None when only noise (or nothing) is available, signalling that
    the encoding should degrade to positioning information alone.
    """
    if entity.placement is None:
        raise ValueError("entity has no placement")
    candidates = sorted(
        (c for c in clusters if c.id != NOISE_CLUSTER_ID and c.members),
        key=lambda c: c.id,
    )
    if not candidates:
        return None
    best = None
    best_distance = math.inf
    for cluster in candidates:
        distance = min(
            rect_distance(entity.placement.box, member.box) for member in cluster.members
        )
        if distance < best_distance:
            best = cluster
            best_distance = distance
    return best


def _tokens(text: str) -> set[str]:
    return {token for token in text.lower().split() if token}


def has_token_overlap(a: str, b: str) -> bool:
    """Case-insensitive whitespace-token overlap between two strings."""
    return bool(_tokens(a) & _tokens(b))


def build_cluster_encoding(
    entity_index: int, entity: Entity, clusters: Sequence[Cluster]
) -> ClusterEncoding:
    """Context texts from the entity's cluster plus its absolute position.

    Same-cluster texts sharing any token with the entity's own text are
    filtered out, so the entity's duplicate on-screen string never lands in
    its own context.
    """
    cluster = assign_entity_cluster(entity, clusters)
    texts: tuple[str, ...] = ()
    if cluster is not None:
        texts = tuple(
            member.text
            for member in cluster.members
            if not has_token_overlap(entity.display_text, member.text)
        )
    center = bbox_center(entity.placement.box)
    return ClusterEncoding(
        entity_index=entity_index,
        surrounding_prompt=texts,
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
    the threshold from the scene (median object height).
    """
    encodings = []
    for index, entity in enumerate(entities, 1):
        if entity.placement is None:
            raise ValueError(f"entity {index} has no placement")
        objects = unique_objects(entity.placement.surrounding, screen)
        clusters: list[Cluster] = []
        if objects:
            scene_eps = (median_height(objects) or 1.0) if eps is None else eps
            clusters = dbscan_cluster(objects, scene_eps, min_pts)
        encodings.append(build_cluster_encoding(index, entity, clusters))
    return encodings
