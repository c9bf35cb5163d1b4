import math
import random
import re
import statistics
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import refkit.cluster_encoder as cluster_encoder

from refkit import (
    BBox,
    ClusterEncoding,
    Entity,
    Placement,
    ScreenObject,
    dbscan_cluster,
    encode_clusters,
    encode_screen,
    rect_distance,
)
from refkit.cluster_encoder import NOISE_CLUSTER_ID
from refkit.screen_model import parse_dataset

from conftest import branches_datapoint

coords = st.floats(-500, 500, allow_nan=False, allow_infinity=False)
sizes = st.floats(0, 100, allow_nan=False, allow_infinity=False)
box_strategy = st.builds(BBox, coords, coords, sizes, sizes)


def sampled_min_distance(a: BBox, b: BBox, steps: int = 60) -> float:
    """Independent check: nearest pair over dense grids of boundary points."""
    def grid(box):
        xs = [box.left + box.width * i / steps for i in range(steps + 1)]
        ys = [box.top + box.height * i / steps for i in range(steps + 1)]
        points = [(x, box.top) for x in xs] + [(x, box.top + box.height) for x in xs]
        points += [(box.left, y) for y in ys] + [(box.left + box.width, y) for y in ys]
        return points

    return min(
        math.hypot(px - qx, py - qy) for px, py in grid(a) for qx, qy in grid(b)
    )


def boxes_overlap(a: BBox, b: BBox) -> bool:
    return (
        a.left <= b.left + b.width
        and b.left <= a.left + a.width
        and a.top <= b.top + b.height
        and b.top <= a.top + a.height
    )


def random_scene(rng: random.Random, n: int) -> list[ScreenObject]:
    return [
        ScreenObject(
            f"obj{i}",
            BBox(rng.uniform(0, 300), rng.uniform(0, 300), rng.uniform(1, 40), rng.uniform(1, 20)),
        )
        for i in range(n)
    ]


def text_grid(n: int, columns: int = 40) -> list[ScreenObject]:
    """Rows of 40x10 words, 10 units apart across and 5 down: a dense text screen."""
    return [
        ScreenObject(f"w{i}", BBox((i % columns) * 50.0, (i // columns) * 15.0, 40.0, 10.0))
        for i in range(n)
    ]


def unique_objects(*groups):
    """The objects of all groups in order, deduplicated by (text, box)."""
    return list(dict.fromkeys(obj for group in groups for obj in group))


def cluster_labels(objects, clusters):
    label_of = {id(member): cluster.id for cluster in clusters for member in cluster.members}
    return [label_of[id(obj)] for obj in objects]


def reference_dbscan(objects, eps, min_pts):
    """Brute-force reachability: find core points, take connected components
    of the core graph, then attach each border point to the earliest-formed
    cluster holding a core point that reaches it."""
    n = len(objects)
    close = [
        [rect_distance(objects[i].box, objects[j].box) <= eps for j in range(n)]
        for i in range(n)
    ]
    core = [sum(close[i]) >= min_pts for i in range(n)]
    labels = [None] * n
    cluster_id = 0
    for i in range(n):
        if not core[i] or labels[i] is not None:
            continue
        component = {i}
        frontier = [i]
        while frontier:
            current = frontier.pop()
            for j in range(n):
                if core[j] and j not in component and close[current][j]:
                    component.add(j)
                    frontier.append(j)
        for j in sorted(component):
            labels[j] = cluster_id
        cluster_id += 1
    for i in range(n):
        if labels[i] is not None:
            continue
        reaching = sorted(labels[j] for j in range(n) if core[j] and close[j][i])
        labels[i] = reaching[0] if reaching else NOISE_CLUSTER_ID
    return labels


class TestRectDistance:
    def test_identity(self):
        box = BBox(2, 3, 10, 5)
        assert rect_distance(box, box) == 0.0

    def test_horizontal_gap(self):
        assert rect_distance(BBox(0, 0, 10, 10), BBox(20, 0, 10, 10)) == 10.0

    def test_corner_gap(self):
        distance = rect_distance(BBox(0, 0, 10, 10), BBox(20, 20, 5, 5))
        assert distance == pytest.approx(math.hypot(10, 10), abs=1e-9)
        assert distance == pytest.approx(14.142, abs=1e-3)

    def test_touching_is_zero(self):
        assert rect_distance(BBox(0, 0, 10, 10), BBox(10, 0, 5, 5)) == 0.0

    def test_overlap_is_zero(self):
        assert rect_distance(BBox(0, 0, 10, 10), BBox(5, 5, 10, 10)) == 0.0

    @given(box_strategy, box_strategy)
    def test_symmetric_premetric(self, a, b):
        d = rect_distance(a, b)
        assert d >= 0
        assert d == rect_distance(b, a)
        assert rect_distance(a, a) == 0.0

    def test_matches_sampled_nearest_points(self):
        rng = random.Random(31)
        for _ in range(40):
            a = BBox(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(1, 30), rng.uniform(1, 30))
            b = BBox(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(1, 30), rng.uniform(1, 30))
            if boxes_overlap(a, b):
                assert rect_distance(a, b) == 0.0
            else:
                assert rect_distance(a, b) == pytest.approx(
                    sampled_min_distance(a, b), abs=0.5
                )


def _scene(boxes, eps):
    return [ScreenObject(f"o{i}", box) for i, box in enumerate(boxes)], eps


# Integer corners and sizes with an integer eps put many gaps exactly on eps.
integer_scenes = st.builds(
    _scene,
    st.lists(
        st.builds(
            BBox,
            st.integers(0, 30),
            st.integers(0, 30),
            st.integers(0, 6),
            st.integers(0, 6),
        ),
        max_size=25,
    ),
    st.integers(1, 6).map(float),
)
# Zero-size boxes and eps anywhere from tiny to larger than the scene.
float_scenes = st.builds(
    _scene,
    st.lists(
        st.builds(BBox, coords, coords, st.just(0.0) | sizes, st.just(0.0) | sizes),
        max_size=25,
    ),
    st.sampled_from([1e-9, 1e-3]) | st.floats(0.5, 2000),
)
# Corners and sizes near the ends of the float range, with tiny or huge eps.
huge = st.sampled_from([0.0, 1e300, -1e300, 5e299, -5e299, 1.7e308, -1.7e308])
huge_scenes = st.builds(
    _scene,
    st.lists(
        st.builds(
            BBox,
            huge | st.floats(-1e300, 1e300),
            huge | st.floats(-1e300, 1e300),
            st.sampled_from([0.0, 1.0, 1e299, 1e300, 1.7e308]),
            st.sampled_from([0.0, 1.0, 1e299, 1e300, 1.7e308]),
        ),
        max_size=15,
    ),
    st.sampled_from([1e-6, 1.0, 1e299, 1e300, 1.7e308, math.inf]),
)


@st.composite
def scenes(draw):
    """A scene of any family above, sometimes with one box spanning all of it."""
    objects, eps = draw(st.one_of(integer_scenes, float_scenes, huge_scenes))
    if objects and draw(st.booleans()):
        left = min(o.box.left for o in objects)
        top = min(o.box.top for o in objects)
        right = max(o.box.left + o.box.width for o in objects)
        bottom = max(o.box.top + o.box.height for o in objects)
        width = min(right - left, 1.7e308)
        height = min(bottom - top, 1.7e308)
        background = ScreenObject("background", BBox(left, top, width, height))
        objects.insert(draw(st.integers(0, len(objects))), background)
    return objects, eps


TOP = 1.7976931348623157e308
EXTREME_OBJECTS = [
    ScreenObject("far-left", BBox(-TOP, -TOP, 0, 0)),
    ScreenObject("widest", BBox(-TOP, 0, TOP, TOP)),
    ScreenObject("far-right", BBox(TOP, TOP, TOP, 0)),
    ScreenObject("origin", BBox(0, 0, 1, 1)),
    ScreenObject("near-origin", BBox(1.5, 0, 1, 1)),
]
EXTREME_EPS = (5e-324, 1e-6, 1.0, 1e300, TOP, math.inf)
ROW = [BBox(50 * i, 0, 40, 10) for i in range(-12, 13)]
COLUMN = [BBox(0, 50 * i, 10, 40) for i in range(-12, 13)]


class TestDbscan:
    def test_two_separated_groups(self):
        group_a = [ScreenObject(f"a{i}", BBox(i * 5, 0, 4, 4)) for i in range(3)]
        group_b = [ScreenObject(f"b{i}", BBox(500 + i * 5, 0, 4, 4)) for i in range(3)]
        clusters = dbscan_cluster(group_a + group_b, eps=3, min_pts=1)
        assert [c.id for c in clusters] == [0, 1]
        assert {m.text for m in clusters[0].members} == {"a0", "a1", "a2"}
        assert {m.text for m in clusters[1].members} == {"b0", "b1", "b2"}

    def test_all_mutually_close_single_cluster(self):
        objects = [ScreenObject(f"o{i}", BBox(i, i, 2, 2)) for i in range(5)]
        clusters = dbscan_cluster(objects, eps=10, min_pts=1)
        assert len(clusters) == 1
        assert len(clusters[0].members) == 5

    def test_noise_gets_reserved_id(self):
        objects = [
            ScreenObject("a", BBox(0, 0, 2, 2)),
            ScreenObject("b", BBox(1, 0, 2, 2)),
            ScreenObject("solo", BBox(900, 900, 2, 2)),
        ]
        clusters = dbscan_cluster(objects, eps=5, min_pts=2)
        assert clusters[-1].id == NOISE_CLUSTER_ID
        assert [m.text for m in clusters[-1].members] == ["solo"]

    def test_matches_reference_reachability(self):
        rng = random.Random(41)
        for _ in range(40):
            objects = random_scene(rng, 30)
            eps = rng.uniform(5, 60)
            min_pts = rng.randint(1, 4)
            clusters = dbscan_cluster(objects, eps, min_pts)
            assert cluster_labels(objects, clusters) == reference_dbscan(objects, eps, min_pts)

    @settings(max_examples=300, deadline=None)
    @given(scenes(), st.integers(1, 4))
    def test_grid_matches_reference_on_edge_scenes(self, scene, min_pts):
        objects, eps = scene
        clusters = dbscan_cluster(objects, eps, min_pts)
        assert cluster_labels(objects, clusters) == reference_dbscan(objects, eps, min_pts)

    @pytest.mark.parametrize(
        "origin, left, width, next_left, eps",
        [
            (-4.0, -0.291, 1.0, 1.309, 0.6),
            (-5.8, -0.9, 0.484, -0.08266666666666672, 1 / 3),
            (-3.98, -1.288, 1.552, 0.964, 0.7),
        ],
    )
    def test_gap_of_exactly_eps_on_a_cell_edge(self, origin, left, width, next_left, eps):
        # The gap between the facing edges of a and b, as floats compute it,
        # is exactly eps or just below it.
        objects = [
            ScreenObject("origin", BBox(origin, 0, 0, 0)),
            ScreenObject("a", BBox(left, 0, width, 0)),
            ScreenObject("b", BBox(next_left, 0, 0, 0)),
        ]
        assert rect_distance(objects[1].box, objects[2].box) <= eps
        clusters = dbscan_cluster(objects, eps, min_pts=2)
        assert cluster_labels(objects, clusters) == reference_dbscan(objects, eps, 2)

    def test_extreme_magnitudes(self):
        for eps in EXTREME_EPS:
            for min_pts in (1, 2, 3):
                clusters = dbscan_cluster(EXTREME_OBJECTS, eps, min_pts)
                assert cluster_labels(EXTREME_OBJECTS, clusters) == reference_dbscan(
                    EXTREME_OBJECTS, eps, min_pts
                )

    @settings(max_examples=300, deadline=None)
    @given(scenes())
    # A gap of exactly eps across while the rows overlap, in integers and
    # in floats (0.9 - (0.1 + 0.2) rounds to 0.6).
    @example(_scene([BBox(0, 0, 2, 2), BBox(5, 1, 2, 2)], 3.0))
    @example(_scene([BBox(0.1, 0, 0.2, 5), BBox(0.9, 2, 0, 1)], 0.6))
    # Both axis gaps within eps, the distance (their hypot) beyond it.
    @example(_scene([BBox(0, 0, 1, 1), BBox(4, 4, 1, 1)], 3.5))
    @example((EXTREME_OBJECTS, EXTREME_EPS[0]))
    @example((EXTREME_OBJECTS, EXTREME_EPS[1]))
    @example((EXTREME_OBJECTS, EXTREME_EPS[2]))
    @example((EXTREME_OBJECTS, EXTREME_EPS[3]))
    @example((EXTREME_OBJECTS, EXTREME_EPS[4]))
    @example((EXTREME_OBJECTS, EXTREME_EPS[5]))
    # A row wider than tall and a column taller than wide, swept along
    # their long axes, and a cross of the two, where one arm shares a band.
    @example(_scene(ROW, 10.0))
    @example(_scene(COLUMN, 10.0))
    @example(_scene(ROW + COLUMN, 10.0))
    def test_neighbor_lists_match_a_scan(self, scene):
        objects, eps = scene
        assume(objects)
        boxes = [obj.box for obj in objects]
        near = cluster_encoder._neighbor_lists(boxes, eps)
        assert [around[0] for around in near] == list(range(len(boxes)))
        assert [sorted(around) for around in near] == [
            [j for j, other in enumerate(boxes) if rect_distance(box, other) <= eps]
            for box in boxes
        ]

    @pytest.mark.parametrize(
        "boxes",
        [
            [(50.0 * i, 0.0, 40.0, 10.0) for i in range(20_000)],
            [(0.0, 50.0 * i, 10.0, 40.0) for i in range(20_000)],
        ],
        ids=["row", "column"],
    )
    def test_long_row_and_column_sweep_their_long_axis(self, boxes):
        # Swept along its length, each box meets two others; swept across,
        # every box stays active and the build is quadratic, taking seconds
        # already at 10^4 boxes.
        started = time.process_time()
        near = cluster_encoder._neighbor_lists(boxes, 10.0)
        assert time.process_time() - started < 2.0
        assert [len(around) for around in near] == [2] + [3] * (len(boxes) - 2) + [2]

    def test_distance_tests_grow_linearly(self, monkeypatch):
        calls = 0
        exact = cluster_encoder.rect_distance

        def counting(a, b):
            nonlocal calls
            calls += 1
            return exact(a, b)

        monkeypatch.setattr(cluster_encoder, "rect_distance", counting)
        objects = text_grid(2000)
        clusters = dbscan_cluster(objects, eps=10, min_pts=1)
        assert [len(c.members) for c in clusters] == [2000]
        assert calls < 50 * len(objects)  # a scan over all objects makes n^2

    def test_partition_invariant_under_permutation(self):
        # min_pts=1 has no border ambiguity: clusters are the connected
        # components of the eps-graph, so membership is order-free.
        rng = random.Random(43)
        objects = random_scene(rng, 25)
        baseline = dbscan_cluster(objects, eps=30, min_pts=1)
        base_partition = {frozenset(m.text for m in c.members) for c in baseline}
        for _ in range(5):
            shuffled = objects[:]
            rng.shuffle(shuffled)
            clusters = dbscan_cluster(shuffled, eps=30, min_pts=1)
            partition = {frozenset(m.text for m in c.members) for c in clusters}
            assert partition == base_partition

    def test_clusters_partition_objects(self):
        rng = random.Random(47)
        objects = random_scene(rng, 30)
        clusters = dbscan_cluster(objects, eps=25, min_pts=2)
        seen = [m for c in clusters for m in c.members]
        assert len(seen) == len(objects)
        assert {id(m) for m in seen} == {id(o) for o in objects}

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            dbscan_cluster([], eps=0)
        with pytest.raises(ValueError):
            dbscan_cluster([], eps=math.nan)
        with pytest.raises(ValueError):
            dbscan_cluster([], eps=1, min_pts=0)

    @pytest.mark.parametrize(
        "eps, min_pts, message",
        [
            (True, 1, "eps must be a number > 0, got True"),
            ("3", 1, "eps must be a number > 0, got '3'"),
            (3.0, 1.5, "min_pts must be an int >= 1, got 1.5"),
            (3.0, True, "min_pts must be an int >= 1, got True"),
            (3.0, "2", "min_pts must be an int >= 1, got '2'"),
        ],
        ids=["bool-eps", "string-eps", "float-min-pts", "bool-min-pts", "string-min-pts"],
    )
    def test_wrong_parameter_types_rejected_not_coerced(self, eps, min_pts, message):
        objects = [ScreenObject("a", BBox(0, 0, 1, 1))]
        for call in (lambda: dbscan_cluster(objects, eps, min_pts),
                     lambda: encode_clusters(objects, [place_entity("x", BBox(0, 0, 1, 1))],
                                             eps, min_pts)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message

    @pytest.mark.parametrize("eps", [10**400, 2**1024], ids=["huge", "just-past"])
    def test_int_eps_past_float_range_rejected(self, eps):
        # It used to pass the check and raise OverflowError while clustering.
        objects = [ScreenObject("a", BBox(0, 0, 1, 1)), ScreenObject("b", BBox(5, 0, 1, 1))]
        message = "eps must fit in a float, got an int past the float range"
        for call in (lambda: dbscan_cluster(objects, eps),
                     lambda: encode_clusters(objects, [place_entity("x", BBox(0, 0, 1, 1))],
                                             eps)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message
        # An int at the top of the float range is a valid eps.
        assert len(dbscan_cluster(objects, int(sys.float_info.max))) == 1


@st.composite
def labelling_cases(draw):
    """A symmetric graph whose lists hold their own node, in any order; a
    screen of nodes 0..count-1; an entity's first objects, some on the
    screen and some private (off it), in any order. Other nodes are outside
    every set.
    """
    n = draw(st.integers(1, 14))
    graph = [{i} for i in range(n)]
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        graph[a].add(b)
        graph[b].add(a)
    graph = [draw(st.permutations(sorted(near))) for near in graph]
    count = draw(st.integers(0, n))
    first = draw(st.lists(st.integers(0, n - 1), unique=True))
    return graph, count, first


class TestComponents:
    @settings(max_examples=500)
    @given(labelling_cases())
    # Private 1 and 2 meet only through 3, which is outside the set.
    @example(([[0], [1, 3], [2, 3], [3, 1, 2]], 1, [1, 2]))
    # Private 3 bridges screen components {0, 2} and {1}, which interleave.
    @example(([[0, 2], [1, 3], [2, 0], [3, 1, 2]], 3, [3]))
    def test_component_path_matches_the_general_labeller(self, case):
        graph, count, first = case
        labels, groups = cluster_encoder._components(graph, count)
        private = {number for number in first if number >= count}
        order = first + [number for number in range(count) if number not in first]
        expected = cluster_encoder._label_clusters(graph, order, 1)
        assert expected[-1] == []  # at min_pts 1 nothing is noise
        assert cluster_encoder._entity_clusters(graph, labels, groups, first, private) == (
            expected[:-1]
        )
        assert groups == cluster_encoder._label_clusters(graph, range(count), 1)[:-1]


def place_entity(text: str, box: BBox, type_name: str = "general text") -> Entity:
    return Entity(type_name, (), display_text=text, placement=Placement(box))


def min_over_members(box: BBox, groups) -> int | None:
    """Reference: the position of the group nearest box by each one's
    minimum member distance, with no early exit; the first wins a tie, also
    at inf. None when no group has a member."""
    best, best_distance = None, math.inf
    for position, members in enumerate(groups):
        if members:
            distance = min(rect_distance(box, member) for member in members)
            if best is None or distance < best_distance:
                best, best_distance = position, distance
    return best


def surrounding_texts(screen, entity, eps=None, min_pts=1):
    """encode_clusters' surrounding texts for one entity alone."""
    [encoding] = encode_clusters(screen, [entity], eps, min_pts)
    return encoding.surrounding_prompt


# Small integer boxes touch and tie; coordinates near the float limit put
# boxes at a distance that overflows to inf.
FAR = 1.7e308
assign_coords = st.integers(0, 30) | st.sampled_from([-FAR, FAR])
assign_boxes = st.builds(
    BBox, assign_coords, assign_coords, st.integers(0, 6), st.integers(0, 6) | st.just(1e308)
)
assign_groups = st.lists(st.lists(assign_boxes, max_size=4), max_size=5)


class TestAssign:
    """The entity joins the real cluster with the nearest member; the lowest
    id wins a tie."""

    def test_entity_inside_cluster(self):
        objects = [ScreenObject("a", BBox(0, 0, 10, 10)), ScreenObject("b", BBox(300, 0, 10, 10))]
        entity = place_entity("x", BBox(2, 2, 3, 3))
        assert surrounding_texts(objects, entity, eps=5) == ("a",)

    def test_equidistant_tie_goes_to_lower_id(self):
        objects = [ScreenObject("a", BBox(0, 0, 10, 10)), ScreenObject("b", BBox(100, 0, 10, 10))]
        entity = place_entity("x", BBox(50, 0, 10, 10))  # 40 units from each
        # Cluster ids follow the entity's object order, not position on screen.
        assert surrounding_texts(objects, entity, eps=5) == ("a",)
        assert surrounding_texts(objects[::-1], entity, eps=5) == ("b",)

    def test_no_real_clusters_returns_none(self):
        # No object at all, or only noise: the context is empty.
        entity = place_entity("x", BBox(0, 0, 5, 5))
        assert surrounding_texts([], entity, eps=5) == ()
        far_apart = [
            ScreenObject("far", BBox(0, 0, 2, 2)), ScreenObject("far2", BBox(500, 500, 2, 2))
        ]
        assert surrounding_texts(far_apart, entity, eps=5, min_pts=2) == ()

    def test_matches_exhaustive_scan(self):
        rng = random.Random(53)
        for _ in range(30):
            objects = random_scene(rng, 20)
            clusters = dbscan_cluster(objects, eps=40, min_pts=1)
            entity = place_entity(
                "probe", BBox(rng.uniform(0, 300), rng.uniform(0, 300), 5, 5)
            )
            _, best = min(
                (min(rect_distance(entity.placement.box, m.box) for m in c.members), c.id)
                for c in clusters if c.id != NOISE_CLUSTER_ID
            )
            assert surrounding_texts(objects, entity, eps=40) == tuple(
                m.text for m in clusters[best].members
            )

    def test_overflowing_distances_still_assign(self):
        # Every distance to the entity overflows to inf; the first cluster
        # found still wins.
        entity = place_entity("x", BBox(FAR, FAR, 0, 0))
        objects = [ScreenObject("first", BBox(-FAR, 0, 0, 0)),
                   ScreenObject("second", BBox(-FAR, -FAR, 0, 0))]
        assert surrounding_texts(objects, entity, eps=1.0) == ("first",)

    @settings(max_examples=400, deadline=None)
    @given(assign_boxes, assign_groups)
    @example(BBox(0, 0, 1, 1), [])  # nothing
    @example(BBox(0, 0, 1, 1), [[]])  # an empty group
    @example(BBox(0, 0, 1, 1), [[], [BBox(0, 0, 1, 1)]])  # an empty group, then a touching one
    @example(  # a tie at distance 1, the farther-right member listed first
        BBox(10, 0, 1, 1), [[BBox(12, 0, 1, 1)], [BBox(8, 0, 1, 1)]]
    )
    @example(  # the first group is 1 away, the second touches the box
        BBox(10, 0, 1, 1), [[BBox(12, 0, 1, 1)], [BBox(11, 0, 1, 1)]]
    )
    @example(  # both groups touch the box, the first after a farther member
        BBox(10, 0, 1, 1), [[BBox(20, 0, 1, 1), BBox(11, 0, 1, 1)], [BBox(10, 0, 1, 1)]]
    )
    @example(BBox(FAR, FAR, 0, 0), [[BBox(-FAR, -FAR, 0, 0)]])  # every distance overflows to inf
    def test_early_exit_matches_min_over_members(self, box, groups):
        # encode_clusters hands _nearest one-pass iterables, clusters in id order.
        nearest = cluster_encoder._nearest(box, (iter(members) for members in groups))
        assert nearest == min_over_members(box, groups)

    def test_early_exit_on_benchmark_scenes(self, monkeypatch, benchmark_input):
        # Every entity of cluster-encode's seed-1 scenes touches a member of
        # its cluster, so the nearest-cluster scan stops there: 1,843
        # distance tests for the 104 entities rather than the 13,314 of
        # testing every member of every cluster. Building the neighbourhood
        # graphs makes the other 6,391.
        datapoints = parse_dataset(benchmark_input("cluster-encode"))
        calls = 0
        exact = cluster_encoder.rect_distance

        def counting(a, b):
            nonlocal calls
            calls += 1
            return exact(a, b)

        monkeypatch.setattr(cluster_encoder, "rect_distance", counting)
        for datapoint in datapoints:
            encode_clusters(datapoint.screen, datapoint.entities)
        assert sum(len(datapoint.entities) for datapoint in datapoints) == 104
        assert calls <= 8234


def per_entity_encodings(screen, entities, eps=None, min_pts=1):
    """Reference: cluster each entity's own object set on its own with
    dbscan_cluster, which TestDbscan checks against reference_dbscan; join
    the nearest real cluster by min_over_members; keep the member texts that
    share no lower-cased word with the entity's text; place the entity at
    the centre of its box."""
    encodings = []
    for index, entity in enumerate(entities, 1):
        if entity.placement is None:
            raise ValueError(f"entity {index} has no placement")
        box = entity.placement.box
        objects = unique_objects(entity.placement.surrounding, screen)
        texts = []
        if objects:
            if eps is None:
                entity_eps = statistics.median(o.box.height for o in objects) or 1.0
            else:
                entity_eps = eps
            real = [
                c for c in dbscan_cluster(objects, entity_eps, min_pts) if c.id != NOISE_CLUSTER_ID
            ]
            nearest = min_over_members(box, [[m.box for m in c.members] for c in real])
            if nearest is not None:
                texts = [m.text for m in real[nearest].members]
        own = set(entity.display_text.lower().split())
        encodings.append(ClusterEncoding(
            entity_index=index,
            surrounding_prompt=tuple(t for t in texts if not own & set(t.lower().split())),
            distance_from_top=box.top + box.height / 2,
            distance_from_left=box.left + box.width / 2,
        ))
    return encodings


# Few words and integer boxes, so objects repeat, touch and share tokens,
# some only when compared case-insensitively.
words = st.sampled_from(["north", "south", "east", "north east", "west side", "North", "WEST"])
small_boxes = st.builds(
    BBox,
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(0, 8),
    st.sampled_from([0, 2, 5, 11]),
)
screen_objects = st.builds(ScreenObject, words, small_boxes)


@st.composite
def cluster_scenes(draw):
    """A screen (maybe empty) and entities whose surroundings are shuffled
    subsets of it, private off-screen objects, or both; now and then an
    entity without a placement."""
    screen = draw(st.lists(screen_objects, max_size=20))
    entities = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 19)) == 0:
            entities.append(Entity("general text", ()))
            continue
        shared = draw(st.lists(st.sampled_from(screen), unique_by=id)) if screen else []
        private = draw(st.lists(screen_objects, max_size=4))
        surrounding = draw(st.permutations(shared + private))
        placement = Placement(draw(small_boxes), tuple(surrounding))
        entities.append(Entity("general text", (), draw(words), placement))
    return screen, entities


def assert_matches_per_entity_clustering(screen, entities, eps, min_pts):
    try:
        expected = per_entity_encodings(screen, entities, eps, min_pts)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            encode_clusters(screen, entities, eps, min_pts)
    else:
        assert encode_clusters(screen, entities, eps, min_pts) == expected


class TestEncoding:
    @settings(max_examples=300, deadline=None)
    @given(
        cluster_scenes(),
        st.none() | st.sampled_from([0.5, 3.0, 7.0]) | st.floats(0.1, 40),
        st.integers(1, 4),
    )
    def test_shared_graph_matches_per_entity_clustering(self, scene, eps, min_pts):
        assert_matches_per_entity_clustering(*scene, eps, min_pts)

    @settings(max_examples=50, deadline=None)
    @given(
        cluster_scenes(),
        st.sampled_from([(0.0, 1), (math.nan, 2), (3.0, 0), (None, 0), (True, 1), ("3", 1),
                         (3.0, 1.5), (None, True)]),
    )
    # Bad parameters raise nothing while no entity has an object to cluster.
    @example(([], [place_entity("x", BBox(0, 0, 1, 1))]), (math.nan, 1))
    @example(([], [place_entity("x", BBox(0, 0, 1, 1))]), (None, 0))
    @example(([], [place_entity("x", BBox(0, 0, 1, 1))]), ("3", 1.5))
    def test_bad_parameters_fail_as_per_entity_clustering(self, scene, parameters):
        assert_matches_per_entity_clustering(*scene, *parameters)

    def test_one_graph_per_scene(self, monkeypatch):
        tests = 0
        builds = []
        exact_distance = cluster_encoder.rect_distance
        exact_graph = cluster_encoder._neighbor_lists

        def counting_distance(a, b):
            nonlocal tests
            tests += 1
            return exact_distance(a, b)

        def counting_graph(boxes, eps):
            before = tests
            neighbors = exact_graph(boxes, eps)
            builds.append((len(boxes), tests - before))
            return neighbors

        monkeypatch.setattr(cluster_encoder, "rect_distance", counting_distance)
        monkeypatch.setattr(cluster_encoder, "_neighbor_lists", counting_graph)
        screen = text_grid(200)
        entities = [
            Entity(
                "general text",
                (),
                f"entity {k}",
                Placement(screen[7 * k].box, tuple(screen[7 * k + 1 : 7 * k + 4])),
            )
            for k in range(10)
        ]
        encode_clusters(screen, entities[:1])
        [(objects, one_entity)] = builds
        assert objects == 200
        builds.clear()
        encode_clusters(screen, entities)
        assert builds == [(200, one_entity)]  # not one build per entity

        # With eps=None, two entities whose private objects differ in height
        # derive two eps values (median heights 20 and 4): one build for
        # each, over every distinct object of the scene.
        screen = [ScreenObject("screen top", BBox(0, 0, 30, 10)),
                  ScreenObject("screen foot", BBox(0, 100, 30, 10))]
        tall = tuple(ScreenObject(f"tall {k}", BBox(40, 25 * k, 30, 20)) for k in range(3))
        short = tuple(ScreenObject(f"short {k}", BBox(80, 6 * k, 30, 4)) for k in range(3))
        entities = [
            Entity("general text", (), "first", Placement(BBox(40, 80, 30, 20), tall)),
            Entity("general text", (), "second", Placement(BBox(80, 20, 30, 4), short)),
            Entity("general text", (), "third", Placement(BBox(40, 0, 30, 20), tall)),
        ]
        builds.clear()
        encodings = encode_clusters(screen, entities)
        assert [objects for objects, _ in builds] == [8, 8]
        assert encodings == per_entity_encodings(screen, entities)

    def test_benchmark_scenes_match_per_entity_clustering(self, benchmark_input):
        # cluster-encode's seed-1 scenes at full size: in some every
        # surrounding object is on the screen, so all entities share one
        # object set; in the others entities have private neighbours.
        datapoints = parse_dataset(benchmark_input("cluster-encode"))
        shared = [
            all(set(e.placement.surrounding) <= set(d.screen) for e in d.entities)
            for d in datapoints
        ]
        assert 0 < sum(shared) < len(datapoints)
        for datapoint in datapoints:
            assert encode_clusters(datapoint.screen, datapoint.entities) == (
                per_entity_encodings(datapoint.screen, datapoint.entities)
            )

    def test_private_neighbours_and_medians(self):
        # Two screen groups 30 apart; eps=None derives eps 10 from heights
        # of 10 unless private objects move the median.
        screen = [ScreenObject("alpha", BBox(0, 0, 10, 10)),
                  ScreenObject("able", BBox(0, 15, 10, 10)),
                  ScreenObject("bravo", BBox(40, 0, 10, 10)),
                  ScreenObject("baker", BBox(40, 15, 10, 10))]
        link = ScreenObject("link", BBox(20, 0, 10, 10))  # 10 from both groups
        tall = tuple(ScreenObject(f"tall {k}", BBox(200 + 50 * k, 200, 10, 30)) for k in range(5))
        near_a, near_b = BBox(0, 30, 10, 10), BBox(40, 30, 10, 10)
        entities = [
            # On-screen surrounding: the screen's two components.
            Entity("general text", (), "first", Placement(near_a, (screen[2],))),
            # A private object bridges them, in this entity's set alone.
            Entity("general text", (), "second", Placement(near_a, (link, screen[3]))),
            # Private objects of height 30 make the median 30, which joins them.
            Entity("general text", (), "third", Placement(near_a, tall)),
            Entity("general text", (), "fourth", Placement(near_b)),
        ]
        encodings = encode_clusters(screen, entities)
        assert [e.surrounding_prompt for e in encodings] == [
            ("alpha", "able"),
            ("link", "baker", "alpha", "able", "bravo"),
            ("alpha", "able", "bravo", "baker"),
            ("bravo", "baker"),
        ]
        assert encodings == per_entity_encodings(screen, entities)
        assert encode_clusters(screen, entities[::-1]) == per_entity_encodings(screen, entities[::-1])

    def test_min_pts_1_never_reaches_the_general_labeller(self, monkeypatch, benchmark_input):
        datapoints = parse_dataset(benchmark_input("cluster-encode"))
        expected = [
            [encode_clusters(d.screen, d.entities, eps) for d in datapoints] for eps in (None, 5.0)
        ]

        def refuse(*args):
            raise AssertionError("_label_clusters called")

        monkeypatch.setattr(cluster_encoder, "_label_clusters", refuse)
        assert [
            [encode_clusters(d.screen, d.entities, eps) for d in datapoints] for eps in (None, 5.0)
        ] == expected
        with pytest.raises(AssertionError, match="_label_clusters called"):
            encode_clusters(datapoints[0].screen, datapoints[0].entities, min_pts=2)

    def test_branch_fixture_surroundings(self, branches):
        encodings = encode_clusters(branches.screen, branches.entities, eps=15)
        assert encodings[0].surrounding_prompt == ("Queen Anne", "(206) 380 4699")
        assert encodings[1].surrounding_prompt == ("Queen Anne", "5520 Roy St, Seattle 98109")
        assert encodings[2].surrounding_prompt == ("Belltown", "2209 1st Ave S, Seattle 98121")
        assert encodings[3].surrounding_prompt == ("Belltown", "(206) 380 4898")

    def test_branch_fixture_default_eps(self, branches):
        encodings = encode_clusters(branches.screen, branches.entities)
        assert encodings[0].surrounding_prompt == ("Queen Anne", "(206) 380 4699")

    def test_positioning_is_entity_center(self, branches):
        encodings = encode_clusters(branches.screen, branches.entities, eps=15)
        assert encodings[0].distance_from_top == 120.0
        assert encodings[0].distance_from_left == 150.0

    def test_own_duplicate_only_cluster_is_empty(self):
        duplicate = ScreenObject("555 0100", BBox(0, 20, 30, 10))
        entity = Entity(
            "phone number",
            (),
            display_text="555 0100",
            placement=Placement(BBox(0, 0, 30, 10), (duplicate,)),
        )
        [encoding] = encode_clusters([], [entity], eps=50)
        assert encoding.surrounding_prompt == ()

    def test_overlap_filter_blocks_shared_tokens(self):
        # The neighbour shares the entity's cluster with a token-free control;
        # it is dropped from the context exactly when it shares a token,
        # compared case-insensitively.
        for own, neighbour, kept in [
            ("5520 Roy St", "Roy & Sons", False),
            ("(206) 380 4699", "Queen Anne", True),
            ("Dark Mode", "dark theme", False),
        ]:
            objects = (
                ScreenObject(neighbour, BBox(0, 20, 30, 10)),
                ScreenObject("Open", BBox(0, 40, 30, 10)),
            )
            entity = Entity(
                "general text",
                (),
                display_text=own,
                placement=Placement(BBox(0, 0, 30, 10), objects),
            )
            [encoding] = encode_clusters([], [entity], eps=15)
            expected = (neighbour, "Open") if kept else ("Open",)
            assert encoding.surrounding_prompt == expected

    def test_no_entity_token_in_any_surrounding(self, branches):
        for entity, encoding in zip(
            branches.entities, encode_clusters(branches.screen, branches.entities, eps=15)
        ):
            entity_tokens = {t.lower() for t in entity.display_text.split()}
            for text in encoding.surrounding_prompt:
                assert not entity_tokens & {t.lower() for t in text.split()}

    def test_prompt_growth_superlinear_vs_parse_linear(self):
        def scene(k):
            objects = [
                ScreenObject(f"word{i:03d}", BBox(30.0 * i, 0, 20, 10)) for i in range(k)
            ]
            entities = [
                Entity(
                    "general text",
                    (),
                    display_text=obj.text,
                    placement=Placement(obj.box, tuple(objects)),
                )
                for obj in objects
            ]
            return objects, entities

        cluster_lengths = {}
        parse_lengths = {}
        for k in (8, 16, 32):
            objects, entities = scene(k)
            encodings = encode_clusters(objects, entities, eps=15)
            cluster_lengths[k] = sum(
                len("; ".join(e.surrounding_prompt)) for e in encodings
            )
            parse_lengths[k] = len(encode_screen(objects, entities).text)
        assert cluster_lengths[16] / cluster_lengths[8] > 3.0
        assert cluster_lengths[32] / cluster_lengths[16] > 3.0
        assert parse_lengths[16] / parse_lengths[8] < 2.5
        assert parse_lengths[32] / parse_lengths[16] < 2.5
