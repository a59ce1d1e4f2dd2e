import json
import logging
from typing import Mapping, Sequence

import numpy as np
import pytest

from smx import artifacts, dataio, graphx, models, pipeline, synthgen
from smx.artifacts import ranking_csv, to_dot, to_json, zone_ranking_csv
from smx.dataio import Zone, ZoneConfig
from smx.engine import ENTRY_DTYPE, BagResult, EngineConfig
from smx.errors import ConfigError
from smx.graphx import (
    ExplanationGraph,
    PredicateRanking,
    aggregate_seeds,
    build_graph,
    lrc_scores,
    zone_ranking,
)
from smx.predicates import Predicate, PredicateSet
from smx.zonecore import ZoneModel


def _pset(n_predicates, zone_names=None):
    zone_names = zone_names or [f"z{j}" for j in range(n_predicates)]
    preds = [
        Predicate(zone_index=j, zone_name=zone_names[j], direction=">", tau=float(j))
        for j in range(n_predicates)
    ]
    return PredicateSet(predicates=preds, indicator=np.ones((4, n_predicates), dtype=bool))


def _zone_models(n, ve=1.0):
    return [
        ZoneModel(
            zone_name=f"z{j}",
            indices=np.arange(2),
            mean=np.zeros(2),
            loading=np.array([1.0, 0.0]),
            variance_explained=ve,
        )
        for j in range(n)
    ]


def _bag(index, entries, terminal):
    records = np.array([(j, imp, imp, 4) for j, imp in entries], dtype=ENTRY_DTYPE)
    return BagResult(bag_index=index, entries=records, terminal_class=terminal)


def enumerate_lrc(node_count, edges):
    """Oracle: exhaustive simple-path enumeration per the shortest-path rule."""
    adjacency = {}
    for (u, v), w in edges.items():
        adjacency.setdefault(u, []).append((v, w))

    def all_paths(src, dst):
        found = []

        def walk(node, visited, weight, hops):
            if node == dst:
                found.append((hops, weight))
                return
            for nxt, w in adjacency.get(node, ()):
                if nxt not in visited:
                    walk(nxt, visited | {nxt}, weight + w, hops + 1)

        walk(src, {src}, 0.0, 0)
        return found

    out = []
    for v in range(node_count):
        total = 0.0
        for u in range(node_count):
            if u == v:
                continue
            paths = all_paths(v, u)
            if not paths:
                continue
            fewest = min(h for h, _ in paths)
            best = max(w for h, w in paths if h == fewest)
            total += best / fewest
        out.append(total / (node_count - 1))
    return np.asarray(out)


class TestBuildGraph:
    def test_single_bag_path_weights(self):
        pset = _pset(2, ["A", "B"])
        bag = _bag(0, [(0, 2.0), (1, 4.0)], terminal=1)
        graph = build_graph([bag], _zone_models(2), pset, seed=7)
        assert graph.edges == {(0, 1): 2.0, (1, graph.n_predicates + 1): 4.0}

    def test_same_edge_accumulates(self):
        pset = _pset(2)
        bags = [_bag(0, [(0, 2.0), (1, 1.0)], 0), _bag(1, [(0, 3.0), (1, 1.0)], 0)]
        graph = build_graph(bags, _zone_models(2), pset, seed=0)
        assert graph.edges[(0, 1)] == 5.0

    def test_bidirectional_resolution_keeps_heavier(self):
        pset = _pset(2)
        bags = [
            _bag(0, [(0, 5.0), (1, 1.0)], 0),
            _bag(1, [(1, 3.0), (0, 1.0)], 0),
        ]
        graph = build_graph(bags, _zone_models(2), pset, seed=0)
        assert (0, 1) in graph.edges and (1, 0) not in graph.edges
        assert graph.edges[(0, 1)] == 5.0

    def test_bidirectional_tie_keeps_earlier_source(self):
        pset = _pset(2)
        bags = [
            _bag(0, [(0, 2.0), (1, 1.0)], 0),
            _bag(1, [(1, 2.0), (0, 1.0)], 0),
        ]
        graph = build_graph(bags, _zone_models(2), pset, seed=0)
        assert (0, 1) in graph.edges and (1, 0) not in graph.edges

    def test_explained_variance_scales_weights(self):
        pset = _pset(2)
        graph = build_graph(
            [_bag(0, [(0, 2.0), (1, 4.0)], 1)], _zone_models(2, ve=0.25), pset, seed=0
        )
        assert graph.edges[(0, 1)] == pytest.approx(0.5)
        assert graph.edges[(1, graph.n_predicates + 1)] == pytest.approx(1.0)

    def test_zero_impact_edges_dropped(self):
        pset = _pset(2)
        graph = build_graph([_bag(0, [(0, 0.0), (1, 0.0)], 0)], _zone_models(2), pset, seed=0)
        assert graph.edges == {}

    def test_empty_bag_list_gives_empty_graph(self):
        pset = _pset(3)
        graph = build_graph([], _zone_models(3), pset, seed=0)
        assert graph.edges == {} and graph.node_count == 5
        assert all(v == 0.0 for v in lrc_scores(graph.node_count, graph.edges))

    def test_longer_cycles_pruned_to_dag(self, caplog):
        pset = _pset(3)
        bags = [
            _bag(0, [(0, 5.0), (1, 1.0)], 0),
            _bag(1, [(1, 4.0), (2, 1.0)], 0),
            _bag(2, [(2, 3.0), (0, 1.0)], 0),
        ]
        with caplog.at_level("INFO"):
            graph = build_graph(bags, _zone_models(3), pset, seed=0)
        assert (2, 0) not in graph.edges  # lightest edge in the 3-cycle
        assert any("cycle" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize(
        "edges",
        [
            {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0},  # a third of the weight
            {(0, 1): 10.0, (1, 2): 10.0, (2, 0): 0.5},  # 2.4% of the weight
        ],
    )
    def test_pruning_summary_logged_at_info(self, caplog, edges):
        """One INFO summary per seed, whatever share of the weight it drops."""
        with caplog.at_level(logging.DEBUG):
            graphx._break_cycles(dict(edges), seed=0)
        summaries = [rec for rec in caplog.records if rec.name == "smx.graphx" and "cycles" in rec.getMessage()]
        assert [rec.levelno for rec in summaries] == [logging.INFO]
        share = min(edges.values()) / sum(edges.values())
        assert f"{100.0 * share:.2g}% of the edge weight" in summaries[0].getMessage()

    def test_terminals_never_source_edges(self):
        pset = _pset(2)
        bags = [_bag(0, [(0, 2.0), (1, 1.0)], 1), _bag(1, [(1, 2.0)], 0)]
        graph = build_graph(bags, _zone_models(2), pset, seed=0)
        for u, _v in graph.edges:
            assert u < graph.n_predicates

    def test_at_most_one_direction_per_pair(self):
        rng = np.random.default_rng(0)
        pset = _pset(5)
        bags = []
        for b in range(12):
            order = rng.permutation(5)
            entries = [(int(j), float(rng.uniform(0.1, 3.0))) for j in order]
            entries.sort(key=lambda t: -t[1])
            bags.append(_bag(b, entries, int(rng.integers(0, 2))))
        graph = build_graph(bags, _zone_models(5), pset, seed=0)
        for u, v in graph.edges:
            assert (v, u) not in graph.edges


# Reference for the single-pass pruning in ``graphx._break_cycles``: the
# implementation it replaced, copied verbatim. It restarts a fresh,
# re-sorted DFS after every deleted edge.
logger = logging.getLogger("reference_break_cycles")


def _find_cycle(edges: dict[tuple[int, int], float]) -> list[tuple[int, int]] | None:
    adjacency: dict[int, list[int]] = {}
    for u, v in sorted(edges):
        adjacency.setdefault(u, []).append(v)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    stack_edges: list[tuple[int, int]] = []

    def dfs(start: int) -> list[tuple[int, int]] | None:
        stack = [(start, iter(adjacency.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, WHITE) == GRAY:
                    stack_edges.append((node, nxt))
                    i = next(i for i, e in enumerate(stack_edges) if e[0] == nxt)
                    return stack_edges[i:]
                if color.get(nxt, WHITE) == WHITE:
                    stack_edges.append((node, nxt))
                    color[nxt] = GRAY
                    stack.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                if stack_edges:
                    stack_edges.pop()
        return None

    for node in sorted(adjacency):
        if color.get(node, WHITE) == WHITE:
            found = dfs(node)
            if found:
                return found
    return None


def _break_cycles(edges: dict[tuple[int, int], float], seed: int) -> None:
    dropped = 0
    while True:
        cycle = _find_cycle(edges)
        if cycle is None:
            break
        victim = min(cycle, key=lambda e: (edges[e], e))
        logger.debug("seed %s: dropping edge %s (weight %g)", seed, victim, edges[victim])
        del edges[victim]
        dropped += 1
    if dropped:
        logger.warning(
            "seed %s: %d lightest edge(s) removed to break directed cycles that "
            "survived pair resolution",
            seed,
            dropped,
        )


def _pruned(caplog, prune, logger_name, edges):
    """Prune a copy of ``edges``; return what is left and the (victim, weight)
    arguments of the DEBUG records, in the order they were logged."""
    edges = dict(edges)
    caplog.clear()
    with caplog.at_level(logging.DEBUG):
        prune(edges, 0)
    dropped = [
        rec.args[1:] for rec in caplog.records if rec.name == logger_name and rec.levelno == logging.DEBUG
    ]
    return list(edges.items()), dropped


def _random_digraph(rng, n, m):
    """Up to m edges on n nodes, self-loops included; weights at one decimal tie often."""
    edges = {}
    for _ in range(m):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        edges[(u, v)] = round(float(rng.uniform(0.1, 2.0)), 1)
    return edges


def _assert_same_pruning(caplog, edges, trial):
    got = _pruned(caplog, graphx._break_cycles, "smx.graphx", edges)
    want = _pruned(caplog, _break_cycles, logger.name, edges)
    assert got == want, f"trial {trial}"
    return len(want[1])


def _resolve_bidirectional_sorted(edges: dict[tuple[int, int], float]) -> None:
    """The sort-and-scan pair resolution that ``graphx._resolve_bidirectional``
    replaced, kept verbatim as its reference."""
    for u, v in sorted(edges):
        if u >= v or (v, u) not in edges or (u, v) not in edges:
            continue
        fwd, rev = edges[(u, v)], edges[(v, u)]
        if fwd > rev:
            del edges[(v, u)]
        elif rev > fwd:
            del edges[(u, v)]
        else:
            # tie: keep the direction whose source comes first in predicate order
            del edges[(v, u)]


class TestPairResolutionAgainstSortedScan:
    @pytest.mark.parametrize("tied", [False, True])
    def test_random_digraphs(self, tied):
        resolved = 0
        for trial in range(1000):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 16))
            edges = {}
            for _ in range(int(rng.integers(1, 4 * n))):
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                edges[(u, v)] = float(rng.integers(1, 4)) if tied else float(rng.uniform(0.1, 2.0))
            got, want = dict(edges), dict(edges)
            graphx._resolve_bidirectional(got)
            _resolve_bidirectional_sorted(want)
            assert list(got.items()) == list(want.items()), f"trial {trial}"
            resolved += len(edges) - len(want)
        assert resolved > 1000


class TestCyclePruningAgainstRestart:
    @pytest.mark.parametrize("block", range(20))
    def test_random_digraphs(self, caplog, block):
        dropped = 0
        for trial in range(100 * block, 100 * (block + 1)):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 16))
            edges = _random_digraph(rng, n, int(rng.integers(1, 4 * n)))
            if trial % 2:
                graphx._resolve_bidirectional(edges)
            dropped += _assert_same_pruning(caplog, edges, trial)
        assert dropped > 0

    def test_large_resolved_graph(self, caplog):
        edges = _random_digraph(np.random.default_rng(2026), 200, 3300)
        graphx._resolve_bidirectional(edges)
        assert len(edges) > 2900
        assert _assert_same_pruning(caplog, edges, 2026) > 1000


class TestLrc:
    def test_two_edge_chain_example(self):
        # A -> B (2), B -> Class (4): LRC(A) = (2 + 6/2)/2, LRC(B) = 4/2
        edges = {(0, 1): 2.0, (1, 2): 4.0}
        scores = lrc_scores(3, edges)
        assert scores[0] == pytest.approx(2.5, abs=1e-12)
        assert scores[1] == pytest.approx(2.0, abs=1e-12)
        assert scores[2] == 0.0

    def test_isolated_node_scores_zero(self):
        assert lrc_scores(4, {(0, 1): 1.0})[2] == 0.0

    def test_terminal_lrc_zero_on_graph_object(self):
        graph = ExplanationGraph(seed=0, n_predicates=2, edges={(0, 1): 1.0, (1, 2): 2.0})
        scores = lrc_scores(graph.node_count, graph.edges)
        assert scores[graph.n_predicates] == 0.0
        assert scores[graph.n_predicates + 1] == 0.0

    def test_shortest_path_prefers_fewer_hops(self):
        # direct edge (1 hop, weight 1) vs heavy 2-hop path: hops win
        edges = {(0, 2): 1.0, (0, 1): 5.0, (1, 2): 5.0}
        scores = lrc_scores(3, edges)
        # node 0 reaches 1 (5/1) and 2 (direct, 1/1)
        assert scores[0] == pytest.approx((5.0 + 1.0) / 2, abs=1e-12)

    def test_equal_hops_tie_broken_by_max_weight(self):
        edges = {(0, 1): 1.0, (0, 2): 3.0, (1, 3): 1.0, (2, 3): 1.0}
        scores = lrc_scores(4, edges)
        # two 2-hop routes to node 3; the heavier one (3+1) is used
        expected = (1.0 + 3.0 + (3.0 + 1.0) / 2) / 3
        assert scores[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("trial", range(30))
    def test_matches_enumeration_oracle_on_random_dags(self, trial):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(2, 9))
        order = rng.permutation(n)
        edges = {}
        for _ in range(int(rng.integers(1, 15))):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            u, v = int(order[i]), int(order[j])
            edges[(u, v)] = float(rng.uniform(0.01, 1.0))
        got = lrc_scores(n, edges)
        np.testing.assert_allclose(got, enumerate_lrc(n, edges), atol=1e-10)

    @pytest.mark.parametrize("trial", range(10))
    def test_new_outgoing_edge_never_decreases_lrc(self, trial):
        rng = np.random.default_rng(900 + trial)
        n = int(rng.integers(3, 8))
        order = rng.permutation(n)
        edges = {}
        for _ in range(int(rng.integers(1, 10))):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            edges[(int(order[i]), int(order[j]))] = float(rng.uniform(0.1, 1.0))
        before = lrc_scores(n + 1, edges)  # node n is isolated/unreachable
        v = int(rng.integers(0, n))
        extended = dict(edges)
        extended[(v, n)] = float(rng.uniform(0.1, 1.0))
        after = lrc_scores(n + 1, extended)
        assert after[v] >= before[v] - 1e-12


class TestAggregation:
    def test_single_seed_equals_that_ordering(self):
        pset = _pset(2)
        graph = build_graph([_bag(0, [(0, 3.0), (1, 1.0)], 0)], _zone_models(2), pset, seed=4)
        ranking = aggregate_seeds([graph], pset)
        solo = lrc_scores(graph.node_count, graph.edges)[:2]
        np.testing.assert_array_equal(ranking.mean_lrc, solo)
        assert ranking.order == sorted(range(2), key=lambda j: (-solo[j], j))

    def test_two_seeds_average(self):
        pset = _pset(1)
        g1 = ExplanationGraph(seed=1, n_predicates=1, edges={(0, 1): 2.0})
        g2 = ExplanationGraph(seed=2, n_predicates=1, edges={(0, 1): 4.0})
        ranking = aggregate_seeds([g1, g2], pset)
        assert ranking.mean_lrc[0] == pytest.approx((2.0 / 2 + 4.0 / 2) / 2)

    def test_absent_predicate_contributes_zero(self):
        pset = _pset(2)
        g1 = ExplanationGraph(seed=1, n_predicates=2, edges={(0, 2): 3.0})
        g2 = ExplanationGraph(seed=2, n_predicates=2, edges={})
        ranking = aggregate_seeds([g1, g2], pset)
        assert ranking.mean_lrc[1] == 0.0
        assert ranking.per_seed.shape == (2, 2)

    def test_tie_broken_by_predicate_order(self):
        pset = _pset(3)
        graph = ExplanationGraph(seed=0, n_predicates=3, edges={})
        ranking = aggregate_seeds([graph], pset)
        assert ranking.order == [0, 1, 2]


# ``zone_ranking`` replaced two functions, kept here verbatim as references:
# the rule for predicates (by mean LRC) and the rule for PFI's variables.
def reference_zone_ranking(
    ranking: PredicateRanking, pset: PredicateSet, zone_names: Sequence[str]
) -> list[tuple[str, bool]]:
    """Zone order by first occurrence in the predicate ranking.

    Only predicates with positive mean centrality count as evidence;
    zones without any are appended last, in config order, flagged
    unranked (False).
    """
    seen: list[str] = []
    for j in ranking.order:
        if ranking.mean_lrc[j] <= 0.0:
            continue
        name = pset.predicates[j].zone_name
        if name not in seen:
            seen.append(name)
    ranked = [(name, True) for name in seen]
    ranked.extend((name, False) for name in zone_names if name not in seen)
    return ranked


def reference_variable_zone_ranking(
    importances: Sequence[float],
    zone_sets: Mapping[str, np.ndarray],
    zone_names: Sequence[str],
) -> list[tuple[str, bool]]:
    """Collapse variable-level importances into a ranked zone list.

    Variables are visited in descending importance (ties by lower index)
    and each zone keeps its first occurrence; zones whose variables all
    score zero are appended last, in config order, flagged unranked.
    """
    v = np.asarray(importances, dtype=float)
    var_zone: dict[int, str] = {}
    for name in zone_names:
        for j in np.asarray(zone_sets[name], dtype=int):
            var_zone[int(j)] = name
    seen: list[str] = []
    for j in np.argsort(-v, kind="stable"):
        if v[j] <= 0.0:
            continue
        name = var_zone.get(int(j))
        if name is not None and name not in seen:
            seen.append(name)
    ranked = [(name, True) for name in seen]
    ranked.extend((name, False) for name in zone_names if name not in seen)
    return ranked


def _references(scores, item_zones, zone_names):
    """What each replaced function gives on these inputs: the variable rule
    always, the predicate rule when every item lies in a zone."""
    scores = np.asarray(scores, dtype=float)
    zone_sets = {name: np.flatnonzero([z == name for z in item_zones]) for name in zone_names}
    out = [reference_variable_zone_ranking(scores, zone_sets, zone_names)]
    if None not in item_zones:
        preds = [Predicate(zone_names.index(z), z, ">", 0.0) for z in item_zones]
        pset = PredicateSet(predicates=preds, indicator=np.ones((2, len(preds)), dtype=bool))
        order = sorted(range(len(preds)), key=lambda j: (-scores[j], j))  # as aggregate_seeds orders
        ranking = PredicateRanking(order=order, mean_lrc=scores, per_seed=scores[None, :], seeds=[0])
        out.append(reference_zone_ranking(ranking, pset, zone_names))
    return out


def _mean_lrc(item_zones, edges):
    pset = _pset(len(item_zones), item_zones)
    return aggregate_seeds([ExplanationGraph(seed=0, n_predicates=len(item_zones), edges=edges)], pset).mean_lrc


class TestZoneRanking:
    @pytest.mark.parametrize(
        "scores, item_zones, zone_names, expected",
        [
            pytest.param(
                _mean_lrc(["Ca", "Ca", "Mn"], {(0, 1): 2.0, (1, 2): 1.0, (2, 3): 0.5}), ["Ca", "Ca", "Mn"],
                ["Ca", "Mn"], [("Ca", True), ("Mn", True)], id="first_occurrence_rule",
            ),
            pytest.param(
                _mean_lrc(["Ca", "Mn"], {(0, 2): 1.0}), ["Ca", "Mn"],
                ["Ca", "Mn", "Si"], [("Ca", True), ("Mn", False), ("Si", False)], id="zero_lrc_zones_appended_unranked",
            ),
            pytest.param(
                _mean_lrc(["Ca"], {}), ["Ca"],
                ["Si", "Ca"], [("Si", False), ("Ca", False)], id="empty_ranking_all_unranked_config_order",
            ),
            pytest.param(
                [0.1, 5.0, 1.0, 0.2, 0.0], ["a", "a", "b", "b", "c"],
                ["a", "b", "c"], [("a", True), ("b", True), ("c", False)], id="variables_first_occurrence_and_unranked_tail",
            ),
            pytest.param(
                [9.0, 0.0, 1.0, -0.0, 2.0], [None, "a", "b", "a", None],
                ["b", "a"], [("b", True), ("a", False)], id="channels_outside_every_zone_ignored",
            ),
        ],
    )
    def test_examples(self, scores, item_zones, zone_names, expected):
        assert zone_ranking(scores, item_zones, zone_names) == expected
        assert all(ref == expected for ref in _references(scores, item_zones, zone_names))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_both_replaced_functions(self, seed):
        """Random scores from a small pool, so ties, exact zeros, -0.0 and
        negative scores are common; some items lie outside every zone."""
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, -1.5, 1e-300, 0.25, 0.25, 1.0, 3.0, 7.5])
        for _ in range(200):
            n, k = int(rng.integers(1, 40)), int(rng.integers(1, 7))
            zone_names = [f"Z{m}" for m in rng.permutation(k)]
            scores = rng.choice(pool, size=n) * rng.choice([1.0, 1.0, 2.0], size=n)
            options = zone_names + ([None] if rng.random() < 0.5 else [])
            item_zones = [options[i] for i in rng.integers(0, len(options), size=n)]
            got = zone_ranking(scores, item_zones, zone_names)
            for ref in _references(scores, item_zones, zone_names):
                assert got == ref
            assert zone_ranking(scores, np.array(item_zones, dtype=object), zone_names) == got


class TestExports:
    def _ranked(self):
        pset = _pset(2, ["Feature 1", "Feature 2"])
        graph = build_graph([_bag(0, [(0, 1.2345, ), (1, 0.5)], 1)], _zone_models(2), pset, seed=3)
        ranking = aggregate_seeds([graph], pset)
        return pset, graph, ranking

    def test_dot_format(self):
        pset, graph, _ = self._ranked()
        dot = to_dot(graph, pset)
        assert dot.startswith("digraph")
        assert '[label="Feature 1 > 0.00"]' in dot
        assert '[label="1.2345"]' in dot

    def test_dot_escapes_quotes_and_backslashes_in_labels(self):
        pset = _pset(2, ['Fe K"a", Kb', "C:\\x"])
        graph = build_graph([_bag(0, [(0, 1.2345), (1, 0.5)], 1)], _zone_models(2), pset, seed=3)
        dot = to_dot(graph, pset)
        assert '  n0 [label="Fe K\\"a\\", Kb > 0.00"];\n' in dot
        assert '  n1 [label="C:\\\\x > 1.00"];\n' in dot

    def test_json_twin_lossless(self):
        pset, graph, _ = self._ranked()
        parsed = json.loads(to_json(graph, pset))
        assert parsed["seed"] == 3
        weights = {(e["source"], e["target"]): e["weight"] for e in parsed["edges"]}
        assert weights == graph.edges

    def test_ranking_csv_layout(self):
        pset, _, ranking = self._ranked()
        text = ranking_csv(ranking, pset)
        header = text.splitlines()[0]
        assert header == "rank,predicate,zone,direction,tau,lrc_mean,lrc_seed_1"
        assert text.splitlines()[1].startswith('1,"Feature 1 > 0.00",Feature 1,>,0,')

    def test_zone_ranking_csv(self):
        text = zone_ranking_csv([("Feature 1", True), ("Background", False)])
        assert text.splitlines()[1] == "1,Feature 1,ranked"
        assert text.splitlines()[2] == "2,Background,unranked"


# References for the all-sources ``graphx.lrc_scores`` and the directly
# written ``artifacts.to_json``: the implementations they replaced, copied
# verbatim. LRC ran one breadth-first search per source; the JSON export
# ran ``json.dumps(indent=2, sort_keys=True)`` over the whole payload.
def _reference_lrc_scores(node_count: int, edges: dict[tuple[int, int], float]) -> np.ndarray:
    """Local Reaching Centrality for every node of a resolved graph.

    For each reachable node the contribution is the total weight of the
    hop-count-shortest path (ties broken by maximum total weight)
    divided by its edge count; the sum is normalized by node_count - 1.
    """
    adjacency: dict[int, list[tuple[int, float]]] = {}
    for (u, v), w in edges.items():
        adjacency.setdefault(u, []).append((v, w))
    out = np.zeros(node_count)
    if node_count < 2:
        return out
    for source in range(node_count):
        dist = {source: 0}
        best = {source: 0.0}
        frontier = [source]
        total = 0.0
        while frontier:
            nxt: list[int] = []
            layer_best: dict[int, float] = {}
            for u in frontier:
                for v, w in adjacency.get(u, ()):
                    if v in dist:
                        continue
                    cand = best[u] + w
                    if v not in layer_best or cand > layer_best[v]:
                        layer_best[v] = cand
            depth = dist[frontier[0]] + 1
            for v, weight in layer_best.items():
                dist[v] = depth
                best[v] = weight
                total += weight / depth
                nxt.append(v)
            frontier = nxt
        out[source] = total / (node_count - 1)
    return out


def _reference_to_json(graph: ExplanationGraph, pset: PredicateSet) -> str:
    """Lossless JSON twin of the DOT export."""
    payload = {
        "seed": graph.seed,
        "nodes": [
            {"id": i, "label": artifacts.node_label(i, pset)} for i in range(graph.node_count)
        ],
        "edges": [
            {"source": u, "target": v, "weight": w}
            for (u, v), w in sorted(graph.edges.items())
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _random_lrc_graph(trial):
    """A digraph on 1..80 nodes, acyclic on even trials and possibly cyclic
    (self-loops included) on odd ones; weights at one decimal on two trials
    in three, so that equal-hop ties between paths are common; every tenth
    edge set is empty, and nodes beyond the drawn endpoints stay isolated."""
    rng = np.random.default_rng(7000 + trial)
    n = int(rng.integers(1, 81))
    m = 0 if trial % 10 == 0 else int(rng.integers(1, 5 * n + 1))
    ends = rng.integers(0, n, size=(m, 2))
    if trial % 2 == 0:
        ends = rng.permutation(n)[np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1)]
    weights = rng.uniform(0.1, 2.0, size=len(ends)).round(1) if trial % 3 else rng.uniform(1e-3, 5.0, size=len(ends))
    return n, {(int(u), int(v)): float(w) for (u, v), w in zip(ends, weights)}


class TestLrcAgainstPerSourceSearch:
    @pytest.mark.parametrize("block", range(21))
    def test_random_digraphs_bit_identical(self, block):
        for trial in range(100 * block, 100 * (block + 1)):
            n, edges = _random_lrc_graph(trial)
            got = lrc_scores(n, edges)
            assert got.tobytes() == _reference_lrc_scores(n, edges).tobytes(), f"trial {trial}"

    def test_random_digraphs_cover_the_cases(self):
        graphs = [_random_lrc_graph(trial) for trial in range(2100)]
        assert {n for n, _ in graphs} >= {1, 2, 80}
        assert sum(not edges for _, edges in graphs) >= 200
        assert any(u == v for _, edges in graphs for u, v in edges)
        assert any(len(set(edges.values())) < len(edges) for _, edges in graphs)

    def test_isolated_self_loop_and_unordered_edges(self):
        edges = {(3, 1): 0.5, (0, 3): 1.0, (2, 2): 4.0, (0, 1): 2.0, (1, 4): 0.25}
        got = lrc_scores(6, edges)
        assert got.tobytes() == _reference_lrc_scores(6, edges).tobytes()
        assert got[5] == 0.0 and got[2] == 0.0

    @pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 1), (1, -1), (0, 10**6)])
    def test_endpoint_outside_node_range_raises(self, edge):
        with pytest.raises(ConfigError, match="outside"):
            lrc_scores(3, {(0, 1): 1.0, edge: 1.0})

    def test_no_node_accepts_no_edge(self):
        with pytest.raises(ConfigError):
            lrc_scores(0, {(0, 0): 1.0})
        assert lrc_scores(0, {}).shape == (0,)


_SPECIAL_NAMES = ['quote "q"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "Ünïcödé λ", "日本 🙂", "/", ""]


def _special_pset():
    preds = [
        Predicate(zone_index=j, zone_name=name, direction=">" if j % 2 else "<=", tau=tau)
        for j, (name, tau) in enumerate(zip(_SPECIAL_NAMES, [0.1, -2.5e-300, 1e22, 5e-324, -0.0, 1 / 3, 7.0]))
    ]
    return PredicateSet(predicates=preds, indicator=np.ones((2, len(preds)), dtype=bool))


class TestJsonTextAgainstJsonDumps:
    def test_special_labels_and_weights(self):
        pset = _special_pset()
        weights = [0.1, 1e-320, float("nan"), float("inf"), float("-inf"), 1e16, 123456789.0, np.float64(2 / 3), -0.0]
        edges = {(j % 7, (3 * j + 1) % 9): w for j, w in enumerate(weights)}
        graph = ExplanationGraph(seed=11, n_predicates=len(pset), edges=edges)
        assert to_json(graph, pset) == _reference_to_json(graph, pset)

    @pytest.mark.parametrize("n_predicates", [0, 1, 7])
    def test_empty_graphs(self, n_predicates):
        pset = _special_pset()
        pset = PredicateSet(predicates=pset.predicates[:n_predicates], indicator=pset.indicator[:, :n_predicates])
        graph = ExplanationGraph(seed=0, n_predicates=n_predicates, edges={})
        assert to_json(graph, pset) == _reference_to_json(graph, pset)

    def test_built_graph(self):
        pset, graph, _ = TestExports()._ranked()
        assert to_json(graph, pset) == _reference_to_json(graph, pset)


@pytest.fixture(scope="module")
def many_zone_explain():
    """The synthetic benchmark explained over 30 equal-width zones at
    quantiles 0.1..0.9 (540 predicates, 542 graph nodes)."""
    ds = synthgen.generate(synthgen.benchmark_config(42))
    train, _test = dataio.kennard_stone_split(ds, 0.7)
    train = dataio.apply_preprocess(dataio.fit_preprocess(train, "mean_center"), train)
    width = len(train.axis) // 30
    zones = ZoneConfig(
        [
            Zone(f"Z{k + 1:02d}", float(train.axis[k * width]), float(train.axis[(k + 1) * width - 1]), False)
            for k in range(30)
        ]
    )
    model = models.fit_logistic(train)
    cfg = EngineConfig(quantiles=tuple(k / 10 for k in range(1, 10)))
    return pipeline.explain(train, zones, model, cfg)


class TestManyZoneGraphs:
    def test_lrc_bit_identical(self, many_zone_explain):
        graphs = many_zone_explain.graphs
        assert len(graphs) == 4 and graphs[0].node_count == 542
        for graph in graphs:
            assert len(graph.edges) > 1000
            got = lrc_scores(graph.node_count, graph.edges)
            assert got.tobytes() == _reference_lrc_scores(graph.node_count, graph.edges).tobytes()

    def test_json_byte_identical(self, many_zone_explain):
        pset = many_zone_explain.predicate_set
        for graph in many_zone_explain.graphs:
            assert to_json(graph, pset) == _reference_to_json(graph, pset)
