"""Per-seed explanation graphs, Local Reaching Centrality and the
derived predicate / zone rankings.

Nodes are the full predicate set plus two class terminals. Each bag's
ranked list becomes a directed path whose edge weights are the source
predicate's normalized impact scaled by its zone's explained variance;
same-direction edges accumulate across bags and bidirectional pairs
keep only the heavier direction. Cycles that survive are pruned in one
depth-first pass, roots and successors in ascending node order: each
cycle the search meets loses its lightest edge, ties going to the
smaller (source, target) pair.

Pruning stays (``_break_cycles``), although LRC is defined on any
digraph. On the 30-zone x 9-quantile benchmark at seed 42 it takes
~0.03 s of a 0.10 s ``rank``; without it ``rank`` took 0.20 s, because
LRC then walks about twice the edges, and the top-5 zones were the
same. It removes 0.09% of the edge weight on the paper benchmark and
1.08% on the 30-zone one.

Local Reaching Centrality is one level-synchronous breadth-first
search over all sources at once (``lrc_scores``): each level is a few
array operations over every (source, node) pair it reaches, with an
N x N bool array of pairs already reached. Pairs are kept in the
order a per-source search would discover them, so every source sums
its contributions in that search's order and the scores are
bit-identical to it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import BagResult
from .errors import ConfigError
from .predicates import PredicateSet
from .zonecore import ZoneModel

logger = logging.getLogger(__name__)


@dataclass
class ExplanationGraph:
    """Directed weighted graph over node ids 0..node_count-1.

    The last two nodes are the class terminals (Class_0, Class_1); ids
    below ``n_predicates`` are predicates in predicate-set order.
    """

    seed: int
    n_predicates: int
    edges: dict[tuple[int, int], float]

    @property
    def node_count(self) -> int:
        return self.n_predicates + 2


def build_graph(
    bag_results: Sequence[BagResult],
    zone_models: Sequence[ZoneModel],
    pset: PredicateSet,
    seed: int,
) -> ExplanationGraph:
    """Assemble and resolve one seed's graph from its bag rankings."""
    n_pred = len(pset)
    ve = np.array([zone_models[p.zone_index].variance_explained for p in pset.predicates], dtype=float)
    acc: dict[tuple[int, int], float] = {}
    for bag in bag_results:
        preds = bag.entries["predicate"]
        if not preds.size:
            continue
        nodes = preds.tolist() + [n_pred + int(bag.terminal_class)]
        for key, w in zip(zip(nodes, nodes[1:]), (bag.entries["impact"] * ve[preds]).tolist()):
            acc[key] = acc.get(key, 0.0) + w

    # zero-impact contributions carry no evidence; keeping them would
    # violate the positive-weight contract
    edges = {k: w for k, w in acc.items() if w > 0.0}
    _resolve_bidirectional(edges)
    _break_cycles(edges, seed)
    return ExplanationGraph(seed=seed, n_predicates=n_pred, edges=edges)


def _resolve_bidirectional(edges: dict[tuple[int, int], float]) -> None:
    """Of each pair of opposite edges keep the heavier, on a tie the one whose
    source comes first in predicate order; the rest keep their order."""
    beaten = [(u, v) for (u, v), w in edges.items() if (v, u) in edges and (edges[(v, u)], u) > (w, v)]
    for edge in beaten:
        del edges[edge]


def _break_cycles(edges: dict[tuple[int, int], float], seed: int) -> None:
    keys = sorted(edges)
    n = 1 + max((max(u, v) for u, v in keys), default=-1)
    # successors[u]: u's out-edges as path steps (weight, u, v, edge id), in ascending v;
    # tuples order as (weight, (u, v)), so the lightest step of a cycle is its victim
    successors: list[list[tuple[float, int, int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(keys):
        successors[u].append((edges[u, v], u, v, eid))
    alive = [True] * len(keys)
    state = [-1] * n  # -1 unvisited, -2 finished, else the node's depth on the DFS path
    total_weight = sum(edges.values())
    dropped, dropped_weight = 0, 0.0
    for root in range(n):
        if state[root] != -1 or not successors[root]:
            continue
        # path[k] is on the DFS path at depth k, steps[k] the step into it, iters[k] walks its successors
        state[root] = 0
        path, steps, iters = [root], [None], [iter(successors[root])]
        while path:
            for step in iters[-1]:
                at = state[step[2]]
                if at == -2 or not alive[step[3]]:
                    continue
                if at == -1:
                    state[step[2]] = len(path)
                    path.append(step[2])
                    steps.append(step)
                    iters.append(iter(successors[step[2]]))
                    break
                weight, u, v, eid = min([step, *steps[at + 1 :]])
                logger.debug("seed %s: dropping edge %s (weight %g)", seed, (u, v), weight)
                dropped += 1
                dropped_weight += edges.pop((u, v))
                alive[eid] = False
                # resume at the victim's source: the nodes above it are unvisited
                # again, while finished nodes reach only finished nodes and stay acyclic
                keep = state[u] + 1
                for gone in path[keep:]:
                    state[gone] = -1
                del path[keep:], steps[keep:], iters[keep:]
                break
            else:
                state[path.pop()] = -2
                steps.pop()
                iters.pop()
    if dropped:
        logger.info(
            "seed %s: %d lightest edge(s), %.2g%% of the edge weight, removed to "
            "break directed cycles that survived pair resolution",
            seed,
            dropped,
            100.0 * dropped_weight / total_weight,
        )


def lrc_scores(node_count: int, edges: dict[tuple[int, int], float]) -> np.ndarray:
    """Local Reaching Centrality for every node of a resolved graph.

    For each reachable node the contribution is the total weight of the
    hop-count-shortest path (ties broken by maximum total weight)
    divided by its edge count; the sum is normalized by node_count - 1.

    One breadth-first search runs for all sources at once. The frontier
    holds (source, node, best weight) triples, grouped by source and, per
    source, in discovery order. A level expands every triple through the
    edges in CSR layout (per source node, in the order ``edges`` yields
    them), drops pairs already reached, and keeps one triple per new
    (source, node) pair: one sort of ``source * node_count + node``
    groups each pair's candidates, the least position in a group is the
    pair's first candidate, and marking those in candidate order lists
    the new pairs in discovery order; ``np.maximum.reduceat`` gives each
    pair's heaviest candidate, whatever the order within its group. Each
    source's contributions are added to its total in discovery order,
    level by level (``np.add.at`` adds in index order), which is the
    left-to-right sum of a per-source search, so scores are
    bit-identical to one. Memory: an N x N bool
    array of reached pairs (N² bytes) plus arrays the size of one level.
    """
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= node_count):
        raise ConfigError(f"edge endpoint outside the {node_count} graph nodes")
    out = np.zeros(node_count)
    if node_count < 2 or not pairs.size:
        return out
    by_source = np.argsort(pairs[:, 0], kind="stable")
    heads = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=node_count), out=heads[1:])
    tails = pairs[by_source, 1]
    weights = np.fromiter(edges.values(), dtype=float, count=len(pairs))[by_source]
    reached = np.eye(node_count, dtype=bool).ravel()
    src = np.arange(node_count)
    node, best = src, np.zeros(node_count)
    depth = 0
    while src.size:
        depth += 1
        degree = heads[node + 1] - heads[node]
        ends = np.cumsum(degree)
        # candidates in frontier order, each node's edges in CSR order
        parent = np.repeat(np.arange(src.size), degree)
        edge = np.arange(ends[-1]) + np.repeat(heads[node] - (ends - degree), degree)
        keys = src[parent] * node_count + tails[edge]
        fresh = np.flatnonzero(~reached[keys])
        if not fresh.size:
            break
        keys, cand = keys[fresh], best[parent[fresh]] + weights[edge[fresh]]
        order = np.argsort(keys)
        sorted_keys = keys[order]
        starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        # at each pair's first candidate 1 + the pair's group, elsewhere 0
        group = np.zeros(keys.size, dtype=np.int64)
        group[np.minimum.reduceat(order, starts)] = np.arange(1, starts.size + 1)
        first = group > 0
        keys, best = keys[first], np.maximum.reduceat(cand[order], starts)[group[first] - 1]
        reached[keys] = True
        src, node = np.divmod(keys, node_count)
        np.add.at(out, src, best / depth)
    return out / (node_count - 1)


@dataclass
class PredicateRanking:
    """Seed-averaged centralities, ordered descending with deterministic ties."""

    order: list[int]
    mean_lrc: np.ndarray
    per_seed: np.ndarray  # (n_seeds, n_predicates)
    seeds: list[int]


def aggregate_seeds(graphs: Sequence[ExplanationGraph], pset: PredicateSet) -> PredicateRanking:
    """Average per-seed LRC over all predicates; absent evidence counts as 0."""
    if not graphs:
        raise ConfigError("at least one per-seed graph is required")
    n_pred = len(pset)
    per_seed = np.zeros((len(graphs), n_pred))
    for s, graph in enumerate(graphs):
        if graph.n_predicates != n_pred:
            raise ConfigError("graphs disagree on the predicate count")
        per_seed[s] = lrc_scores(graph.node_count, graph.edges)[:n_pred]
    mean = per_seed.mean(axis=0)
    order = sorted(range(n_pred), key=lambda j: (-mean[j], j))
    return PredicateRanking(
        order=order, mean_lrc=mean, per_seed=per_seed, seeds=[g.seed for g in graphs]
    )


def zone_ranking(
    scores: Sequence[float], item_zones: Sequence[str | None], zone_names: Sequence[str]
) -> list[tuple[str, bool]]:
    """Zone order by each zone's first positively scored item.

    Items (predicates by mean LRC, or channels by PFI importance) are
    visited by descending score, ties to the lower index; ``item_zones``
    names each item's zone, None for a channel outside every zone.
    Zones without a positive item are appended last, in config order,
    flagged unranked (False).
    """
    v = np.asarray(scores, dtype=float)
    seen: list[str] = []
    for j in np.argsort(-v, kind="stable"):
        name = item_zones[j]
        if v[j] > 0.0 and name is not None and name not in seen:
            seen.append(name)
    ranked = [(name, True) for name in seen]
    ranked.extend((name, False) for name in zone_names if name not in seen)
    return ranked
