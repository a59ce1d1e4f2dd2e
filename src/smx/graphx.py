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
~0.06 s of a 0.21 s ``rank``; without it ``rank`` took 0.32 s, because
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

import json
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import _csv_field, _csv_quote, _fmt
from .engine import BagResult, _json_float
from .errors import ConfigError
from .predicates import PredicateSet
from .zonecore import ZoneModel

logger = logging.getLogger(__name__)

# Share of a seed's edge weight that cycle pruning may drop before the
# pruning summary is logged as a WARNING rather than at INFO.
PRUNED_WEIGHT_WARNING = 0.05


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

    def terminal(self, cls: int) -> int:
        return self.n_predicates + int(cls)


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


def _break_cycles(edges: dict[tuple[int, int], float], seed: int) -> None:
    successors: dict[int, list[int]] = {}
    for u, v in sorted(edges):
        successors.setdefault(u, []).append(v)
    finished: set[int] = set()
    total_weight = sum(edges.values())
    dropped, dropped_weight = 0, 0.0
    for root in sorted(successors):
        if root in finished:
            continue
        # path[k] is on the current DFS path at depth k; iters[k] walks its successors
        path, iters, depth = [root], [iter(successors[root])], {root: 0}
        while path:
            node = path[-1]
            for nxt in iters[-1]:
                if nxt in finished or (node, nxt) not in edges:
                    continue
                if nxt not in depth:
                    depth[nxt] = len(path)
                    path.append(nxt)
                    iters.append(iter(successors.get(nxt, ())))
                    break
                cycle = list(zip(path[depth[nxt] :], path[depth[nxt] + 1 :] + [nxt]))
                victim = min(cycle, key=lambda e: (edges[e], e))
                logger.debug("seed %s: dropping edge %s (weight %g)", seed, victim, edges[victim])
                dropped += 1
                dropped_weight += edges.pop(victim)
                # resume at the victim's source: the nodes above it are unvisited
                # again, while finished nodes reach only finished nodes and stay acyclic
                keep = depth[victim[0]] + 1
                for gone in path[keep:]:
                    del depth[gone]
                del path[keep:], iters[keep:]
                break
            else:
                finished.add(node)
                del depth[node]
                path.pop()
                iters.pop()
    if dropped:
        share = dropped_weight / total_weight
        logger.log(
            logging.WARNING if share > PRUNED_WEIGHT_WARNING else logging.INFO,
            "seed %s: %d lightest edge(s), %.2g%% of the edge weight, removed to "
            "break directed cycles that survived pair resolution",
            seed,
            dropped,
            100.0 * share,
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
    (source, node) pair: one stable sort of ``source * node_count +
    node`` puts each pair's first candidate at the head of its group,
    which fixes the pair's discovery order, and ``np.maximum.reduceat``
    gives its heaviest candidate. Each source's contributions are added
    to its total in discovery order, level by level (``np.add.at`` adds
    in index order), which is the left-to-right sum of a per-source
    search, so scores are bit-identical to one. Memory: an N x N bool
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
        fresh = ~reached[keys]
        keys, cand = keys[fresh], best[parent[fresh]] + weights[edge[fresh]]
        if not keys.size:
            break
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        first = order[starts]
        found = np.argsort(first)
        keys, best = keys[first[found]], np.maximum.reduceat(cand[order], starts)[found]
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


def node_label(node: int, pset: PredicateSet) -> str:
    if node < len(pset):
        return pset.predicates[node].label
    return f"Class_{node - len(pset)}"


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: ExplanationGraph, pset: PredicateSet) -> str:
    """DOT text with predicate labels at 2 decimals and weights at 4."""
    lines = ["digraph explanation {"]
    used = sorted({n for e in graph.edges for n in e})
    for node in used:
        lines.append(f"  n{node} [label={_dot_string(node_label(node, pset))}];")
    for (u, v), w in sorted(graph.edges.items()):
        lines.append(f'  n{u} -> n{v} [label="{w:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: ExplanationGraph, pset: PredicateSet) -> str:
    """Lossless JSON twin of the DOT export.

    The text is that of ``json.dumps(payload, indent=2, sort_keys=True)``
    with payload ``{"seed", "nodes": [{"id", "label"}], "edges":
    [{"source", "target", "weight"}]}``, written directly: labels go
    through ``json.dumps`` once each and weights through ``_json_float``."""
    edges = [
        f'    {{\n      "source": {u},\n      "target": {v},\n      "weight": {_json_float(w)}\n    }}'
        for (u, v), w in sorted(graph.edges.items())
    ]
    nodes = [
        f'    {{\n      "id": {i},\n      "label": {json.dumps(node_label(i, pset))}\n    }}'
        for i in range(graph.node_count)
    ]
    return (
        f'{{\n  "edges": {_json_list(edges)},\n  "nodes": {_json_list(nodes)},\n  "seed": {graph.seed}\n}}\n'
    )


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def ranking_csv(ranking: PredicateRanking, pset: PredicateSet) -> str:
    header = "rank,predicate,zone,direction,tau,lrc_mean," + ",".join(
        f"lrc_seed_{i + 1}" for i in range(len(ranking.seeds))
    )
    lines = [header]
    for rank, j in enumerate(ranking.order, start=1):
        pred = pset.predicates[j]
        per_seed = ",".join(_fmt(v) for v in ranking.per_seed[:, j])
        lines.append(
            f"{rank},{_csv_quote(pred.label)},{_csv_field(pred.zone_name)},{pred.direction},"
            f"{_fmt(pred.tau)},{_fmt(ranking.mean_lrc[j])},{per_seed}"
        )
    return "\n".join(lines) + "\n"


def zone_ranking_csv(zones: list[tuple[str, bool]]) -> str:
    lines = ["rank,zone,status"]
    for rank, (name, ranked) in enumerate(zones, start=1):
        lines.append(f"{rank},{_csv_field(name)},{'ranked' if ranked else 'unranked'}")
    return "\n".join(lines) + "\n"
