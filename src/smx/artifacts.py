"""The text and the name of every file ``explain`` and ``evaluate`` write.

``explain_files`` yields, relative to ``--out``: ``predicate_ranking.csv`` (mean LRC,
then ``lrc_seed_k`` for the k-th of the run's seeds), ``zone_ranking.csv``,
``zone_models.json`` (each zone in the space it was fitted in), ``graph_seed_<seed>.dot``
and ``.json`` (named by the seed's value), ``bag_trace.jsonl`` and ``threshold_spectra.csv``:
each predicate's threshold spectrum (``zonecore.threshold_spectrum``), a row per zone
channel, mapped into the input file's units (``dataio.to_input_units``) when the data was
preprocessed. ``evaluate_files`` yields ``report.json`` and
``curves/<dataset>__<method>__<metric>.csv``. Decimals have 17 significant digits (``_fmt``).
"""

from __future__ import annotations

import json
import re
from typing import Iterator, Sequence

import numpy as np

from .dataio import PreprocessState, csv_field, csv_quote, to_input_units
from .engine import BagResult
from .graphx import ExplanationGraph, PredicateRanking
from .pipeline import ExplainResult
from .predicates import PredicateSet
from .zonecore import ZoneModel, threshold_spectrum

# What explain and evaluate write, relative to --out. Explain also owns the one-file-per-predicate
# layout of earlier versions, threshold_spectra/predicate_NNN.csv, so that a rerun replaces such an --out.
EXPLAIN_OWNS = re.compile(
    r"predicate_ranking\.csv|zone_ranking\.csv|zone_models\.json|bag_trace\.jsonl"
    r"|graph_seed_\d+\.(dot|json)|threshold_spectra(\.csv|/predicate_\d+\.csv)?"
)
EVALUATE_OWNS = re.compile(r"report\.json|curves(/[^/]+\.csv)?")


def explain_files(result: ExplainResult, axis: np.ndarray, state: PreprocessState | None) -> Iterator[tuple[str, str]]:
    """(path relative to ``--out``, text) of each file of an explain run, one text at a
    time; ``axis`` is the train file's and ``state`` the preprocessing fitted on it."""
    pset = result.predicate_set
    yield "predicate_ranking.csv", ranking_csv(result.ranking, pset)
    yield "zone_ranking.csv", zone_ranking_csv(result.zone_order)
    yield "zone_models.json", zone_models_to_json(result.zone_models)
    dot_labels, json_nodes = _node_texts(pset, len(pset) + 2)
    for graph in result.graphs:
        edges = sorted(graph.edges.items())
        yield f"graph_seed_{graph.seed}.dot", _dot_text(edges, dot_labels)
        yield f"graph_seed_{graph.seed}.json", _json_text(graph.seed, edges, json_nodes)
    trace = [line for graph in result.graphs for line in trace_lines(graph.seed, result.bag_results[graph.seed], pset)]
    yield "bag_trace.jsonl", "\n".join(trace + [""])
    yield "threshold_spectra.csv", threshold_table_csv(pset.predicates, result.zone_models, axis, state)


def evaluate_files(report: dict) -> Iterator[tuple[str, str]]:
    """(path relative to ``--out``, text) of each file of an evaluate run, one text at a time."""
    yield "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n"
    for entry in report["datasets"]:
        for method, section in entry["methods"].items():
            for metric in ("faithfulness", "alignment", "simplicity"):
                rows = "".join(f"{k},{_fmt(v)}\n" for k, v in zip(section[metric]["x"], section[metric]["y"]))
                yield f"curves/{entry['name']}__{method}__{metric}.csv", "k,value\n" + rows


def _fmt(x: float) -> str:
    """Decimal text with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def _json_floats(values: np.ndarray) -> list[str]:
    """``json.dumps`` text of each float: its repr, or NaN / Infinity / -Infinity."""
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = "NaN" if np.isnan(values[i]) else ("Infinity" if values[i] > 0 else "-Infinity")
    return texts


def trace_lines(seed: int, results: Sequence[BagResult], pset: PredicateSet) -> list[str]:
    """Bag-level audit trace, one JSON object per retained predicate.

    Each line is the text of ``json.dumps(record, sort_keys=True)``,
    written directly: labels go through ``json.dumps`` once each and
    floats through ``_json_floats``, a column at a time."""
    labels = [json.dumps(p.key) for p in pset.predicates]
    return [
        f'{{"bag": {bag.bag_index}, "impact_norm": {impact}, "impact_raw": {raw}, "label": {labels[j]}, '
        f'"predicate": {j}, "seed": {seed}, "support": {support}}}'
        for bag in results
        for j, impact, raw, support in zip(
            bag.entries["predicate"].tolist(), _json_floats(bag.entries["impact"]),
            _json_floats(bag.entries["raw_impact"]), bag.entries["support"].tolist(),
        )
    ]


def node_label(node: int, pset: PredicateSet) -> str:
    if node < len(pset):
        return pset.predicates[node].label
    return f"Class_{node - len(pset)}"


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_texts(pset: PredicateSet, count: int) -> tuple[list[str], str]:
    """Nodes 0..count-1 as ``to_dot`` quotes their labels, and as ``to_json`` lists them."""
    labels = [node_label(i, pset) for i in range(count)]
    nodes = [f'    {{\n      "id": {i},\n      "label": {json.dumps(text)}\n    }}' for i, text in enumerate(labels)]
    return [_dot_string(text) for text in labels], _json_list(nodes)


def to_dot(graph: ExplanationGraph, pset: PredicateSet) -> str:
    """DOT text with predicate labels at 2 decimals and weights at 4."""
    return _dot_text(sorted(graph.edges.items()), _node_texts(pset, graph.node_count)[0])


def _dot_text(edges: list[tuple[tuple[int, int], float]], labels: list[str]) -> str:
    """``to_dot``'s text from the sorted edges and each node's quoted label."""
    lines = ["digraph explanation {"]
    lines += [f"  n{node} [label={labels[node]}];" for node in sorted({n for e, _ in edges for n in e})]
    lines += [f'  n{u} -> n{v} [label="{w:.4f}"];' for (u, v), w in edges]
    return "\n".join(lines) + "\n}\n"


def to_json(graph: ExplanationGraph, pset: PredicateSet) -> str:
    """Lossless JSON twin of the DOT export.

    The text is that of ``json.dumps(payload, indent=2, sort_keys=True)``
    with payload ``{"seed", "nodes": [{"id", "label"}], "edges":
    [{"source", "target", "weight"}]}``, written directly: labels go
    through ``json.dumps`` once each and weights through ``_json_floats``."""
    return _json_text(graph.seed, sorted(graph.edges.items()), _node_texts(pset, graph.node_count)[1])


def _json_text(seed: int, edges: list[tuple[tuple[int, int], float]], nodes: str) -> str:
    """``to_json``'s text from the sorted edges and the listed nodes."""
    weights = _json_floats(np.array([w for _, w in edges], dtype=float))
    items = [
        f'    {{\n      "source": {u},\n      "target": {v},\n      "weight": {w}\n    }}'
        for ((u, v), _), w in zip(edges, weights)
    ]
    return f'{{\n  "edges": {_json_list(items)},\n  "nodes": {nodes},\n  "seed": {seed}\n}}\n'


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def ranking_csv(ranking: PredicateRanking, pset: PredicateSet) -> str:
    per_seed_columns = ",".join(f"lrc_seed_{i + 1}" for i in range(len(ranking.seeds)))
    lines = [f"rank,predicate,zone,direction,tau,lrc_mean,{per_seed_columns}"]
    for rank, j in enumerate(ranking.order, start=1):
        pred = pset.predicates[j]
        per_seed = ",".join(_fmt(v) for v in ranking.per_seed[:, j])
        lines.append(
            f"{rank},{csv_quote(pred.label)},{csv_field(pred.zone_name)},{pred.direction},"
            f"{_fmt(pred.tau)},{_fmt(ranking.mean_lrc[j])},{per_seed}"
        )
    return "\n".join(lines) + "\n"


def zone_ranking_csv(zones: list[tuple[str, bool]]) -> str:
    lines = ["rank,zone,status"]
    for rank, (name, ranked) in enumerate(zones, start=1):
        lines.append(f"{rank},{csv_field(name)},{'ranked' if ranked else 'unranked'}")
    return "\n".join(lines) + "\n"


def zone_models_to_json(models: list[ZoneModel]) -> str:
    """The zone models as a JSON list, one object a line, decimals with 17 significant digits."""
    objects = [
        f'  {{"name": {json.dumps(m.zone_name)}, "indices": [{", ".join(str(int(i)) for i in m.indices)}], '
        f'"mean": [{", ".join(_fmt(v) for v in m.mean)}], "loading": [{", ".join(_fmt(v) for v in m.loading)}], '
        f'"variance_explained": {_fmt(m.variance_explained)}}}'
        for m in models
    ]
    return "[\n" + ",\n".join(objects) + "\n]\n"


def threshold_table_csv(predicates, models: list[ZoneModel], axis: np.ndarray, state: PreprocessState | None) -> str:
    """Every predicate's threshold spectrum as one CSV table with columns
    ``predicate,label,axis,value``: one row per (predicate, zone channel),
    predicates in the given order, channels in zone order. ``predicate``
    is the position in ``predicates``, ``label`` is quoted, and axis and
    value have 17 significant digits (``"%.17g" % x`` is the text
    ``_fmt(x)`` gives). With ``state``, the preprocessing the zones were
    fitted after, values are in the units of the data it was fitted on."""
    lines = ["predicate,label,axis,value"]
    for j, pred in enumerate(predicates):
        model = models[pred.zone_index]
        prefix = f"{j},{csv_quote(pred.label)},"
        profile = threshold_spectrum(model, pred.tau)
        if state is not None:
            profile = to_input_units(state, profile, model.indices)
        lines.extend(prefix + "%.17g,%.17g" % pair for pair in zip(axis[model.indices].tolist(), profile.tolist()))
    return "\n".join(lines) + "\n"
