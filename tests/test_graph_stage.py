"""The graph stage and the files written from it against the code they
replaced (``parent_rules``): ``run_bags``, ``_break_cycles`` with its DEBUG
records, ``lrc_scores``, ``trace_lines``, ``to_dot`` / ``to_json`` and the
graph files of ``explain_files``, and the logistic ``_sigmoid`` and
``predict_proba``. Every comparison is bit for bit or byte for byte: on
seeded random inputs, on the 30-zone x 9-quantile benchmark explain and on
one seed's graph at the predicate bound (22 zones x 99 levels)."""

import logging

import numpy as np
import pytest

import parent_rules
from smx import artifacts, dataio, graphx, models, pipeline, synthgen
from smx.dataio import Zone, ZoneConfig
from smx.engine import ENTRY_DTYPE, BagResult, EngineConfig, run_bags
from smx.graphx import ExplanationGraph
from smx.predicates import Predicate, PredicateSet
from smx.zonecore import ZoneModel
from test_graphx import _random_lrc_graph, _special_pset


def _prepared(n_zones, quantiles, seeds):
    """The benchmark data (seed 42, mean-centred train split) prepared over
    ``n_zones`` equal-width zones, with the CLI's default logistic."""
    ds = synthgen.generate(synthgen.benchmark_config(42))
    train, _test = dataio.kennard_stone_split(ds, 0.7)
    state = dataio.fit_preprocess(train, "mean_center")
    train = dataio.apply_preprocess(state, train)
    width = len(train.axis) // n_zones
    zones = ZoneConfig(
        [
            Zone(f"Z{k + 1:02d}", float(train.axis[k * width]), float(train.axis[(k + 1) * width - 1]), False)
            for k in range(n_zones)
        ]
    )
    cfg = EngineConfig(quantiles=quantiles, seeds=seeds)
    return pipeline.prepare(train, zones, models.fit_logistic(train), cfg), train.axis, state


@pytest.fixture(scope="module")
def many_zones():
    """540 predicates and four seeds, as the benchmark's many-zones explain."""
    return _prepared(30, tuple(k / 10 for k in range(1, 10)), (1, 2, 3, 4))


@pytest.fixture(scope="module")
def bound():
    """4,356 predicates, the most ``pipeline.MAX_PREDICATES`` allows; one seed."""
    prepared = _prepared(22, tuple(k / 100 for k in range(1, 100)), (1,))[0]
    assert len(prepared.predicate_set) == pipeline.MAX_PREDICATES
    return prepared


def _bags(prepared, seed, runner=run_bags):
    r = prepared.responses
    return runner(r.shifts, r.classes, prepared.zone_models, prepared.predicate_set, prepared.cfg, seed)


def _same_bags(got, want):
    assert [(b.bag_index, b.terminal_class) for b in got] == [(b.bag_index, b.terminal_class) for b in want]
    assert all(g.entries.dtype == ENTRY_DTYPE and g.entries.tobytes() == w.entries.tobytes() for g, w in zip(got, want))


def _graph_and_records(prepared, seed, bags, prune, monkeypatch, caplog):
    """``build_graph`` pruning with ``prune``, and the (victim, weight) of each
    DEBUG record it logged, in order."""
    monkeypatch.setattr(graphx, "_break_cycles", prune)
    caplog.clear()
    with caplog.at_level(logging.DEBUG):
        graph = graphx.build_graph(bags, prepared.zone_models, prepared.predicate_set, seed)
    monkeypatch.undo()
    records = [r.args[1:] for r in caplog.records if r.levelno == logging.DEBUG and "dropping edge" in r.msg]
    return graph, records


def _assert_graph_stage(prepared, seed, monkeypatch, caplog):
    """Bags, pruning, LRC and the graph's and trace's texts equal the parent's;
    returns the number of edges dropped."""
    pset = prepared.predicate_set
    bags = _bags(prepared, seed)
    _same_bags(bags, _bags(prepared, seed, parent_rules.run_bags))
    graph, records = _graph_and_records(prepared, seed, bags, graphx._break_cycles, monkeypatch, caplog)
    want, want_records = _graph_and_records(prepared, seed, bags, parent_rules._break_cycles, monkeypatch, caplog)
    assert list(graph.edges.items()) == list(want.edges.items())
    assert records == want_records
    got_lrc = graphx.lrc_scores(graph.node_count, graph.edges)
    assert got_lrc.tobytes() == parent_rules.lrc_scores(graph.node_count, graph.edges).tobytes()
    assert artifacts.to_dot(graph, pset) == parent_rules.to_dot(graph, pset)
    assert artifacts.to_json(graph, pset) == parent_rules.to_json(graph, pset)
    assert artifacts.trace_lines(seed, bags, pset) == parent_rules.trace_lines(seed, bags, pset)
    return len(records)


def test_many_zone_graph_stage(many_zones, monkeypatch, caplog):
    prepared = many_zones[0]
    dropped = [_assert_graph_stage(prepared, seed, monkeypatch, caplog) for seed in prepared.cfg.seeds]
    assert min(dropped) > 0


def test_predicate_bound_graph_stage(bound, monkeypatch, caplog):
    assert _assert_graph_stage(bound, 1, monkeypatch, caplog) > 0


def test_explain_files_write_the_parent_graph_texts(many_zones):
    prepared, axis, state = many_zones
    result = pipeline.rank(prepared)
    pset = result.predicate_set
    files = dict(artifacts.explain_files(result, axis, state))
    for graph in result.graphs:
        assert files[f"graph_seed_{graph.seed}.dot"] == parent_rules.to_dot(graph, pset)
        assert files[f"graph_seed_{graph.seed}.json"] == parent_rules.to_json(graph, pset)
    trace = [line for g in result.graphs for line in parent_rules.trace_lines(g.seed, result.bag_results[g.seed], pset)]
    assert files["bag_trace.jsonl"] == "\n".join(trace + [""])


def _random_digraph(trial):
    """Up to 4n edges on n nodes, self-loops included; every tenth graph is
    empty, and weights are at one decimal on two trials in three, so that
    the lightest edge of a cycle is often tied."""
    rng = np.random.default_rng(9000 + trial)
    n = int(rng.integers(1, 17))
    edges = {}
    for _ in range(0 if trial % 10 == 0 else int(rng.integers(1, 4 * n + 1))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        w = float(rng.uniform(0.1, 2.0))
        edges[(u, v)] = round(w, 1) if trial % 3 else w
    if trial % 2:
        graphx._resolve_bidirectional(edges)
    return edges


def _pruned(prune, edges, caplog):
    edges = dict(edges)
    caplog.clear()
    with caplog.at_level(logging.DEBUG):
        prune(edges, 5)
    records = [(r.levelno, r.args) for r in caplog.records]
    return list(edges.items()), records


def test_pruning_random_digraphs(caplog):
    dropped = 0
    for trial in range(2000):
        edges = _random_digraph(trial)
        got = _pruned(graphx._break_cycles, edges, caplog)
        want = _pruned(parent_rules._break_cycles, edges, caplog)
        assert got == want, f"trial {trial}"
        dropped += sum(level == logging.DEBUG for level, _ in want[1])
    assert dropped > 1000


def test_lrc_random_digraphs():
    for trial in range(1000):
        n, edges = _random_lrc_graph(trial)
        assert graphx.lrc_scores(n, edges).tobytes() == parent_rules.lrc_scores(n, edges).tobytes(), f"trial {trial}"


def _zone(width):
    return ZoneModel(
        zone_name="z", indices=np.arange(width), mean=np.zeros(width), loading=np.ones(width), variance_explained=0.5
    )


def test_run_bags_random_shifts():
    """Random shifts (some exactly zero), indicators and zone widths, at bag
    fractions that keep every sample or few."""
    for trial in range(40):
        rng = np.random.default_rng(trial)
        n, n_zones, n_pred = int(rng.integers(5, 60)), int(rng.integers(1, 6)), int(rng.integers(1, 30))
        shifts = rng.exponential(size=(n, n_zones)) * (rng.random((n, n_zones)) < 0.8)
        classes = rng.integers(0, 2, size=n)
        zone_of = rng.integers(0, n_zones, size=n_pred)
        preds = [Predicate(zone_index=int(m), zone_name=f"z{m}", direction=">", tau=0.0) for m in zone_of]
        pset = PredicateSet(predicates=preds, indicator=rng.random((n, n_pred)) < rng.uniform(0.2, 0.9))
        zone_models = [_zone(int(rng.integers(1, 40))) for _ in range(n_zones)]
        cfg = EngineConfig(bags=7, bag_fraction=float(rng.choice([0.3, 0.8, 1.0])), min_support_fraction=0.1)
        for seed in (0, 3):
            got = run_bags(shifts, classes, zone_models, pset, cfg, seed)
            _same_bags(got, parent_rules.run_bags(shifts, classes, zone_models, pset, cfg, seed))


def test_trace_lines_special_floats():
    """Non-finite, signed-zero, subnormal and large values, as ``json.dumps`` writes them."""
    pset = _special_pset()
    values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e22, 1 / 3]
    bags = []
    for b in range(3):
        records = [(j, values[(j + b) % 7], values[(2 * j + b) % 7], j + b) for j in range(len(pset))]
        bags.append(BagResult(b, np.array(records[: 7 - 2 * b], dtype=ENTRY_DTYPE), b % 2 or None))
    bags.append(BagResult(3, np.empty(0, dtype=ENTRY_DTYPE), None))
    assert artifacts.trace_lines(11, bags, pset) == parent_rules.trace_lines(11, bags, pset)


def test_dot_and_json_special_graphs():
    pset = _special_pset()
    weights = [0.1, 1e-320, float("nan"), float("inf"), float("-inf"), 1e16, 123456789.0, np.float64(2 / 3), -0.0]
    edge_sets = [{(j % 7, (3 * j + 1) % 9): w for j, w in enumerate(weights)}, {}]
    edge_sets.append({(8, 0): 1.5, (2, 2): 0.25, (0, 7): 2.0})
    for seed, edges in enumerate(edge_sets):
        graph = ExplanationGraph(seed=seed, n_predicates=len(pset), edges=edges)
        assert artifacts.to_dot(graph, pset) == parent_rules.to_dot(graph, pset)
        assert artifacts.to_json(graph, pset) == parent_rules.to_json(graph, pset)


@pytest.mark.parametrize("length", [1, 7, 730, 7300])
def test_sigmoid_random(length):
    z = np.random.default_rng(length).normal(scale=20.0, size=length)
    assert models._sigmoid(z).tobytes() == parent_rules._sigmoid(z).tobytes()


def test_sigmoid_special_values():
    """Signed zeros and NaNs, subnormals, the ends of exp's range and infinities."""
    z = np.array([0.0, -0.0, 1e-320, -1e-320, 1.0, -1.0, 709.0, -745.0, -746.0, 1e308, -1e308, np.inf, -np.inf])
    z = np.r_[z, np.nan, -np.nan]
    assert models._sigmoid(z).tobytes() == parent_rules._sigmoid(z).tobytes()


def test_logistic_probabilities_and_fit(monkeypatch):
    ds = synthgen.generate(synthgen.benchmark_config(3))
    model = models.fit_logistic(ds)
    got = model.predict_proba(ds.intensities)
    want = parent_rules.logistic_predict_proba(model, ds.intensities)
    assert got.shape == want.shape and got.flags.c_contiguous and got.tobytes() == want.tobytes()
    monkeypatch.setattr(models, "_sigmoid", parent_rules._sigmoid)
    parent = models.fit_logistic(ds)
    assert (model.weights.tobytes(), model.intercept, model.n_iters) == (
        parent.weights.tobytes(), parent.intercept, parent.n_iters
    )
