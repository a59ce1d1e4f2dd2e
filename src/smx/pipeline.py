"""End-to-end wiring of the explanation pipeline, in two stages.

``prepare`` is the seed-free stage. Given preprocessed training data, a
zone config, a model handle and the engine's quantile levels, it fits
the zone summaries, builds the predicates and asks the model for its
``Responses`` (zones + 1 calls on the training matrix). ``rank`` is the
per-seed stage. It scores the bags of every seed from those responses,
assembles the per-seed graphs and aggregates the final predicate and
zone rankings, without calling the model. ``explain`` is
``rank(prepare(...))``; reruns on the same training set, zones and model
(a stability study, say) prepare once and rank many times.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataio import SpectralDataset, ZoneConfig
from .engine import BagResult, EngineConfig, Responses, responses, run_bags
from .errors import ConfigError
from .graphx import (
    ExplanationGraph,
    PredicateRanking,
    aggregate_seeds,
    build_graph,
    zone_ranking,
)
from .parallel import thread_count
from .predicates import PredicateSet, build_predicates
from .zonecore import ZoneModel, fit_zone_models


@dataclass
class ExplainResult:
    zone_models: list[ZoneModel]
    predicate_set: PredicateSet
    bag_results: dict[int, list[BagResult]]  # seed -> bags
    graphs: list[ExplanationGraph]
    ranking: PredicateRanking
    zone_order: list[tuple[str, bool]]

    def predicate_labels(self) -> list[str]:
        """Predicate identity strings in ranking order (the raw output list)."""
        return [self.predicate_set.predicates[j].key for j in self.ranking.order]


@dataclass
class Prepared:
    """Everything the per-seed stage needs that no seed changes."""

    zone_names: list[str]
    quantiles: tuple[float, ...]
    zone_models: list[ZoneModel]
    predicate_set: PredicateSet
    responses: Responses


def prepare(
    train: SpectralDataset,
    zones: ZoneConfig,
    model,
    cfg: EngineConfig | None = None,
) -> Prepared:
    """The seed-free stage: zone models, predicates and model responses."""
    cfg = cfg or EngineConfig()
    zone_models, scores = fit_zone_models(train, zones)
    pset = build_predicates(scores, zone_models, cfg.quantiles)
    return Prepared(
        zone_names=zones.names(),
        quantiles=cfg.quantiles,
        zone_models=zone_models,
        predicate_set=pset,
        responses=responses(model, train.intensities, zone_models),
    )


def rank(prepared: Prepared, cfg: EngineConfig | None = None) -> ExplainResult:
    """The per-seed stage: bags, graph and LRC for every seed of ``cfg``."""
    cfg = cfg or EngineConfig()
    if tuple(cfg.quantiles) != tuple(prepared.quantiles):
        raise ConfigError("the engine quantiles differ from the ones the predicates were built with")
    workers = thread_count()
    pset = prepared.predicate_set
    bag_results: dict[int, list[BagResult]] = {}
    graphs: list[ExplanationGraph] = []
    for seed in cfg.seeds:
        bags = run_bags(
            prepared.responses.shifts,
            prepared.responses.classes,
            prepared.zone_models,
            pset,
            cfg,
            seed,
            workers=workers,
        )
        bag_results[seed] = bags
        graphs.append(build_graph(bags, prepared.zone_models, pset, seed))
    ranking = aggregate_seeds(graphs, pset)
    return ExplainResult(
        zone_models=prepared.zone_models,
        predicate_set=pset,
        bag_results=bag_results,
        graphs=graphs,
        ranking=ranking,
        zone_order=zone_ranking(
            ranking.mean_lrc, [p.zone_name for p in pset.predicates], prepared.zone_names
        ),
    )


def explain(
    train: SpectralDataset,
    zones: ZoneConfig,
    model,
    cfg: EngineConfig | None = None,
) -> ExplainResult:
    """Run the full explanation pipeline on one training set."""
    cfg = cfg or EngineConfig()
    return rank(prepare(train, zones, model, cfg), cfg)


def derive_seeds(base_seed: int, count: int = 4) -> tuple[int, ...]:
    """Deterministic distinct engine seeds for reruns keyed by one integer."""
    return tuple(1000 * int(base_seed) + k + 1 for k in range(count))
