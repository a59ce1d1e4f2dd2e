"""End-to-end wiring of the explanation pipeline, in two stages.

``prepare`` is the seed-free stage. Given preprocessed training data, a
zone config, a model handle and an ``EngineConfig``, it fits the zone
summaries, builds the predicates and asks the model for its
``Responses`` (zones + 1 calls on the training matrix). ``rank`` is the
per-seed stage. It scores the bags of every seed from those responses,
assembles the per-seed graphs and aggregates the final predicate and
zone rankings, without calling the model. ``explain`` is
``rank(prepare(...))``; reruns on the same training set, zones and model
(a stability study, say) prepare once and rank many times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dataio import SpectralDataset, ZoneConfig
from .engine import BagResult, EngineConfig, Responses, bag_size, min_support, responses, run_bags
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

# Each quantile level adds up to two predicates per zone, and LRC holds an
# N x N array for N predicates: the widest shipped layout (forage_xrf.json,
# 22 zones) at every percentile is N = 4,356, about 19 MB.
MAX_PREDICATES = 4356


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

    cfg: EngineConfig
    zone_models: list[ZoneModel]
    predicate_set: PredicateSet
    responses: Responses


def explain_setting(train: SpectralDataset, zones: ZoneConfig, cfg: EngineConfig) -> None:
    """Refuse settings that allow too many predicates, or under which no bag
    can retain one. ``prepare`` checks them before it fits a zone or asks
    the model, and the CLI before it loads the model."""
    n_zones, n_levels = len(zones.zones), len(cfg.quantiles)
    if (most := 2 * n_zones * n_levels) > MAX_PREDICATES:
        raise ConfigError(
            f"{n_zones} zones x {n_levels} quantile levels allow {most} predicates; at most {MAX_PREDICATES} are allowed"
        )
    n = train.n_samples
    if (need := min_support(n, cfg.min_support_fraction)) > (size := bag_size(n, cfg.bag_fraction)):
        raise ConfigError(
            f"min support {need} (min_support_fraction {cfg.min_support_fraction} of {n} samples) exceeds "
            f"the bag size {size} (bag_fraction {cfg.bag_fraction}): no predicate could be retained"
        )


def prepare(train: SpectralDataset, zones: ZoneConfig, model, cfg: EngineConfig) -> Prepared:
    """The seed-free stage: zone models, predicates and model responses,
    under settings ``explain_setting`` accepts."""
    explain_setting(train, zones, cfg)
    zone_models, scores = fit_zone_models(train, zones)
    return Prepared(
        cfg=cfg,
        zone_models=zone_models,
        predicate_set=build_predicates(scores, zone_models, cfg),
        responses=responses(model, train.intensities, zone_models),
    )


def rank(prepared: Prepared, seeds: tuple[int, ...] | None = None) -> ExplainResult:
    """The per-seed stage: bags, graph and LRC for each of ``seeds`` (checked
    as ``EngineConfig`` checks its own), by default the seeds of the config
    ``prepared`` was built with."""
    cfg = prepared.cfg if seeds is None else replace(prepared.cfg, seeds=tuple(seeds))
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
            ranking.mean_lrc, [p.zone_name for p in pset.predicates], [m.zone_name for m in prepared.zone_models]
        ),
    )


def explain(train: SpectralDataset, zones: ZoneConfig, model, cfg: EngineConfig) -> ExplainResult:
    """Run the full explanation pipeline on one training set."""
    return rank(prepare(train, zones, model, cfg))


def derive_seeds(base_seed: int, count: int = 4) -> tuple[int, ...]:
    """Deterministic distinct engine seeds for reruns keyed by one integer."""
    return tuple(1000 * int(base_seed) + k + 1 for k in range(count))
