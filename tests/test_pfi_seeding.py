"""``evalkit.pfi`` against the ``pfi`` it replaced (``parent_rules``): the
PCG64 states ``_pcg64_states`` derives without a ``SeedSequence``, the
permutations drawn from them, the two-column probability shift, and the
importances, model calls and external request lines, all bit for bit."""

import numpy as np
import pytest

import parent_rules
from smx import engine, evalkit
from smx.evalkit import _pcg64_states
from smx.models import PROBABILISTIC, ExternalModel, RidgeModel
from test_output_shifts import _model, _observe

# seeds of one, two, three and five uint32 words; five are more entropy words than SeedSequence's pool of four
SEEDS = (0, 7, 2**32, 2**64 + 5, 2**130)


@pytest.mark.parametrize("seed", SEEDS)
def test_states_match_numpy(seed):
    got = _pcg64_states(seed, 2048)
    want = []
    for j in range(2048):
        state = np.random.PCG64(np.random.SeedSequence(entropy=(seed, j))).state["state"]
        want.append((state["state"], state["inc"]))
    assert got == want


@pytest.mark.parametrize("seed", SEEDS)
def test_permutations_match_numpy(seed):
    """A generator set to a derived state draws what the seeded one draws."""
    rows = np.broadcast_to(np.arange(11), (10, 11))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for j, (state, inc) in enumerate(_pcg64_states(seed, 64)):
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
        }
        want = np.random.default_rng(np.random.SeedSequence(entropy=(seed, j))).permuted(rows, axis=1)
        np.testing.assert_array_equal(rng.permuted(rows, axis=1), want)


def test_no_states_for_no_columns():
    assert _pcg64_states(3, 0) == []


class _Probabilities:
    """A probabilistic model answering fixed, arbitrary probability rows."""

    kind = PROBABILISTIC

    def __init__(self, answers):
        self.answers = iter(answers)

    def predict_proba(self, X):
        return next(self.answers)


def test_two_column_shift_equals_the_sum():
    """The class-averaged shift is ``diff.sum(axis=1) / 2`` bit for bit,
    on subnormal, tiny, huge and equal probabilities."""
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.uniform(size=4000), rng.uniform(size=1000) ** 40, [0.0, 5e-324, 1e-300, 1.0]])
    answers = [rng.choice(values, size=(2000, 2)) for _ in range(6)]
    got = list(engine.output_shifts(_Probabilities(answers), np.zeros((2000, 1)), [([0], 0.0)] * 5)[1])
    want = list(parent_rules.output_shifts(_Probabilities(answers), np.zeros((2000, 1)), [([0], 0.0)] * 5)[1])
    for shift, parent, answer in zip(got, want, answers[1:]):
        diff = np.abs(answers[0] - answer)
        np.testing.assert_array_equal(shift.view(np.uint64), (diff.sum(axis=1) / 2).view(np.uint64))
        np.testing.assert_array_equal(shift.view(np.uint64), parent.view(np.uint64))


@pytest.mark.parametrize("name", ["ridge", "logistic", "external-sum"])
def test_matches_the_parent_pfi(name):
    rng = np.random.default_rng(5)
    m, p = 13, 9
    X = rng.normal(size=(m, p))
    X[:, 4] = 2.5  # a constant column: every permutation leaves it unchanged
    with _model(name, p, rng) as model:
        for repeats in (1, 2, 10):
            for seed in SEEDS:
                got, calls, lines = _observe(model, lambda mdl: evalkit.pfi(mdl, X, repeats, seed))
                want, want_calls, want_lines = _observe(model, lambda mdl: parent_rules.pfi(mdl, X, repeats, seed))
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
                assert got[4] == 0.0
                assert calls == want_calls == [repeats * m] * (1 + p)
                assert lines == want_lines
                assert not isinstance(model, ExternalModel) or len(lines) == 1 + p


def test_pfi_keys_no_generator_through_a_seed_sequence(monkeypatch):
    """A counter on ``np.random.SeedSequence`` sees the parent's p keyed
    generators and no call from ``pfi``, whose one generator is built from
    seed 0 and then set to each variable's derived state."""
    built = []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("entropy", args[:1]))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    X = np.random.default_rng(6).normal(size=(8, 5))
    model = RidgeModel(weights=np.arange(5.0), intercept=0.0)
    parent = parent_rules.pfi(model, X, repeats=3, seed=4)
    assert built == [(4, j) for j in range(5)]
    built.clear()
    np.testing.assert_array_equal(evalkit.pfi(model, X, repeats=3, seed=4), parent)
    assert built == []
