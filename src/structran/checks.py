"""Finite-difference and enumeration suites shared by tests and the CLI.

Every differentiable operation is checked against finite differences
(oracles.finite_difference_grad), and both dynamic programs are checked
against brute-force enumeration.  The CLI exposes these as `gradcheck`
and `oracle-check` so the acceptance runs are scriptable outside pytest.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import fertility
from . import oracles
from . import reordering
from .model import Model, ModelConfig
from .training import TrainConfig, example_loss

OP_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-3


@dataclass
class CheckResult:
    name: str
    error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.error <= self.tolerance


def compare_gradients(name: str, loss: Callable[[], ad.Node], nodes: list[ad.Node],
                      tol: float) -> CheckResult:
    """Tape gradients of loss() with respect to nodes against finite
    differences, which perturb each node's value in place."""
    for node in nodes:
        node.grad = None
    ad.backward(loss())
    analytic = [np.zeros_like(node.value) if node.grad is None else node.grad
                for node in nodes]

    def f():
        with ad.no_grad():
            return float(loss().value)

    numeric = oracles.finite_difference_grad(f, [node.value for node in nodes])
    return CheckResult(name, oracles.max_relative_error(analytic, numeric), tol)


def run_case(name: str, build: Callable, arrays: list[np.ndarray],
             tol: float = OP_TOLERANCE) -> CheckResult:
    """Compare tape gradients of build(nodes) with finite differences."""
    nodes = [ad.parameter(a.copy()) for a in arrays]
    return compare_gradients(name, lambda: build(nodes), nodes, tol)


def _weighted(node: ad.Node) -> ad.Node:
    """Scalarize with fixed random weights so every entry matters."""
    w = ad.constant(np.random.default_rng(12345).standard_normal(node.shape))
    return ad.sum_(node * w)


def op_cases(seed: int = 0) -> list[tuple[str, Callable, list[np.ndarray]]]:
    """(name, build, arrays) for every autodiff op and both DP layers.

    Each case draws its arrays, make(r) with r a standard normal sampler,
    from its own generator seeded by (seed, crc32(name)), so adding or
    removing a case leaves the inputs of every other case unchanged.
    """
    cases: list[tuple[str, Callable, list[np.ndarray]]] = []

    def case(name, build, make):
        rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
        cases.append((name, build, make(rng.standard_normal)))

    case("add.broadcast", lambda n: _weighted(ad.add(n[0], n[1])),
         lambda r: [r((3, 4)), r(4)])
    case("sub.broadcast", lambda n: _weighted(ad.sub(n[0], n[1])),
         lambda r: [r((3, 4)), r((3, 1))])
    case("mul.broadcast", lambda n: _weighted(ad.mul(n[0], n[1])),
         lambda r: [r((2, 3, 4)), r(4)])
    for name, shapes in (("mm", [(3, 4), (4, 2)]), ("batched", [(3, 4, 5), (5, 2)]),
                         ("broadcast", [(4, 1, 3), (1, 3, 2)])):
        case(f"matmul.{name}", lambda n: _weighted(ad.matmul(n[0], n[1])),
             lambda r: [r(shape) for shape in shapes])
    case("concat.axis1", lambda n: _weighted(ad.concat(n, axis=1)),
         lambda r: [r((3, 2)), r((3, 4)), r((3, 1))])
    case("slice.basic",
         lambda n: _weighted(ad.slice_(n[0], (slice(1, 3), slice(None, None, 2)))),
         lambda r: [r((4, 5))])
    case("slice.reverse", lambda n: _weighted(ad.slice_(n[0], slice(None, None, -1))),
         lambda r: [r((4, 3))])
    dup_rows = np.array([0, 2, 0, 1])
    dup_cols = np.array([1, 1, 1, 0])
    case("slice.fancy", lambda n: _weighted(ad.slice_(n[0], (dup_rows, dup_cols))),
         lambda r: [r((3, 3))])
    dup_idx = np.array([0, 1, 1, 3, 0])
    case("slice.rows.dup", lambda n: _weighted(ad.slice_(n[0], dup_idx)),
         lambda r: [r((4, 3))])
    case("reshape", lambda n: _weighted(ad.reshape(n[0], (2, 6))),
         lambda r: [r((3, 4))])
    case("transpose.axes", lambda n: _weighted(ad.transpose(n[0], (1, 2, 0))),
         lambda r: [r((2, 3, 4))])
    case("sum.all", lambda n: ad.sum_(n[0]) * 0.7, lambda r: [r((3, 4))])
    case("sum.axis0.keepdims",
         lambda n: _weighted(ad.sum_(n[0], axis=0, keepdims=True)),
         lambda r: [r((3, 4))])
    case("sum.axes02", lambda n: _weighted(ad.sum_(n[0], axis=(0, 2))),
         lambda r: [r((2, 3, 4, 5))])
    case("exp", lambda n: _weighted(ad.exp(n[0])), lambda r: [r((3, 3)) * 0.5])
    case("log", lambda n: _weighted(ad.log(n[0])),
         lambda r: [np.abs(r((3, 3))) + 0.5])
    case("tanh", lambda n: _weighted(ad.tanh(n[0])), lambda r: [r((3, 3))])
    case("sigmoid", lambda n: _weighted(ad.sigmoid(n[0])), lambda r: [r((3, 3))])
    case("softmax.tau", lambda n: _weighted(ad.softmax(n[0], tau=0.7, axis=-1)),
         lambda r: [r((3, 5))])

    def as_table(node):
        return fertility.FertilityTable(ad.softmax(node, axis=-1))

    case("fertility.length_distribution",
         lambda n: _weighted(fertility.length_distribution(as_table(n[0]))),
         lambda r: [r((4, 3)) * 2.0])
    case("fertility.log_length_probability",
         lambda n: fertility.log_length_probability(as_table(n[0]), 5),
         lambda r: [r((4, 4)) * 2.0])
    case("fertility.marginal",
         lambda n: _weighted(fertility.marginal_fertility(as_table(n[0]), 5)),
         lambda r: [r((4, 4)) * 2.0])
    case("fertility.marginal.l4",
         lambda n: _weighted(fertility.marginal_fertility(as_table(n[0]), 4)),
         lambda r: [r((3, 4)) * 2.0])
    case("fertility.log_length_probability.l4",
         lambda n: fertility.log_length_probability(as_table(n[0]), 4),
         lambda r: [r((3, 4)) * 2.0])

    def shared_tables(n):
        # every reader of one table feeds the same prefix/suffix node
        ft = as_table(n[0])
        return (_weighted(fertility.marginal_fertility(ft, 5))
                + fertility.log_length_probability(ft, 5)
                + _weighted(fertility.length_distribution(ft)))

    case("fertility.shared_tables", shared_tables, lambda r: [r((4, 3)) * 2.0])
    case("reordering.expected_permutation",
         lambda n: _weighted(reordering.expected_permutation(
             reordering.SpanScores(5, n[0]))),
         lambda r: [r((len(reordering.spans(5)), 2)) * 1.5])
    # eight widths: the adjoint's per-span segment sums gather up to 8 splits
    case("reordering.expected_permutation.l9",
         lambda n: _weighted(reordering.expected_permutation(
             reordering.SpanScores(9, n[0]))),
         lambda r: [r((len(reordering.spans(9)), 2)) * 1.5])

    case("lstm", lambda n: _weighted(ad.lstm(*n)[0]),
         lambda r: [r((5, 12)), r((12, 3))])  # zx and wh, T=5, H=3
    # a non-zero start state puts h_0 into row 0 of wh's gradient
    case("lstm.start", lambda n: _weighted(ad.lstm(*n, np.linspace(-0.9, 0.9, 6))[0]),
         lambda r: [r((5, 12)), r((12, 3))])
    case("bilstm", lambda n: _weighted(ad.bilstm(*n)),
         lambda r: [r((5, 2)), r((12, 5)), r(12), r((12, 5)), r(12)])  # T=5, D=2, H=3

    return cases


def run_op_gradchecks(seed: int = 0) -> list[CheckResult]:
    return [run_case(name, build, arrays)
            for name, build, arrays in op_cases(seed)]


# ---------------------------------------------------------------------------
# end-to-end model gradients

def _tiny_config(**overrides) -> ModelConfig:
    base = dict(source_vocab=4, target_vocab=5, embedding_dim=3,
                fertility_hidden=3, reorder_hidden=3, context_hidden=3,
                fertility_mlp=3, span_mlp=3, output_mlp=3, max_fertility=2,
                temperature=0.9, skip_scale=0.8, seed=7)
    base.update(overrides)
    return ModelConfig(**base)


def run_model_case(name: str, model: Model, loss_fn: Callable,
                   tol: float = MODEL_TOLERANCE) -> CheckResult:
    """Finite-difference check of loss_fn(model) over every parameter."""
    nodes = [node for _, node in model.store.items()]
    return compare_gradients(name, lambda: loss_fn(model), nodes, tol)


def model_cases(seed: int = 0) -> list[tuple[str, Model, Callable]]:
    """(name, model, loss) for each end-to-end case; every model draws its
    weights from seed 7 + seed, so seed 0 gives the original cases."""
    src = np.array([0, 2, 1])
    tgt = np.array([1, 0, 3, 2])
    tc = TrainConfig(lambda_length=1.0, lambda_guidance=0.5, guidance_epochs=1,
                     epochs=1)
    guidance = {(0, 1), (2, 2)}

    def loss_with_guidance(model):
        return example_loss(model, src, tgt, tc, guidance)[0]

    def loss_plain(model):
        return example_loss(model, src, tgt, tc)[0]

    def config(**overrides):
        return _tiny_config(seed=7 + seed, **overrides)

    cases = [
        ("model.fertility_first.guided",
         Model(config()), loss_with_guidance),
        ("model.reorder_first",
         Model(config(composition="reorder-first")), loss_plain),
        ("model.copy_decoder",
         Model(config(decoder="copy"), copy_ids=np.array([1, 0, 3, 2])),
         loss_plain),
        ("model.autoregressive",
         Model(config(decoder="autoregressive", decoder_hidden=4)),
         loss_plain),
        # decoder_hidden == embedding_dim: no ar.proj, the LSTM rows meet W1
        ("model.autoregressive.square",
         Model(config(decoder="autoregressive", decoder_hidden=3)),
         loss_plain),
    ]
    return cases


def run_model_gradchecks(seed: int = 0) -> list[CheckResult]:
    return [run_model_case(name, model, fn) for name, model, fn in model_cases(seed)]


def run_all_gradchecks(seed: int = 0) -> list[CheckResult]:
    return run_op_gradchecks(seed) + run_model_gradchecks(seed)


# ---------------------------------------------------------------------------
# enumeration oracles

def random_fertility_table(rng: np.random.Generator, n: int, d: int,
                           peaked: bool = False) -> np.ndarray:
    probs = rng.random((n, d + 1)) + 0.05
    if peaked:
        probs = probs ** 12
    return probs / probs.sum(axis=1, keepdims=True)


def fertility_oracle_suite(tables_per_size: int = 20,
                           seed: int = 0) -> dict:
    """Compare both fertility DP outputs with enumeration.

    Covers every n up to 5 and d up to 3, all feasible lengths.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = 0
    for n in range(1, 6):
        for d in range(1, 4):
            for trial in range(tables_per_size):
                probs = random_fertility_table(rng, n, d, peaked=trial % 5 == 4)
                ft = fertility.FertilityTable(ad.constant(probs))
                dist = fertility.length_distribution(ft).value
                enum_dist = oracles.enum_length_distribution(probs)
                worst = max(worst, float(np.abs(dist - enum_dist).max()))
                for length in range(1, n * d + 1):
                    enum_marg, total = oracles.enum_fertility_marginals(probs, length)
                    if total <= 0:
                        continue
                    marg = fertility.marginal_fertility(ft, length).value
                    worst = max(worst, float(np.abs(marg - enum_marg).max()))
                    loglen = fertility.log_length_probability(ft, length).value
                    worst = max(worst, abs(float(np.exp(loglen)) - total))
                    cases += 1
    return {"max_error": worst, "cases": cases}


def permutation_oracle_suite(charts_per_length: int = 20,
                             seed: int = 0) -> dict:
    """Compare expected permutations with full tree enumeration, l = 2..6."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = 0
    for length in range(2, 7):
        span_list = reordering.spans(length)
        for trial in range(charts_per_length):
            scale = 5.0 if trial % 4 == 3 else 1.5
            scores = rng.normal(0.0, scale, (len(span_list), 2))
            ss = reordering.SpanScores(length, ad.constant(scores))
            matrix = reordering.expected_permutation(ss).value
            score_of = {(i, j): tuple(scores[idx])
                        for idx, (i, j) in enumerate(span_list)}
            enum_matrix, _ = oracles.enum_tree_expectation(score_of, length)
            worst = max(worst, float(np.abs(matrix - enum_matrix).max()))
            cases += 1
    return {"max_error": worst, "cases": cases}


def stochasticity_suite(lengths=(8, 16, 27, 40), charts_per_length: int = 3,
                        seed: int = 0) -> dict:
    """Row and column sums of the expected permutation at larger lengths."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for length in lengths:
        n_spans = len(reordering.spans(length))
        for _ in range(charts_per_length):
            scores = rng.normal(0.0, 2.0, (n_spans, 2))
            ss = reordering.SpanScores(length, ad.constant(scores))
            matrix = reordering.expected_permutation(ss).value
            worst = max(worst, float(np.abs(matrix.sum(axis=0) - 1.0).max()))
            worst = max(worst, float(np.abs(matrix.sum(axis=1) - 1.0).max()))
            worst = max(worst, float(max(0.0, -matrix.min())))
    return {"max_error": worst, "lengths": list(lengths)}
