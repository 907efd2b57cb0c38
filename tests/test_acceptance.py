"""Acceptance gate: every shipped claim, one pass/fail line per criterion.

Run with -s to see the verdict lines as they print; under plain -v the
per-test PASSED/FAILED markers carry the same information.  Training
fixtures are module-scoped and shared, so the file costs roughly seven
small training runs plus the gradient suite.
"""
import math
import random
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from structran import autodiff as ad
from structran import checks, data, inference, oracles, training
from structran.cli import load_config_file, train_checkpoint
from structran.grammar import GrammarError, parse_grammar
from structran.model import Model, ModelConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_SEED = 1
SEEDS = (0, 1, 2)


def verdict(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def scored_run(splits, config_name, seed):
    """The shared training run (cli.train_checkpoint) on one config and
    seed, scored on the test split."""
    model_raw, train_raw = load_config_file(CONFIG_DIR / config_name)
    started = time.perf_counter()
    model, source_vocab, target_vocab, result = train_checkpoint(
        splits["train"], splits["dev"], {**model_raw, "seed": seed},
        {**train_raw, "seed": seed})
    test_pairs = data.encode_examples(splits["test"], source_vocab, target_vocab)
    test_em = training.exact_match(model, test_pairs).rate
    return SimpleNamespace(model=model, best_dev=result.best_dev,
                           test_em=test_em, test_pairs=test_pairs,
                           source_vocab=source_vocab, target_vocab=target_vocab,
                           wall=time.perf_counter() - started)


@pytest.fixture(scope="module")
def mirror_a_runs():
    splits = data.generate_mirror_A(DATA_SEED)
    return [scored_run(splits, "mirror_a.json", seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def mirror_b_runs():
    splits = data.generate_mirror_B(DATA_SEED)
    return [scored_run(splits, "mirror_b.json", seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def reorder_first_run():
    splits = data.generate_mirror_A(DATA_SEED)
    return scored_run(splits, "mirror_a_reorder_first.json", SEEDS[0])


def test_criterion_1_fertility_matches_enumeration():
    started = time.perf_counter()
    report = checks.fertility_oracle_suite(tables_per_size=20, seed=0)
    wall = time.perf_counter() - started
    ok = report["max_error"] <= 1e-9 and wall < 10 and report["cases"] >= 1500
    verdict(1, ok, f"max error {report['max_error']:.2e} over "
                   f"{report['cases']} cases in {wall:.1f}s")


def test_criterion_2_permutation_matches_enumeration():
    started = time.perf_counter()
    exact = checks.permutation_oracle_suite(charts_per_length=20, seed=0)
    sums = checks.stochasticity_suite(lengths=(8, 16, 27, 40), seed=0)
    wall = time.perf_counter() - started
    ok = (exact["max_error"] <= 1e-9 and exact["cases"] == 100
          and sums["max_error"] <= 1e-6 and wall < 60)
    verdict(2, ok, f"enumeration error {exact['max_error']:.2e}, "
                   f"stochasticity error {sums['max_error']:.2e} "
                   f"to length 40, {wall:.1f}s")


def test_criterion_3_gradient_suite():
    started = time.perf_counter()
    results = checks.run_all_gradchecks(seed=0)
    wall = time.perf_counter() - started
    bad = [r for r in results if not r.ok]
    op_worst = max(r.error for r in results if r.tolerance == checks.OP_TOLERANCE)
    model_worst = max(r.error for r in results
                      if r.tolerance == checks.MODEL_TOLERANCE)
    ok = not bad and wall < 300
    verdict(3, ok, f"{len(results)} checks, per-op worst {op_worst:.2e} "
                   f"(tol 1e-4), end-to-end worst {model_worst:.2e} "
                   f"(tol 1e-3), {wall:.0f}s"
                   + (f"; failed: {[r.name for r in bad]}" if bad else ""))


def test_criterion_4_mirror_a_generalizes(mirror_a_runs):
    dev = statistics.median(r.best_dev for r in mirror_a_runs)
    test = statistics.median(r.test_em for r in mirror_a_runs)
    run = mirror_a_runs[0]
    ids = run.source_vocab.encode(["a", "b", "c"])
    decoded = run.target_vocab.decode(inference.decode(run.model, ids).tokens)
    detail = (f"median dev {dev:.3f}, median test {test:.3f} over "
              f"{len(mirror_a_runs)} seeds, "
              f"walls {[f'{r.wall:.0f}s' for r in mirror_a_runs]}; "
              f"'a b c' decodes to {' '.join(decoded)!r}")
    ok = (dev >= 0.99 and test >= 0.99
          and decoded == ["a", "b", "c", "c", "b", "a"])
    verdict(4, ok, detail)


def test_criterion_5_mirror_b_generalizes(mirror_b_runs):
    test = statistics.median(r.test_em for r in mirror_b_runs)
    verdict(5, test >= 0.60,
            f"median test {test:.3f} over {len(mirror_b_runs)} seeds")


def test_criterion_6_composition_order_contrast(mirror_a_runs,
                                                reorder_first_run):
    fr = statistics.median(r.test_em for r in mirror_a_runs)
    rf = reorder_first_run.test_em
    verdict(6, rf <= 0.20 and fr >= 0.99,
            f"reorder-first test {rf:.3f} vs fertility-first {fr:.3f} "
            f"on the same data and budget")


def _random_cnf(rng, alphabet):
    while True:
        nts = ["S", "A", "B"][: rng.randint(2, 3)]
        binary = [(rng.choice(nts), rng.choice(nts), rng.choice(nts))
                  for _ in range(rng.randint(1, 3))]
        lexical = [(rng.choice(nts), rng.choice(alphabet))
                   for _ in range(rng.randint(2, 4))]
        try:
            return parse_grammar("\n".join(
                ["%start S"]
                + [f"{a} -> {b} {c}" for a, b, c in binary]
                + [f"{a} -> '{t}'" for a, t in lexical]))
        except GrammarError:
            continue


def test_criterion_7_grammar_decoding_is_exact():
    rng = random.Random(7)
    np_rng = np.random.default_rng(7)
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 100:
        alphabet = ["a", "b", "c", "d"][: rng.randint(2, 4)]
        grammar = _random_cnf(rng, alphabet)
        length = rng.randint(1, 4)
        dist = np_rng.dirichlet(np.ones(len(alphabet)), size=length)
        grammatical = [
            ys for ys in np.ndindex(*(len(alphabet),) * length)
            if oracles.cyk_recognizer(grammar, [alphabet[y] for y in ys])]
        if not grammatical:
            with pytest.raises(inference.NoParseError):
                inference.viterbi_cyk(dist, alphabet, grammar)
            continue
        tokens, score = inference.viterbi_cyk(dist, alphabet, grammar)
        assert oracles.cyk_recognizer(grammar, tokens)
        best = max(sum(math.log(dist[i, y]) for i, y in enumerate(ys))
                   for ys in grammatical)
        worst = max(worst, abs(score - best))
        checked += 1
    wall = time.perf_counter() - started
    verdict(7, worst <= 1e-9 and wall < 30,
            f"100 instances, worst score gap {worst:.2e}, every output "
            f"re-verified in the language, {wall:.1f}s")


def test_criterion_8_length_model(mirror_a_runs):
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        model = Model(ModelConfig(
            source_vocab=5, target_vocab=5, embedding_dim=6,
            fertility_hidden=4, reorder_hidden=4, context_hidden=4,
            fertility_mlp=4, span_mlp=4, output_mlp=4,
            max_fertility=d, seed=trial))
        src = rng.integers(0, 5, size=n)
        with ad.no_grad():
            probs = model.prepare(src).length_probs.value
        assert probs.shape == (n * d + 1,)
        worst = max(worst, abs(float(probs.sum()) - 1.0))

    model = mirror_a_runs[0].model
    hits = 0
    pairs = mirror_a_runs[0].test_pairs
    for src, _ in pairs:
        with ad.no_grad():
            probs = model.prepare(src).length_probs.value
        if int(np.argmax(probs)) == 2 * len(src):
            hits += 1
    rate = hits / len(pairs)
    verdict(8, worst <= 1e-9 and rate >= 0.99,
            f"normalization error {worst:.2e} over 20 random models; "
            f"trained model puts the argmax at length 2n on "
            f"{rate:.1%} of test inputs")
