"""Release acceptance suite.

One test per criterion; each prints a single ``[acceptance] ... PASS/FAIL``
verdict line (run with ``pytest -s`` to see them live). Criteria that depend
on the official shared-task corpus use it when the STYLE_SEAM_DATASET
environment variable points at it, and otherwise fall back to the bundled
20-document fixture or the generated two-style corpus, as specified.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from styleseam import cli
from styleseam.corpus import ParagraphPair
from styleseam.errors import UsageError
from styleseam.evaluation import macro_f1, read_solutions, write_solutions
from styleseam.model import EnsembleMode, PredictionRecord, ensemble, load_external_predictions, random_baseline
from styleseam.tokenization import (
    TruncationConfig,
    TruncationStrategy,
    truncate_longest_first,
    truncate_transition,
)

OFFICIAL_ROOT = os.environ.get(cli.DATASET_ENV_VAR)

# (documents, zeros, ones) per difficulty/split of the official corpus
OFFICIAL_EXPECTED = {
    "easy": {"train": (4200, 1557, 11347), "validation": (900, 377, 2451)},
    "medium": {"train": (4200, 15001, 13215), "validation": (900, 4013, 3029)},
    "hard": {"train": (4200, 10092, 9021), "validation": (900, 2159, 1953)},
}

# hand-counted from the bundled fixture files
FIXTURE_EXPECTED = {
    "easy": {"train": (4, 3, 4), "validation": (3, 2, 3)},
    "medium": {"train": (4, 3, 6), "validation": (3, 4, 2)},
    "hard": {"train": (3, 3, 4), "validation": (3, 3, 3)},
}


def _official_root() -> Path | None:
    if OFFICIAL_ROOT and Path(OFFICIAL_ROOT).is_dir():
        return Path(OFFICIAL_ROOT)
    return None


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def _stats_via_cli(capsys, root: Path, split: str) -> dict:
    code = cli.main(["stats", "--dataset-root", str(root), "--difficulty", "all", "--split", split])
    out = capsys.readouterr().out
    assert code == 0, f"stats exited {code}"
    return json.loads(out)


def test_criterion_1_dataset_stats(capsys, pan_fixture):
    root = _official_root()
    expected = OFFICIAL_EXPECTED if root is not None else FIXTURE_EXPECTED
    source = "official corpus" if root is not None else "bundled fixture"
    if root is None:
        root = pan_fixture

    mismatches = []
    for split in ("train", "validation"):
        payload = _stats_via_cli(capsys, root, split)
        for difficulty, by_split in expected.items():
            documents, zeros, ones = by_split[split]
            got = payload[difficulty][split]
            want = {"documents": documents, "pairs": zeros + ones, "zeros": zeros, "ones": ones}
            if got != want:
                mismatches.append(f"{difficulty}/{split}: got {got}, want {want}")

    ok = not mismatches
    _verdict("criterion 1: dataset stats reproduction", ok, source)
    assert ok, "; ".join(mismatches)


def _oracle_f1(gold, pred, positive):
    tp = fp = fn = 0
    for i in range(len(gold)):
        if pred[i] == positive and gold[i] == positive:
            tp += 1
        elif pred[i] == positive:
            fp += 1
        elif gold[i] == positive:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _mc_mean_macro(documents: int, n0: int, n1: int, n_seeds: int) -> float:
    """Mean pooled macro-F1 of the random baseline over seeds 0..n_seeds-1.

    The gold labels are dealt round-robin into the split's documents, so a
    scorer that averaged per document instead of pooling would score lower.
    """
    gold = [0] * n0 + [1] * n1
    gold_by_doc = {d: gold[d::documents] for d in range(documents)}
    pairs = [
        ParagraphPair(doc_id=i % documents, pair_index=i // documents, left="a", right="b")
        for i in range(n0 + n1)
    ]
    total = 0.0
    for seed in range(n_seeds):
        labels = [r.label for r in random_baseline(pairs, seed)]
        pred_by_doc = {d: labels[d::documents] for d in gold_by_doc}
        total += macro_f1(gold_by_doc, pred_by_doc).macro_f1
    return total / n_seeds


def _binomial_half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and pmf of Binomial(n, 1/2), truncated to +-12 sd around n/2.

    The mass left out is below 1e-30, so the medium split needs no 4014 x 3030
    grid. The pmf is renormalised to absorb rounding in the log factorials.
    """
    half_width = 12.0 * math.sqrt(n) / 2.0
    k = np.arange(max(0, math.floor(n / 2 - half_width)), min(n, math.ceil(n / 2 + half_width)) + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    pmf = np.exp(log_fact[n] - log_fact[k] - log_fact[n - k] - n * math.log(2.0))
    return k, pmf / pmf.sum()


def _exact_random_macro_moments(n0: int, n1: int) -> tuple[float, float]:
    """Mean and sd of pooled macro-F1 for a fair coin per pair, by enumeration.

    With k0 of the n0 gold-0 pairs predicted 0 and k1 of the n1 gold-1 pairs
    predicted 1 (independent Binomial(n, 1/2) counts), F1 = 2 tp / (2 tp + fp
    + fn) gives 2 k0 / (n0 + k0 + n1 - k1) for class 0 and the mirror image
    for class 1. A zero denominator forces a zero numerator, where F1 is 0,
    so dividing by max(denominator, 1) is exact.
    """
    k0, p0 = _binomial_half(n0)
    k1, p1 = _binomial_half(n1)
    k0, k1 = k0[:, None], k1[None, :]
    f0 = 2 * k0 / np.maximum(n0 + k0 + n1 - k1, 1)
    f1 = 2 * k1 / np.maximum(n1 + k1 + n0 - k0, 1)
    macro = (f0 + f1) / 2.0
    weight = p0[:, None] * p1[None, :]
    mean = float((weight * macro).sum())
    return mean, math.sqrt(float((weight * (macro - mean) ** 2).sum()))


def _brute_force_random_macro_moments(n0: int, n1: int) -> tuple[float, float]:
    """Mean and sd of pooled macro-F1 over all 2^(n0+n1) equally likely labelings."""
    gold = [0] * n0 + [1] * n1
    scores = [
        (_oracle_f1(gold, pred, 0) + _oracle_f1(gold, pred, 1)) / 2.0
        for pred in itertools.product((0, 1), repeat=n0 + n1)
    ]
    mean = sum(scores) / len(scores)
    return mean, math.sqrt(sum((x - mean) ** 2 for x in scores) / len(scores))


def test_criterion_2_random_baseline_reproduction():
    # The uniform random baseline under the pooled protocol, at each official
    # validation label distribution. An external reference quotes 0.401 for
    # the easy split, but its setting (split, label counts, protocol) is not
    # recorded, and a fair coin scored pooled at 377/2451 has expectation
    # 0.4223. So each 120-seed mean is held to its split's exact expectation,
    # within 4 standard errors, and the enumeration is itself checked against
    # brute force over every labeling at small counts.
    brute_gap = 0.0
    for n0, n1 in ((2, 3), (1, 6), (0, 4), (5, 5)):
        exact = _exact_random_macro_moments(n0, n1)
        brute = _brute_force_random_macro_moments(n0, n1)
        brute_gap = max(brute_gap, abs(exact[0] - brute[0]), abs(exact[1] - brute[1]))

    n_seeds = 120
    splits = {difficulty: by_split["validation"] for difficulty, by_split in OFFICIAL_EXPECTED.items()}
    started = time.process_time()
    means = {difficulty: _mc_mean_macro(*counts, n_seeds) for difficulty, counts in splits.items()}
    elapsed = time.process_time() - started

    ok = brute_gap <= 1e-12 and elapsed < 10.0
    parts = []
    for difficulty, (_, n0, n1) in splits.items():
        expected, sd = _exact_random_macro_moments(n0, n1)
        tolerance = 4.0 * sd / math.sqrt(n_seeds)
        ok = ok and abs(means[difficulty] - expected) <= tolerance
        parts.append(f"{difficulty} mean {means[difficulty]:.4f} vs exact {expected:.4f}±{tolerance:.4f}")
    detail = ", ".join(parts) + f", exact vs brute force {brute_gap:.1e}, {elapsed:.1f}s CPU < 10s"
    _verdict("criterion 2: random-baseline score reproduction", ok, detail)
    assert ok, detail


def _pipeline(root: Path, out_root: Path, difficulty: str, train_args: list[str]) -> dict:
    model_dir = out_root / "model"
    pred_dir = out_root / "pred"
    assert (
        cli.main(
            [
                "train",
                "--dataset-root", str(root),
                "--difficulty", difficulty,
                "--split", "train",
                "--out", str(model_dir),
                *train_args,
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "predict",
                "--dataset-root", str(root),
                "--difficulty", difficulty,
                "--split", "validation",
                "--model", str(model_dir / cli.MODEL_FILENAME),
                "--out", str(pred_dir),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "evaluate",
                str(pred_dir),
                str(root / difficulty / "validation"),
                "--difficulty", difficulty,
                "--out", str(pred_dir),
            ]
        )
        == 0
    )
    return json.loads((pred_dir / cli.REPORT_FILENAME).read_text())


def test_criterion_3_tfidf_svc_baseline(capsys, synth_corpus, tmp_path):
    root = _official_root()
    if root is not None:
        started = time.monotonic()
        table3 = {"easy": 0.551, "medium": 0.615, "hard": 0.531}
        deltas = []
        for difficulty, target in table3.items():
            report = _pipeline(root, tmp_path / difficulty, difficulty, [])
            capsys.readouterr()
            deltas.append((difficulty, report[difficulty]["macro_f1"], target))
        elapsed = time.monotonic() - started
        ok = all(abs(macro - target) <= 0.05 for _, macro, target in deltas) and elapsed < 1800
        detail = ", ".join(f"{d} {m:.3f} vs {t}±0.05" for d, m, t in deltas) + f", {elapsed:.0f}s"
        _verdict("criterion 3: tfidf+svc baseline", ok, detail)
        assert ok, detail
        return

    report = _pipeline(synth_corpus, tmp_path, "easy", ["--epochs", "30"])
    capsys.readouterr()
    macro = report["easy"]["macro_f1"]
    ok = macro >= 0.90
    _verdict("criterion 3: tfidf+svc baseline", ok, f"synthetic two-style corpus, macro {macro:.3f} >= 0.90")
    assert ok, f"macro {macro}"


def test_criterion_4_truncation_property_suite():
    pool_left = tuple(f"L{i}" for i in range(320))
    pool_right = tuple(f"R{i}" for i in range(320))

    def one_token_at_a_time(left, right, budget):
        l, r = list(left), list(right)
        while len(l) + len(r) > budget:
            if len(l) > len(r):
                l.pop()
            else:
                r.pop()
        return tuple(l), tuple(r)

    rng = random.Random(5000)
    started = time.monotonic()
    for _ in range(10_000):
        n_left, n_right = rng.randint(0, 300), rng.randint(0, 300)
        budget = rng.randint(2, 200)
        left, right = pool_left[:n_left], pool_right[:n_right]
        transition_cfg = TruncationConfig(budget=budget, strategy=TruncationStrategy.TRANSITION)
        longest_cfg = TruncationConfig(budget=budget, strategy=TruncationStrategy.LONGEST_FIRST)

        t_left, t_right = truncate_transition(left, right, transition_cfg)
        # budget compliance and suffix/prefix preservation
        assert len(t_left) + len(t_right) <= budget
        assert t_left == left[len(left) - len(t_left):]
        assert t_right == right[: len(t_right)]
        # idempotence
        assert truncate_transition(t_left, t_right, transition_cfg) == (t_left, t_right)

        l_left, l_right = truncate_longest_first(left, right, longest_cfg)
        # exact agreement with the removal oracle
        assert (l_left, l_right) == one_token_at_a_time(left, right, budget)
        # prefix/prefix preservation and budget compliance
        assert l_left == left[: len(l_left)]
        assert l_right == right[: len(l_right)]
        if n_left + n_right > budget:
            assert len(l_left) + len(l_right) == budget
        else:
            assert (l_left, l_right) == (left, right)
        # the shorter side is never cut while the longer one exceeds it
        if len(l_left) < n_left:
            assert len(l_left) >= len(l_right)
        if len(l_right) < n_right:
            assert len(l_right) >= len(l_left) - 1
        # idempotence
        assert truncate_longest_first(l_left, l_right, longest_cfg) == (l_left, l_right)
    elapsed = time.monotonic() - started

    ok = elapsed < 5.0
    _verdict("criterion 4: truncation property suite", ok, f"10000 cases in {elapsed:.2f}s")
    assert ok, f"elapsed {elapsed:.2f}s"


def test_criterion_5_evaluator_oracle_equivalence():
    rng = random.Random(2023)
    exact = True
    for _ in range(1000):
        n_docs = rng.randint(1, 5)
        gold = {d: [rng.randint(0, 1) for _ in range(rng.randint(1, 10))] for d in range(n_docs)}
        pred = {d: [rng.randint(0, 1) for _ in range(len(v))] for d, v in gold.items()}
        entry = macro_f1(gold, pred)

        gold_flat = [x for d in sorted(gold) for x in gold[d]]
        pred_flat = [x for d in sorted(pred) for x in pred[d]]
        f0 = _oracle_f1(gold_flat, pred_flat, 0)
        f1 = _oracle_f1(gold_flat, pred_flat, 1)
        n1 = sum(gold_flat)
        n0 = len(gold_flat) - n1
        exact = exact and entry.f1_class0 == f0 and entry.f1_class1 == f1
        exact = exact and entry.macro_f1 == (f0 + f1) / 2.0
        exact = exact and entry.weighted_f1 == (n0 * f0 + n1 * f1) / (n0 + n1)

    worked = macro_f1({1: [1, 1, 0, 0]}, {1: [1, 0, 0, 0]}).macro_f1
    worked_ok = abs(worked - 11.0 / 15.0) < 1e-12

    ok = exact and worked_ok
    _verdict(
        "criterion 5: evaluator oracle equivalence",
        ok,
        f"1000 instances exact, worked example macro {worked:.7f}",
    )
    assert ok


def test_criterion_6_pipeline_determinism(synth_corpus, tmp_path):
    digests = []
    for run in ("run1", "run2"):
        out_root = tmp_path / run
        report = _pipeline(synth_corpus, out_root, "easy", ["--seed", "5000"])
        assert report["easy"]["pairs"] > 0
        files = {}
        for name in (
            out_root / "model" / cli.MODEL_FILENAME,
            out_root / "pred" / cli.PREDICTIONS_FILENAME,
            out_root / "pred" / cli.REPORT_FILENAME,
        ):
            files[name.name] = name.read_bytes()
        for solution in sorted((out_root / "pred").glob("solution-problem-*.json")):
            files[solution.name] = solution.read_bytes()
        digests.append(files)

    same_names = set(digests[0]) == set(digests[1])
    differing = [name for name in digests[0] if same_names and digests[0][name] != digests[1][name]]
    ok = same_names and not differing
    _verdict(
        "criterion 6: pipeline determinism",
        ok,
        f"{len(digests[0])} files byte-compared across two seeded runs",
    )
    assert ok, f"differing files: {differing}"


def test_criterion_7_ensemble_adapter_and_roundtrip(tmp_path):
    # three synthetic prediction files over pairs (1,0), (1,1), (2,0)
    members = {
        "model-a": [0.2, 1.0, 0.5],
        "model-b": [0.3, 0.75, 0.5],
        "model-c": [0.9, 0.25, 0.5],
    }
    keys = [(1, 0), (1, 1), (2, 0)]
    files = []
    for source, scores in members.items():
        path = tmp_path / f"{source}.ndjson"
        lines = [
            json.dumps({"doc_id": d, "pair_index": p, "score": s, "source": source})
            for (d, p), s in zip(keys, scores)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files.append(path)

    loaded = [load_external_predictions(path) for path in files]
    soft = ensemble(loaded, EnsembleMode.SOFTMAX_MEAN)
    majority = ensemble(loaded, EnsembleMode.MAJORITY)

    # hand-computed combinations
    expected_soft_scores = [(0.2 + 0.3 + 0.9) / 3, (1.0 + 0.75 + 0.25) / 3, (0.5 + 0.5 + 0.5) / 3]
    expected_soft_labels = [0, 1, 1]  # 0.4667 < 0.5 <= 0.6667, 0.5 ties to 1
    expected_majority_labels = [0, 1, 1]  # votes 1/3, 2/3, 3/3
    expected_majority_scores = [1 / 3, 2 / 3, 3 / 3]

    soft_ok = [r.score for r in soft] == expected_soft_scores and [
        r.label for r in soft
    ] == expected_soft_labels
    majority_ok = [r.score for r in majority] == expected_majority_scores and [
        r.label for r in majority
    ] == expected_majority_labels

    # solutions round-trip: write then re-read as label vectors
    out_dir = tmp_path / "solutions"
    write_solutions(majority, out_dir)
    round_trip = read_solutions(out_dir)
    round_trip_ok = round_trip == {1: [0, 1], 2: [1]}

    ok = soft_ok and majority_ok and round_trip_ok
    _verdict(
        "criterion 7: ensemble adapter and solutions round-trip",
        ok,
        "hand-computed combinations and identity round-trip",
    )
    assert soft_ok, f"softmax-mean mismatch: {[(r.score, r.label) for r in soft]}"
    assert majority_ok, f"majority mismatch: {[(r.score, r.label) for r in majority]}"
    assert round_trip_ok, f"round trip: {round_trip}"
