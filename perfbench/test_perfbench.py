"""Quick self-tests of the benchmark's own parts.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpusgen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import self_times  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "pan_dataset"
TINY = replace(run.WORKLOADS["pan_medium"].corpus, train_docs=6, validation_docs=3, lexicon_size=500)


class GeneratorTest(unittest.TestCase):
    def _digest(self, seed: int) -> str:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            corpusgen.generate(Path(tmp), TINY, seed)
            return corpusgen.tree_sha256(Path(tmp))

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        self.assertEqual(self._digest(3), self._digest(3))
        self.assertNotEqual(self._digest(3), self._digest(4))

    def test_layout_and_truth_agree(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            truth = corpusgen.generate(Path(tmp), TINY, 5)
            split = Path(tmp) / TINY.difficulty / "train"
            self.assertEqual(sorted(truth), ["train", "validation"])
            self.assertEqual(checks.read_truth(split), truth["train"])
            for doc_id, changes in truth["train"].items():
                paragraphs = (split / f"problem-{doc_id}.txt").read_text(encoding="utf-8").splitlines()
                self.assertEqual(len(changes), len(paragraphs) - 1)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # main [0, 10] -> a [1, 4] -> c [2, 3]; main -> b [5, 9]; a second root d [11, 12]
        spans = [
            (3, 2, "c", 2.0, 3.0),
            (2, 1, "a", 1.0, 4.0),
            (4, 1, "b", 5.0, 9.0),
            (1, 0, "main", 0.0, 10.0),
            (5, 0, "d", 11.0, 12.0),
            (6, 0, "c", 13.0, 13.5),
        ]
        self.assertEqual(
            self_times(spans), {"main": 3.0, "a": 2.0, "b": 4.0, "c": 1.5, "d": 1.0}
        )


class ReferenceCheckTest(unittest.TestCase):
    """The benchmark's own references agree with the program on the bundled fixture."""

    def test_pooled_f1_matches_program(self):
        from styleseam import corpus, evaluation, model

        for difficulty in ("easy", "medium", "hard"):
            directory = FIXTURE / difficulty / "validation"
            gold = checks.read_truth(directory)
            program_gold = {t.doc_id: list(t.changes) for t in corpus.load_truth(directory)}
            docs = corpus.load_documents(directory, corpus.Difficulty(difficulty))
            for seed in range(5):
                records = model.random_baseline(corpus.build_pairs(docs), seed)
                with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                    evaluation.write_solutions(records, tmp)
                    predicted = checks.read_solutions(Path(tmp))
                expected = evaluation.macro_f1(program_gold, predicted).macro_f1
                self.assertAlmostEqual(checks.pooled_macro_f1(gold, predicted), expected, delta=checks.TOLERANCE)

    def test_vote_and_mean_match_program(self):
        from styleseam import corpus, model

        directory = FIXTURE / "medium" / "train"
        pairs = corpus.build_pairs(corpus.load_documents(directory, corpus.Difficulty.MEDIUM))
        rng = random.Random(11)
        members = [
            [
                model.PredictionRecord(p.doc_id, p.pair_index, s, int(s >= 0.5), f"m{m}")
                for p in pairs
                for s in [rng.random()]
            ]
            for m in range(3)
        ]
        scores = [{(r.doc_id, r.pair_index): r.score for r in records} for records in members]
        for mode, reference in (
            (model.EnsembleMode.MAJORITY, checks.majority_vote),
            (model.EnsembleMode.SOFTMAX_MEAN, checks.score_mean),
        ):
            combined = {(r.doc_id, r.pair_index): r.score for r in model.ensemble(members, mode)}
            self.assertTrue(checks.same_scores(reference(scores), combined), mode)

    def test_a_wrong_label_is_caught(self):
        gold = {1: [0, 1, 1], 2: [1]}
        self.assertEqual(checks.pooled_macro_f1(gold, gold), 1.0)
        self.assertLess(checks.pooled_macro_f1(gold, {1: [0, 1, 0], 2: [1]}), 1.0)
        self.assertFalse(checks.same_scores({(1, 0): 0.6}, {(1, 0): 0.4}))


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(sorted(w["name"] for w in manifest["workloads"]), sorted(run.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]},
            {name: layers.METRICS[name] for name in layers.REPORTED},
        )


if __name__ == "__main__":
    unittest.main()
