"""The benchmark workloads: data set sizes plus pipeline config overrides.

Why each exists is in BENCHMARK.json and predictions.json. Every other config
key keeps coseg's default; all three use aggressive mining, retrieve.k=10 and
retrieve.search_k=50, so the query budget is max(50, 11 * index.n_trees).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from datagen import DataSpec


@dataclass(frozen=True)
class Workload:
    data: DataSpec
    config: dict[str, str] = field(default_factory=dict)
    # recall_at_k below this fails the run; 1.0 where the budget covers every
    # item, since then retrieval must equal brute-force search
    min_recall: float = 1.0


WORKLOADS = {
    # 432 train items, 96 test items; budget 275 >= 96
    "train-mined": Workload(
        DataSpec(64, 64, classes=6, images_per_class=44, train_per_class=36,
                 train_extra=1, test_distractors=1, object_frac=(0.3, 0.5)),
        {"train.iterations": "100", "index.n_trees": "25"},
    ),
    # 48 train items, 72 test items; budget 3850 >= 72
    "retrieve-exact": Workload(
        DataSpec(64, 64, classes=6, images_per_class=14, train_per_class=8,
                 train_extra=0, test_distractors=1, object_frac=(0.3, 0.5)),
        {"train.iterations": "40"},
    ),
    # 48 train items, 300 test items; budget 220 < 300, so queries stop early
    "desk-vga": Workload(
        DataSpec(640, 480, classes=6, images_per_class=9, train_per_class=4,
                 train_extra=1, test_distractors=9),
        {"train.iterations": "50", "index.n_trees": "20"},
        min_recall=0.9,
    ),
}
