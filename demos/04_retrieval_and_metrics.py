"""
From embeddings to groups to a quality report
=============================================

Retrieval turns an index over item embeddings into one similarity group per
item; the metrics stage scores each item's proposal box against its
ground truth, a mask or a box, and averages per class. The retrieve stage's
IoU filter keeps members by that same score. This walk runs all three on
small synthetic data.
"""

import numpy as np

from coseg.annindex import IndexConfig, build
from coseg.embedder import LabeledDescriptors, TrainConfig, train
from coseg.geometry import BoundingBox
from coseg.metrics import BoxTruth, evaluate, iou_verdicts, jaccard, precision
from coseg.retrieval import embed_all, retrieve_similar

# 1. Three descriptor classes, a quick encoder, and embeddings for all items.
rng = np.random.default_rng(3)
dim = 48
means = rng.normal(size=(3, dim)) * (20.0 / np.sqrt(dim))
vectors = np.concatenate([m + rng.normal(size=(12, dim)) for m in means])
labels = np.repeat(np.arange(3), 12)
result = train(
    LabeledDescriptors(vectors=vectors, labels=labels),
    TrainConfig(iterations=600, batch_size=48, layer_sizes=(24, 12), seed=2),
)
embeddings = embed_all(result.params, vectors)

# 2. Index the embeddings and pull one group per item. Ids mark the class so
#    the group printout is readable; the anchor itself is never a member.
ids = [f"c{label}_{i}" for i, label in enumerate(labels)]
index = build(embeddings, IndexConfig(n_trees=8, search_k=200, leaf_capacity=8, seed=0))
groups = retrieve_similar(index, embeddings, k=5, search_k=200, ids=ids)
for g in groups[::12]:
    members = ", ".join(f"{m}@{d:.3f}" for m, d in g.members.neighbors)
    print(f"anchor {g.anchor}: {members}")

# 3. Mask scoring. precision counts predicted foreground that is right;
#    jaccard is intersection over union. A prediction shifted by two columns
#    against a 10x10 ground-truth square:
gt = np.zeros((32, 32), dtype=bool)
gt[4:14, 4:14] = True
pred = np.zeros_like(gt)
pred[4:14, 6:16] = True
print(f"\nshifted square: precision {precision(pred, gt):.2f}, jaccard {jaccard(pred, gt):.2f}")

# 4. The report machinery scores every item a group references, averages per
#    class, then averages the classes with equal weight. It takes one table,
#    item id -> (box, ground truth, class), that must hold every such item:
#    an id it lacks raises. An item's segmentation is its proposal box: the
#    shifted square above as a box scores exactly as the drawn mask does,
#    without drawing it. An item whose ground truth is None, an image with
#    none, is skipped and listed, not silently dropped. The report is the
#    plain dict that the evaluate stage writes as report.json.
box = BoundingBox(x=6, y=4, w=10, h=10)
classes = {i: f"class{label}" for i, label in zip(ids, labels)}
items = {i: (box, gt, classes[i]) for i in ids}
items[ids[0]] = (box, None, classes[ids[0]])  # provoke one skip
report = evaluate(groups, items)
per_class = ", ".join(f"{c}: {m['jaccard']:.2f}" for c, m in report["per_class"].items())
print(f"per-class jaccard: {{ {per_class} }}")
print(f"averages: precision {report['avg_precision']:.2f}, jaccard {report['avg_jaccard']:.2f}")
print(f"skipped: {report['skipped']}")

# 5. Ground truth given as a box needs no mask: a BoxTruth, the box and its
#    frame size, is scored by clipped-box areas, the counts the drawn mask
#    gives, so the report is the same, score for score.
truth = BoxTruth(BoundingBox(x=4, y=4, w=10, h=10), width=32, height=32)
box_truth = {i: (b, None if g is None else truth, c) for i, (b, g, c) in items.items()}
same = evaluate(groups, box_truth) == report
print(f"the square as a ground-truth box gives the same report: {same}")

# 6. The retrieve stage's IoU filter reads the same table: a member is kept
#    when its Jaccard, as evaluate scores it, reaches the threshold, and an
#    item with no ground truth passes. At 0.7 the shifted square (0.67) is
#    dropped, so only the skipped item is kept; mask and box agree.
by_mask, by_box = iou_verdicts(items, 0.7), iou_verdicts(box_truth, 0.7)
print(f"verdicts at IoU 0.7 agree for the mask and the box: {by_mask == by_box} "
      f"(kept: {[i for i, keep in by_mask.items() if keep]})")
