"""Twin-encoder embedding model: forward pass, contrastive loss, analytic
gradients, SGD-with-momentum training, pair sampling, and hard-pair mining.

The encoder is a fully connected network with rectifier hidden layers and an
identity output layer. Both inputs of a pair run through the same weights, so
a batch gradient is a sum over the descriptor rows its pairs touch. In exact
arithmetic a row's activations depend on that row alone, so one forward pass
can serve several consumers: a hard-mining step embeds every training row
once and feeds those activations to both the pair mining and the batch
gradient. Bit for bit they need not: BLAS may block a product differently
for another row count (see forward_batch), so a set of rows is embedded in
one call, never in blocks.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FLAG_RULE, SEED_BITS, DecodeError, TrainingDiverged, check, check_rules, int_rule
from ._binio import open_reader
from ._certify import pool_candidates

MODEL_MAGIC = b"CSGM"
MODEL_VERSION = 1

MINING_MODES = ("random", "aggressive")
LABEL_RULE = ("0 or 1", lambda v: v in (0, 1))  # a pair's label: 1 same class, 0 different


@dataclass(frozen=True)
class EncoderParams:
    """Weights and biases of the encoder, one (out x in) matrix per layer."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.weights) == 0:
            raise ValueError("encoder needs at least one layer")
        if len(self.weights) != len(self.biases):
            raise ValueError(
                f"{len(self.weights)} weight matrices but {len(self.biases)} biases"
            )
        object.__setattr__(self, "weights", tuple(np.asarray(w, dtype=np.float64) for w in self.weights))
        object.__setattr__(self, "biases", tuple(np.asarray(b, dtype=np.float64) for b in self.biases))
        prev_out = None
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or 0 in w.shape:
                raise ValueError(f"layer {i}: weight must be 2-d and non-empty, got shape {w.shape}")
            if b.shape != (w.shape[0],):
                raise ValueError(
                    f"layer {i}: bias shape {b.shape} does not match {w.shape[0]} output rows"
                )
            if prev_out is not None and w.shape[1] != prev_out:
                raise ValueError(
                    f"layer {i}: expects {w.shape[1]} inputs but layer {i - 1} outputs {prev_out}"
                )
            prev_out = w.shape[0]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    def copy(self) -> EncoderParams:
        return EncoderParams(
            weights=tuple(w.copy() for w in self.weights),
            biases=tuple(b.copy() for b in self.biases),
        )


@dataclass(frozen=True)
class PairSample:
    """Two descriptors plus a similarity label (1 = same class, 0 = different)."""

    a: np.ndarray
    b: np.ndarray
    label: int

    def __post_init__(self) -> None:
        check("label", self.label, LABEL_RULE)
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError(
                f"pair descriptors must be equal-length vectors, got {self.a.shape} and {self.b.shape}"
            )


@dataclass(frozen=True)
class LabeledDescriptors:
    """Descriptor matrix with one integer class label per row."""

    vectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-d, got shape {self.vectors.shape}")
        if self.labels.shape != (self.vectors.shape[0],):
            raise ValueError(
                f"{self.vectors.shape[0]} vectors but label shape {self.labels.shape}"
            )

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


_POSITIVE = int_rule(1)
_FINITE_POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)
# TrainConfig's fields with their (words, predicate) rules, which the seed and train.* keys take too.
TRAIN_RULES = {
    "learning_rate": _FINITE_POSITIVE,
    "momentum": ("in [0, 1)", lambda v: 0 <= v < 1),
    "batch_size": _POSITIVE,
    "margin": _FINITE_POSITIVE,
    "iterations": int_rule(0),
    "seed": int_rule(0, SEED_BITS),
    "mining": ("one of " + ", ".join(MINING_MODES), MINING_MODES.__contains__),
    "layer_sizes": ("comma-separated integers >= 1", lambda v: len(v) > 0 and all(map(_POSITIVE[1], v))),
    "pool_factor": _POSITIVE,
    "classical_hinge": FLAG_RULE,
}


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and sampling settings for train(); each field must meet its
    TRAIN_RULES rule, else ConfigError.

    classical_hinge selects the variant whose dissimilar-pair term hinges on
    the distance itself, 0.5 * max(0, m - D)**2, instead of the default
    squared-distance hinge 0.5 * max(0, m - D**2).
    """

    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 128
    margin: float = 1.0
    iterations: int = 1000
    seed: int = 0
    mining: str = "random"
    layer_sizes: tuple[int, ...] = (128, 256)
    pool_factor: int = 10
    classical_hinge: bool = False

    def __post_init__(self) -> None:
        check_rules(self, TRAIN_RULES)
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))


@dataclass(frozen=True)
class TrainResult:
    """Final parameters plus the mean batch loss recorded at every iteration."""

    params: EncoderParams
    loss_trace: tuple[float, ...]


def init_params(input_dim: int, layer_sizes: Sequence[int], seed: int) -> EncoderParams:
    """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)); biases start at zero."""
    check("input_dim", input_dim, _POSITIVE)
    check("layer_sizes", layer_sizes, TRAIN_RULES["layer_sizes"])
    sizes = [input_dim, *layer_sizes]
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights=tuple(weights), biases=tuple(biases))


def forward_batch(
    params: EncoderParams, batch: np.ndarray, *, all_layers: bool = False
) -> np.ndarray | list[np.ndarray]:
    """Embed every row of a (n, input_dim) array; returns (n, last layer's rows).

    The encoder's one forward pass. With all_layers, returns every layer's
    output instead, input first and embedding last, as training's backward
    pass needs them. A row's outputs depend on that row alone in exact
    arithmetic, not always bit for bit: with NumPy 2.4's OpenBLAS on a
    SkylakeX kernel, 300 rows of 1,024 embedded in 64-row blocks differed
    from one call when the first layer had 16 units or fewer (the Haswell
    and Prescott kernels agreed).
    """
    acts = [np.asarray(batch, dtype=np.float64)]  # a converted copy is freed with acts[0]
    if acts[0].ndim != 2 or acts[0].shape[1] != params.input_dim:
        raise ValueError(
            f"batch shape {acts[0].shape} does not match input dimension {params.input_dim}"
        )
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w.T
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        acts = acts + [z] if all_layers else [z]  # keep only the layers returned
    return acts if all_layers else acts[-1]


def forward(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Embed one descriptor vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"descriptor must be 1-d, got shape {x.shape}")
    return forward_batch(params, x[None, :])[0]


def contrastive_loss(
    fa: np.ndarray,
    fb: np.ndarray,
    label: int,
    margin: float,
    classical_hinge: bool = False,
) -> float:
    """0.5 * (Y * D**2 + (1 - Y) * max(0, m - D**2)) with D the Euclidean distance.

    With classical_hinge the dissimilar term becomes 0.5 * max(0, m - D)**2.
    Training's batch loss takes each pair's value from the same formula, so a
    NaN embedding gives a NaN loss here as it does there.
    """
    fa = np.asarray(fa, dtype=np.float64)
    fb = np.asarray(fb, dtype=np.float64)
    if fa.shape != fb.shape:
        raise ValueError(f"embedding shapes differ: {fa.shape} vs {fb.shape}")
    check("label", label, LABEL_RULE)
    check("margin", margin, TRAIN_RULES["margin"])
    diff = fa - fb
    return float(_pair_losses(np.sum(diff * diff), label == 1, margin, classical_hinge))


def _pair_losses(d2, pos, margin: float, classical_hinge: bool) -> np.ndarray:
    """Each pair's contrastive loss from its squared distance d2 and whether it
    is a similar pair (pos). A NaN distance gives a NaN loss on either label."""
    if classical_hinge:
        dissimilar = 0.5 * np.maximum(0.0, margin - np.sqrt(d2)) ** 2
    else:
        dissimilar = 0.5 * np.maximum(0.0, margin - d2)
    return np.where(pos, 0.5 * d2, dissimilar)


def _gradient_arrays(params: EncoderParams) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Uninitialised (weights, biases) arrays shaped like params."""
    return [np.empty_like(w) for w in params.weights], [np.empty_like(b) for b in params.biases]


def _batch_gradient(
    params: EncoderParams,
    acts: list[np.ndarray],
    rows: np.ndarray | slice,
    ia: np.ndarray,
    ib: np.ndarray,
    labels: np.ndarray,
    margin: float,
    classical_hinge: bool,
    out: tuple[list[np.ndarray], list[np.ndarray]],
) -> float:
    """Mean loss over the pairs (rows ia, rows ib); the mean-loss gradients go
    into out's (weights, biases) arrays.

    acts holds every layer's output, input first; rows picks from it exactly
    the rows the pairs touch, each once (slice(None) when acts holds just
    those), and ia and ib index the picked rows. No forward pass runs here.
    acts is consumed from the top and is empty on return, so the caller
    passes a list it owns: each layer leaves the list when the backward pass
    reaches it, is gathered at rows then, and is freed at its last read. The
    embedding goes once the pair differences are taken, each hidden layer
    once its gradient and its rectifier gate are computed, so no layer's
    gather is alive beside the summing arrays or the next layer's. The input
    layer is freed only if the caller holds no other reference to it.
    Each pair's gradient is c * (fa - fb) with respect to fa and the negation
    with respect to fb. The hinge kink and the zero-distance
    point of the classical variant use subgradient 0. Both branches share the
    weights and a row's rectifier gates depend on that row alone, so each
    row sums its pair gradients and runs backward once. One bincount over
    flat (row, column) indices does the summing: each entry starts at +0.0
    and adds the a-side gradients in pair order, then the negated b-side ones.
    Both sides are written once, into the two halves of one signed array; the
    pair differences, the flat indices and that array are each dropped as
    soon as they are used, and the rectifier gates apply in place.
    """
    n = len(ia)
    top = acts.pop()[rows]
    diff = top[ia] - top[ib]
    m = len(top)
    del top
    d2 = np.sum(diff * diff, axis=1)
    pos = np.asarray(labels) == 1
    loss = float(np.mean(_pair_losses(d2, pos, margin, classical_hinge)))
    if classical_hinge:
        d = np.sqrt(d2)
        active = (~pos) & (d < margin) & (d > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            neg_coeff = np.where(active, -(margin - d) / np.where(d > 0, d, 1.0), 0.0)
    else:
        neg_coeff = np.where((~pos) & (d2 < margin), -1.0, 0.0)

    coeff = (np.where(pos, 1.0, 0.0) + neg_coeff) / n
    # d(loss)/d(fb) = -d(loss)/d(fa); a row in several pairs sums them all
    dim = diff.shape[1]
    signed = np.empty((2 * n, dim))
    np.multiply(coeff[:, None], diff, out=signed[:n])
    np.negative(signed[:n], out=signed[n:])
    del diff
    flat = (np.concatenate([ia, ib])[:, None] * dim + np.arange(dim)).ravel()
    delta = np.bincount(flat, signed.ravel(), minlength=m * dim).reshape(m, dim)
    del flat, signed
    grad_w, grad_b = out
    for layer in range(len(params.weights) - 1, -1, -1):
        act = acts.pop()[rows]
        np.matmul(delta.T, act, out=grad_w[layer])
        np.sum(delta, axis=0, out=grad_b[layer])
        if layer > 0:
            gate = act > 0
            del act
            delta = delta @ params.weights[layer]
            delta *= gate
    return loss


def loss_gradient(
    params: EncoderParams,
    pair: PairSample,
    margin: float,
    classical_hinge: bool = False,
) -> EncoderParams:
    """Analytic gradient of contrastive_loss(forward(a), forward(b)) wrt params."""
    check("margin", margin, TRAIN_RULES["margin"])
    grad_w, grad_b = _gradient_arrays(params)
    _batch_gradient(
        params,
        forward_batch(params, np.stack([pair.a, pair.b]), all_layers=True),
        slice(None),
        np.array([0]),
        np.array([1]),
        np.array([pair.label]),
        margin,
        classical_hinge,
        (grad_w, grad_b),
    )
    return EncoderParams(weights=tuple(grad_w), biases=tuple(grad_b))


def _class_members(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dataset indices grouped by class as (order, starts, counts).

    order lists the indices stably sorted by class (classes in sorted label
    order), so rank r of class c is order[starts[c] + r] for r < counts[c].
    Raises ValueError unless there are at least 2 classes and one of them
    has 2 or more items, the least that pair sampling needs.
    """
    _, inverse = np.unique(labels, return_inverse=True)
    counts = np.bincount(inverse)
    if len(counts) < 2:
        raise ValueError(f"pair sampling needs at least 2 classes, got {len(counts)}")
    if counts.max() < 2:
        raise ValueError("pair sampling needs at least one class with 2 or more items")
    starts = np.cumsum(counts) - counts
    return np.argsort(inverse, kind="stable"), starts, counts


def _sample_pair_indices(
    members: tuple[np.ndarray, np.ndarray, np.ndarray], count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Balanced random pair indices, ceil(count/2) positives then the negatives."""
    order, starts, counts = members
    eligible = np.flatnonzero(counts >= 2)
    n_pos = (count + 1) // 2
    n_neg = count // 2

    pc = eligible[rng.integers(0, len(eligible), size=n_pos)]
    pn = counts[pc]
    i = (rng.random(n_pos) * pn).astype(np.int64)
    j = (rng.random(n_pos) * (pn - 1)).astype(np.int64)
    j += j >= i
    pos_a = order[starts[pc] + i]
    pos_b = order[starts[pc] + j]

    ca = rng.integers(0, len(counts), size=n_neg)
    cb = rng.integers(0, len(counts) - 1, size=n_neg)
    cb += cb >= ca
    neg_a = order[starts[ca] + (rng.random(n_neg) * counts[ca]).astype(np.int64)]
    neg_b = order[starts[cb] + (rng.random(n_neg) * counts[cb]).astype(np.int64)]

    ia = np.concatenate([pos_a, neg_a])
    ib = np.concatenate([pos_b, neg_b])
    y = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
    return ia, ib, y


def _mine_hard_indices(
    emb: np.ndarray,
    members: tuple[np.ndarray, np.ndarray, np.ndarray],
    count: int,
    rng: np.random.Generator,
    pool_factor: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick the hardest pairs out of a random pool of pool_factor*count.

    emb holds the embedding of every row that members indexes; no forward
    pass runs here. The pool is bounded first: where one Gram product over
    the rows costs less than scoring the pool, only the pairs that
    _certify.pool_candidates certifies can make the batch are scored
    exactly; else, or where a bound is not finite, the whole pool is. Either
    set is scored one batch (count pairs) at a time, in pool order, each
    difference squared where it lies, so the temporaries stay batch-sized;
    each distance is still one row's own sum. Positives are ranked by
    descending and negatives by ascending distance, ties in pool order, so
    the picks are those of the whole pool, bit for bit.
    """
    ia, ib, y = _sample_pair_indices(members, pool_factor * count, rng)
    keep, n_pos = pool_candidates(emb, ia, ib, count)
    ka, kb = ia[keep], ib[keep]
    d2 = np.empty(len(keep))
    for s in range(0, len(keep), count):
        diff = emb[ka[s : s + count]]
        diff -= emb[kb[s : s + count]]
        diff *= diff
        d2[s : s + count] = np.sum(diff, axis=1)

    # hardest positives have the largest distance; ties keep pool order
    pos_pick = np.argsort(-d2[:n_pos], kind="stable")[: (count + 1) // 2]
    neg_pick = n_pos + np.argsort(d2[n_pos:], kind="stable")[: count // 2]
    sel = keep[np.concatenate([pos_pick, neg_pick])]
    return ia[sel], ib[sel], y[sel]


def train(dataset: LabeledDescriptors, cfg: TrainConfig) -> TrainResult:
    """Run cfg.iterations mini-batch updates and return params plus loss trace.

    Batch gradients average the per-pair losses. Each step finds the rows its
    pairs touch once, and runs forward_batch once: an aggressive step over
    every training row, whose embeddings feed the mining and whose layers
    feed the gradient, each gathered at the touched rows when the backward
    pass reaches it; a random step over the touched rows alone. Every
    touched row then runs backward once. The mining bounds its pool first
    and scores exactly only the pairs that can make the batch, or the whole
    pool where the bounding costs more (a training set above about
    5 * sqrt(pool) rows) or a bound is not finite; either way it picks what
    scoring the whole pool picks. The pair stream draws from a generator
    seeded with cfg.seed + 1 so it is independent of the cfg.seed weight
    init.
    Aborts with TrainingDiverged if a batch loss goes non-finite.

    Each step is one momentum update, applied in place to the initial params:
    v <- momentum*v - lr*g; params <- params + v. The gradients are scaled by
    lr where they lie, since the next backward pass overwrites them, so the
    update allocates no parameter-sized array.

    One step's arrays are alive at a time. Every step writes its gradients
    into one set of arrays. _batch_gradient empties the step's layer list,
    freeing each layer at its last read, so no layer of one step is alive
    when the next step's forward pass runs; the step's pair indices are
    replaced as their successors are drawn. Freeing the gradients before
    each backward pass, or all of a step's arrays together at its end, lets
    glibc trim the heap on some runs, and the next step faults its pages in
    again.
    """
    members = _class_members(dataset.labels)  # checks there are enough classes and items
    params = init_params(dataset.dim, cfg.layer_sizes, cfg.seed)
    arrays = (*params.weights, *params.biases)
    velocity = [np.zeros_like(a) for a in arrays]
    rng = np.random.default_rng(cfg.seed + 1)
    trace: list[float] = []
    grad_w, grad_b = _gradient_arrays(params)
    for it in range(cfg.iterations):
        if cfg.mining == "aggressive":
            acts = forward_batch(params, dataset.vectors, all_layers=True)
            ia, ib, y = _mine_hard_indices(acts[-1], members, cfg.batch_size, rng, cfg.pool_factor)
        else:
            ia, ib, y = _sample_pair_indices(members, cfg.batch_size, rng)
        rows, inv = np.unique(np.concatenate([ia, ib]), return_inverse=True)
        if cfg.mining == "aggressive":
            picked = rows
        else:
            acts, picked = forward_batch(params, dataset.vectors[rows], all_layers=True), slice(None)
        loss = _batch_gradient(
            params, acts, picked, inv[: len(ia)], inv[len(ia) :], y, cfg.margin, cfg.classical_hinge,
            (grad_w, grad_b),
        )
        if not math.isfinite(loss):
            raise TrainingDiverged(iteration=it, value=loss)
        for p, v, g in zip(arrays, velocity, (*grad_w, *grad_b)):
            v *= cfg.momentum
            g *= cfg.learning_rate
            v -= g
            p += v
        trace.append(loss)
    return TrainResult(params=params, loss_trace=tuple(trace))


def save_model_file(params: EncoderParams, path) -> None:
    """Write params as a `.csgm` file: magic, version, layer count `<I`, then per
    layer its row/col sizes `<II`, row-major weights and bias, little-endian
    float64. The layers are written one at a time, each straight from its arrays."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(params.weights)))
        for w, b in zip(params.weights, params.biases):
            fh.write(struct.pack("<II", *w.shape))
            fh.write(np.ascontiguousarray(w, dtype="<f8"))
            fh.write(np.ascontiguousarray(b, dtype="<f8"))


def load_model_file(path) -> EncoderParams:
    with open_reader(path, MODEL_MAGIC, MODEL_VERSION) as r:
        (n_layers,) = r.unpack("<I")
        weights = []
        biases = []
        for _ in range(n_layers):
            rows, cols = r.unpack("<II")
            weights.append(r.array("<f8", rows * cols).reshape(rows, cols))
            biases.append(r.array("<f8", rows))
        r.expect_eof()
        try:
            return EncoderParams(weights=tuple(weights), biases=tuple(biases))
        except ValueError as e:
            raise DecodeError(f"model file: {e}") from e
