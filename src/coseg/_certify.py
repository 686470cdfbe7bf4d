"""Certified filters: the float64 rounding bound that lets coseg score exactly
only the pairs that can make a ranking, and the filter for hard-pair mining.

Two filters use it: the index's re-rank shortlist (annindex.query) and the
mining's pool (pool_candidates, for embedder._mine_hard_indices). Each ranks
pairs by an exact squared distance, bounds every pair's first from one cheap
product, and scores exactly only the pairs the bound cannot rule out.

For float64 vectors x and y of dimension d, with u = 2**-53, a filter computes
a = |x|^2 + |y|^2 - 2 x.y from three sums (row norms and one matrix product),
and ranks by E, the float64 sum of the squared differences (x - y)**2. Let s
be the true squared distance. In any summation order a sum's rounding error is
at most gamma_m * sum|terms|, gamma_m = m u / (1 - m u), and the absolute terms
of both a and E add up to at most (|x| + |y|)^2. So |a - s| and |E - s| are
each about (d + 3) u (|x| + |y|)^2, and eps = c (|x| + |y|)^2 with
c = slack(d) = 4 (d + 4) u exceeds |a - E| + 4 u E with room for the rounding
of a and eps themselves. Since (|x| + |y|)^2 <= 2 (|x|^2 + |y|^2),
2 c (|x|^2 + |y|^2) bounds it too, with no square root.

The bound is relative. A product below LEAST_NORMAL (2**-1022) may also round
by up to 2**-1075 absolutely; sums of such values are exact. A pair of nonzero
rows has at most 4 d such products in a, counting the doubled x.y twice, and
d in E, so adding c * 2 * LEAST_NORMAL = 4 (d + 4) 2**-1074 covers them. A
zero row adds none: against it a and E sum the same rounded squares, and two
zero rows give a = E = 0.

Certifying the k smallest E of a set of pairs: T is the k-th smallest a + eps,
and the pairs with a - eps <= T are kept. T is at least D, the k-th smallest
E, since k pairs have E <= a + eps <= T. Every pair a full ranking puts in
its first k, ties at D included, has a - eps <= E <= D <= T and is kept; every
dropped pair has E >= a - eps > T >= D and lies strictly beyond the k-th. So
ranking the kept pairs in their original order by a stable sort gives the
full ranking's first k, bit for bit. The k largest mirror it: T is the k-th
largest a - eps, and the pairs with a + eps >= T are kept. Ranking by sqrt(E)
works alike, since two squares round to the same sqrt only when they differ
by at most about 4 u E, which eps also covers. Where an a or an eps is not
finite, the bound says nothing and every pair is kept.
"""

import math

import numpy as np

UNIT_ROUNDOFF = 2.0**-53
LEAST_NORMAL = 2.0**-1022


def slack(dim: int) -> float:
    """c = 4 (d + 4) u, so eps = c (|x| + |y|)^2 bounds a squared distance's
    two float64 computations apart."""
    return 4 * (dim + 4) * UNIT_ROUNDOFF


def _gram_pays(rows: int, pool: int) -> bool:
    """Whether bounding the pool first costs less than scoring it whole. The
    Gram product costs about rows**2 multiply-adds per dimension and exact
    scoring a few passes per pool pair. With 256 dimensions, a 1,280-pair
    pool and a batch of 128, on a 2-core x86 host with one BLAS thread, a
    mining call took (median of 400 alternating calls, bounded against
    whole pool):

        rows   rows**2 / pool   bounded    whole
         144        16.2        0.55 ms   0.71 ms
         160        20.0        0.60 ms   0.69 ms
         176        24.2        0.65 ms   0.69 ms
         192        28.8        0.74 ms   0.71 ms
         240        45.0        1.06 ms   0.79 ms

    so the two break even between 24 and 29 times the pool, and the rule
    switches at 25."""
    return rows * rows <= 25 * pool


def pool_candidates(emb: np.ndarray, ia: np.ndarray, ib: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """The positions, ascending, of the mining pool's pairs (rows ia, rows ib
    of emb) that can make a batch of count, and how many of them are
    positives: the pool's first (len(ia) + 1) // 2 pairs are, and a batch
    takes the (count + 1) // 2 farthest positives and the count // 2 nearest
    negatives.

    One Gram product bounds every pair: eps = c (2 |x|^2 + 2 |y|^2 + t_x + t_y)
    with t = LEAST_NORMAL for a nonzero row and 0 for a zero row. Positives
    are kept whose a + eps reaches the (count + 1) // 2-th largest a - eps,
    and negatives whose a - eps is at most the count // 2-th smallest a + eps,
    so every pair the whole pool's picks take is kept, ties included. The
    whole pool is returned when an a or an eps is not finite, and when
    _gram_pays says the Gram costs more than the scoring it saves.
    """
    pool, half = len(ia), (len(ia) + 1) // 2
    n, dim = emb.shape
    if not _gram_pays(n, pool):
        return np.arange(pool), half
    with np.errstate(over="ignore", invalid="ignore"):
        # emb @ emb.T would run BLAS syrk, whose first call in a process faults
        # in code pages inside the train stage; against a copy it runs the
        # forward pass's GEMM
        gram = emb @ emb.copy().T
        sq = np.sum(emb * emb, axis=1)
        scale = 2.0 * sq + emb.any(axis=1) * LEAST_NORMAL
        approx = sq[ia] + sq[ib] - 2.0 * gram.ravel().take(ia * n + ib)
        eps = slack(dim) * (scale[ia] + scale[ib])
        upper = approx + eps
        lower = approx - eps
        if not math.isfinite(upper.sum()):
            return np.arange(pool), half
    n_pos, n_neg = (count + 1) // 2, count // 2
    pos_cut = lower[np.argsort(lower[:half], kind="stable")[half - n_pos]]
    neg_cut = upper[half + np.argsort(upper[half:], kind="stable")[n_neg - 1]] if n_neg else -math.inf
    keep_pos = np.flatnonzero(upper[:half] >= pos_cut)
    return np.concatenate([keep_pos, half + np.flatnonzero(lower[half:] <= neg_cut)]), len(keep_pos)
