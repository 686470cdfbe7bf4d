"""Similarity retrieval: embed descriptors, query the index for each item's
nearest neighbors, and filter candidate groups by per-member verdicts, which
metrics.iou_verdicts gives from evaluate's Jaccard. Groups serialize to JSON
Lines for downstream stages. An anchor that given class hints lack raises.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._binio import read_lines
from .annindex import K_RULE, AnnIndex, RetrievalResult, query
from .embedder import EncoderParams, forward_batch
from .errors import check


@dataclass(frozen=True)
class SimilarityGroup:
    """One anchor item and its nearest neighbors with exact distances, which
    must be finite, >= 0 and non-decreasing."""

    anchor: str
    members: RetrievalResult
    class_hint: str | None = None

    def __post_init__(self) -> None:
        ids = [m[0] for m in self.members.neighbors]
        if self.anchor in ids:
            raise ValueError(f"anchor {self.anchor!r} listed among its own members")
        dists = [m[1] for m in self.members.neighbors]
        if not all(math.isfinite(d) and d >= 0.0 for d in dists):
            raise ValueError(f"member distances must be finite and >= 0, got {dists}")
        if any(b < a for a, b in zip(dists, dists[1:])):
            raise ValueError("member distances must be non-decreasing")


def embed_all(params: EncoderParams, descriptors: np.ndarray) -> np.ndarray:
    """Embed descriptor rows in order; (n, d_in) -> (n, d_out)."""
    return forward_batch(params, np.atleast_2d(descriptors))


def retrieve_similar(
    index: AnnIndex,
    embeddings: np.ndarray,
    k: int,
    search_k: int | None = None,
    ids: list[str] | None = None,
    class_hints: dict[str, str | None] | None = None,
) -> list[SimilarityGroup]:
    """One SimilarityGroup per indexed item, the item itself excluded.

    The queries must be the indexed embeddings in index order; ids gives the
    item name for each index position (defaults to the position as a string).
    class_hints, when given, must hold every anchor; without it every hint is
    None. Each query asks for k+1 neighbors so that dropping the anchor's own
    entry still leaves k, which must meet K_RULE; search_k goes to query, which
    checks it against SEARCH_K_RULE when given.
    """
    check("k", k, K_RULE)
    n_items = index.items.shape[0]
    if embeddings.shape[0] != n_items:
        raise ValueError(
            f"{embeddings.shape[0]} queries but index holds {n_items} items; "
            "queries must be the indexed items in order"
        )
    if ids is None:
        ids = [str(i) for i in range(n_items)]
    elif len(ids) != n_items:
        raise ValueError(f"{len(ids)} ids for {n_items} indexed items")

    groups: list[SimilarityGroup] = []
    for pos, vec in enumerate(embeddings):
        res = query(index, vec, k=k + 1, search_k=search_k)
        kept = [(ids[i], d) for i, d in res.neighbors if i != pos][:k]
        anchor = ids[pos]
        hint = None if class_hints is None else class_hints[anchor]
        groups.append(
            SimilarityGroup(anchor=anchor, members=RetrievalResult(neighbors=tuple(kept)), class_hint=hint)
        )
    return groups


def filter_candidates(group: SimilarityGroup, verdicts: dict[str, bool]) -> SimilarityGroup:
    """Keep the members whose verdict (metrics.iou_verdicts) holds, in order,
    with their distances and the group's class hint."""
    for member_id, _ in group.members.neighbors:
        if member_id not in verdicts:
            raise ValueError(f"member {member_id!r} has no proposal record")
    kept = tuple(m for m in group.members.neighbors if verdicts[m[0]])
    return SimilarityGroup(
        anchor=group.anchor,
        members=RetrievalResult(neighbors=kept),
        class_hint=group.class_hint,
    )


def save_groups(groups: list[SimilarityGroup], path) -> None:
    """One JSON object per line: {anchor, members: [{id, distance}], class_hint}."""
    with open(path, "w", encoding="utf-8") as fh:
        for g in groups:
            fh.write(
                json.dumps(
                    {
                        "anchor": g.anchor,
                        "members": [
                            {"id": i, "distance": d} for i, d in g.members.neighbors
                        ],
                        "class_hint": g.class_hint,
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")


def _member(record) -> tuple[str, float]:
    """One {id, distance} record as (id, distance), with no type coercion."""
    ident, dist = record["id"], record["distance"]
    if not isinstance(ident, str):
        raise TypeError(f"member id must be a string, got {ident!r}")
    # bool is an int subclass; a JSON true is not a distance
    if isinstance(dist, bool) or not isinstance(dist, (int, float)):
        raise TypeError(f"distance must be a number, got {dist!r}")
    return ident, float(dist)


def load_groups(path) -> list[SimilarityGroup]:
    """Read save_groups' format back from read_lines' lines; blank lines are
    skipped. A line that is not JSON, lacks a key, holds a value of the wrong
    JSON type (a non-string anchor or member id, a distance that is not a
    number, a class_hint neither string nor null) or breaks a SimilarityGroup
    rule raises ValueError naming path:line."""
    groups: list[SimilarityGroup] = []
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            anchor, hint = obj["anchor"], obj.get("class_hint")
            if not isinstance(anchor, str):
                raise TypeError(f"anchor must be a string, got {anchor!r}")
            if hint is not None and not isinstance(hint, str):
                raise TypeError(f"class_hint must be a string or null, got {hint!r}")
            members = tuple(_member(m) for m in obj["members"])
            groups.append(
                SimilarityGroup(
                    anchor=anchor,
                    members=RetrievalResult(neighbors=members),
                    class_hint=hint,
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"{path}:{line_no}: malformed group record ({exc})") from exc
    return groups
