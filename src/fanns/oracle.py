"""Exact (brute-force) k-NN over optionally masked rows.

This is the ground-truth generator and correctness reference for every
approximate search path. Distances reported here are the smaller-is-closer
ordering keys of :mod:`fanns.corpus`, so approximate results can be compared
value-for-value. Ties are broken by ascending row id everywhere.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from fanns.corpus import BinaryReader, Corpus, FilterMask, ordering_keys

_GT_MAGIC = b"FGT1"


class GroundTruthFormatError(ValueError):
    """Raised when a ground-truth file is malformed."""


@dataclass(frozen=True)
class GroundTruthRow:
    """Ranked exact neighbors of one query: ids plus ordering keys."""

    ids: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def top(self, k: int) -> "GroundTruthRow":
        return GroundTruthRow(self.ids[:k], self.distances[:k])


def exact_knn(
    corpus: Corpus,
    query: np.ndarray,
    k: int,
    mask: Optional[FilterMask] = None,
) -> GroundTruthRow:
    """Exhaustive top-k scan over the mask-valid rows.

    Returns fewer than k entries iff fewer than k rows pass the mask; an
    empty mask yields an empty row.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mask is None:
        candidate_ids = np.arange(corpus.n)
        rows = corpus.vectors
    else:
        candidate_ids = mask.valid_ids()
        rows = corpus.vectors[candidate_ids]
    if len(candidate_ids) == 0:
        empty = np.empty(0)
        return GroundTruthRow(empty.astype(np.int64), empty.astype(np.float64))
    keys = ordering_keys(query, rows, corpus.metric)
    m = min(k, len(candidate_ids))
    if m < len(candidate_ids):
        part = np.argpartition(keys, m - 1)[:m]
        order = part[np.lexsort((candidate_ids[part], keys[part]))]
    else:
        order = np.lexsort((candidate_ids, keys))
    return GroundTruthRow(candidate_ids[order].astype(np.int64), keys[order])


def batch_ground_truth(
    corpus: Corpus,
    queries: np.ndarray,
    k: int,
    masks: Sequence[Optional[FilterMask]],
    out_path: str | Path | None = None,
) -> list[GroundTruthRow]:
    """One ground-truth row per (mask, query) pair, optionally persisted.

    Rows are ordered mask-major: all queries under the first mask, then all
    queries under the second, and so on.
    """
    queries = np.atleast_2d(np.asarray(queries))
    if queries.shape[0] == 0:
        raise ValueError("queries must be nonempty")
    rows = [
        exact_knn(corpus, query, k, mask)
        for mask in masks
        for query in queries
    ]
    if out_path is not None:
        save_ground_truth(rows, k, out_path)
    return rows


def save_ground_truth(rows: Sequence[GroundTruthRow], k_max: int, path: str | Path) -> None:
    """Binary GT format: magic FGT1, row count, k_max, then ragged rows."""
    with open(path, "wb") as fh:
        fh.write(_GT_MAGIC + struct.pack("<II", len(rows), k_max))
        for row in rows:
            fh.write(struct.pack("<I", len(row)))
            fh.write(np.ascontiguousarray(row.ids, dtype="<u4").tobytes())
            fh.write(np.ascontiguousarray(row.distances, dtype="<f4").tobytes())


def load_ground_truth(path: str | Path) -> tuple[list[GroundTruthRow], int]:
    reader = BinaryReader(path, _GT_MAGIC, GroundTruthFormatError)
    n_rows, k_max = reader.unpack("<II")
    rows: list[GroundTruthRow] = []
    for _ in range(n_rows):
        (m,) = reader.unpack("<I")
        ids = reader.array("<u4", m).astype(np.int64)
        dists = reader.array("<f4", m).astype(np.float64)
        rows.append(GroundTruthRow(ids, dists))
    reader.end()
    return rows, k_max
