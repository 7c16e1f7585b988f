"""The three seeded workloads: inputs, set-up, one op, and its correctness check.

Every workload drives the library's public API from one closed-loop client.
Inputs depend only on the seed; the library receives only generated inputs.

* ``hnsw-filtered`` -- interpreter-bound HNSW graph path (ef=100, k=10) over a
  cosine corpus with cluster-correlated attributes, so the strategy plans,
  dual-pool traversal and the AdaptiveAuto safety net all fire.
* ``ivf-l2``        -- numpy-kernel-bound IVFFlat path (k=100) over an L2
  Gaussian-mixture corpus; HNSW is never touched.
* ``gls-rho``       -- the selectivity-correlation analysis on the
  ``hnsw-filtered`` corpus and index: exact and approximate rho plus the
  distance baseline, with a 2048-wide HNSW beam.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from fanns import corpus as corpus_mod
from fanns import gls, hnsw, ivfflat, oracle, strategy
from fanns.corpus import Corpus, FilterMask, Metric
from fanns.strategy import PlanKind, SearchParams, StrategyPlan

UNFILTERED = "all"

PLANS = {kind.value: StrategyPlan(kind) for kind in PlanKind}


@dataclass
class Inputs:
    corpus: Corpus
    query_ids: np.ndarray
    masks: dict  # label -> FilterMask, or None for UNFILTERED
    ops: list  # the seeded op stream; the loop cycles through it


@dataclass
class State:
    """Everything one set-up produces: inputs, the loaded index, ground truth."""

    inputs: Inputs
    index: object
    built_index: object
    ground_truth: dict
    index_digest: str
    phases: dict = field(default_factory=dict)


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def input_digests(inputs: Inputs, ground_truth: dict) -> dict:
    c = inputs.corpus
    return {
        "corpus": sha256(c.vectors.astype("<f4"), c.attribute.astype("<f8")),
        "query_ids": sha256(inputs.query_ids.astype("<i8")),
        "masks": sha256(*(np.packbits(m.bits) for m in inputs.masks.values() if m is not None)),
        "ground_truth": sha256(*(ground_truth[key].ids.astype("<i8") for key in sorted(ground_truth))),
    }


def own_keys(c: Corpus, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Smaller-is-closer keys computed independently of the library."""
    rows = c.vectors[ids].astype(np.float64)
    q = np.asarray(query, dtype=np.float64)
    if c.metric is Metric.L2:
        return np.sqrt(((rows - q) ** 2).sum(axis=1))
    sims = rows @ q
    if c.metric is Metric.COSINE:
        sims = sims / (np.linalg.norm(rows, axis=1) * np.linalg.norm(q))
    return -sims


def recall(ids, distances, gt: oracle.GroundTruthRow, k: int) -> float:
    """Tie-aware recall@k: denominator min(k, |GT|), distance ties accepted."""
    gt = gt.top(k)
    if len(gt) == 0:
        return 1.0 if len(ids) == 0 else 0.0
    truth = set(gt.ids.tolist())
    kth = float(gt.distances[-1])
    hits = sum(1 for i, d in zip(ids[:k].tolist(), distances[:k].tolist()) if i in truth or d <= kth + 1e-12)
    return hits / min(k, len(gt))


def exact_rho(mask: FilterMask, neighborhood: np.ndarray) -> float:
    sigma_l = float(np.count_nonzero(mask.bits[neighborhood])) / len(neighborhood)
    ratio = sigma_l / mask.global_selectivity
    return (ratio - 1.0) / (ratio + 1.0)


def _masks(c: Corpus, sigmas) -> dict:
    return {
        f"{s:g}": corpus_mod.build_mask(c, corpus_mod.threshold_for_selectivity(c, s)) for s in sigmas
    }


class Workload:
    """A workload supplies make_corpus, make_masks, cells, build, save, load,
    ground_truth, run_op, answer, check and quality."""

    name = ""
    n_queries = 100
    tail_percentile = 99  # of latency_tail_ms: at least ten samples lie beyond it in a run
    check_ops = 0  # stream prefix re-run by the determinism check
    index_kind = ""  # "hnsw" or "ivfflat": the index layer on the critical path

    def make_inputs(self, seed: int) -> Inputs:
        c = self.make_corpus(seed)
        rng = np.random.default_rng([seed, 1])
        query_ids = np.sort(rng.choice(c.n, size=self.n_queries, replace=False))
        masks = self.make_masks(c)
        cells = self.cells(masks)
        ops = [(qi, *cell) for qi in range(self.n_queries) for cell in cells]
        order = rng.permutation(len(ops))
        return Inputs(c, query_ids, masks, [ops[i] for i in order])


class HnswCorpus(Workload):
    """The cosine corpus with cluster-correlated attributes and its HNSW index."""

    index_kind = "hnsw"
    n = 3000
    dim = 16
    m = 10
    ef_construction = 50

    def make_corpus(self, seed):
        return corpus_mod.generate_synthetic(
            self.n, self.dim, seed, attr_mode="cluster_correlated", strength=1.0
        )

    def build(self, c, seed):
        return hnsw.hnsw_build(c, self.m, self.ef_construction, seed)

    def save(self, index, path):
        hnsw.save_hnsw(index, path)

    def load(self, path):
        return hnsw.load_hnsw(path)


class StrategyWorkload(Workload):
    """Ops are (query, plan, filter) cells executed through strategy.execute."""

    k = 0
    plans: tuple = ()
    sigmas: tuple = ()
    params: SearchParams

    def make_masks(self, c):
        masks = _masks(c, self.sigmas)
        masks[UNFILTERED] = None
        return masks

    def cells(self, masks):
        # Runtime needs a predicate, so it has no unfiltered cell.
        return [
            (plan, label)
            for plan in self.plans
            for label, mask in masks.items()
            if not (plan == "Runtime" and mask is None)
        ]

    def ground_truth(self, inputs):
        c = inputs.corpus
        return {
            (qi, label): oracle.exact_knn(c, c.vectors[qid], self.k, mask)
            for qi, qid in enumerate(inputs.query_ids.tolist())
            for label, mask in inputs.masks.items()
        }

    def run_op(self, state: State, op):
        qi, plan, label = op
        inputs = state.inputs
        c = inputs.corpus
        return strategy.execute(
            state.index, c, c.vectors[inputs.query_ids[qi]], self.k, inputs.masks[label],
            PLANS[plan], self.params,
        )

    @staticmethod
    def answer(out) -> np.ndarray:
        """What the determinism check and the result digest compare."""
        return out.results.ids

    def check(self, state: State, op, out) -> tuple[list[str], dict]:
        """Problems found in one answer, and its quality figures."""
        qi, plan, label = op
        inputs = state.inputs
        c, mask = inputs.corpus, inputs.masks[label]
        ids, dist = out.results.ids, out.results.distances
        gt = state.ground_truth[(qi, label)]
        valid = c.n if mask is None else mask.valid_count
        problems = []
        if len(ids) > self.k or len(np.unique(ids)) != len(ids):
            problems.append("result has more than k ids or repeats an id")
        elif len(ids) and (ids.min() < 0 or ids.max() >= c.n):
            problems.append("result id out of range")
        elif mask is not None and not mask.bits[ids].all():
            problems.append("result holds an id the filter rejects")
        elif np.any(np.diff(dist) < 0):
            problems.append("result distances are not sorted")
        elif len(ids) and not np.allclose(
            own_keys(c, c.vectors[inputs.query_ids[qi]], ids), dist, rtol=0, atol=1e-9
        ):
            problems.append("result distances disagree with recomputed keys")
        exact = plan == "PreExact" or out.telemetry.fallback_used
        if exact and not np.array_equal(ids, gt.ids):
            problems.append("exact answer differs from oracle.exact_knn")
        if (exact or plan == "AdaptiveAuto") and len(ids) != min(self.k, valid):
            problems.append("exact or safety-netted answer has the wrong length")
        return problems, {"recall": recall(ids, dist, gt, self.k)}

    def quality(self, state: State, records) -> dict:
        return {"recall_mean": float(np.mean([r["recall"] for r in records]))}


class HnswFiltered(HnswCorpus, StrategyWorkload):
    name = "hnsw-filtered"
    k = 10
    params = SearchParams(ef_search=100)
    plans = ("PreAnns", "Post", "Runtime", "AdaptiveAuto")
    sigmas = (0.01, 0.1, 0.5)
    check_ops = 60


class IvfL2(StrategyWorkload):
    name = "ivf-l2"
    index_kind = "ivfflat"
    n = 20000
    dim = 32
    centers = 64
    n_clusters = 141  # about sqrt(n)
    k = 100
    params = SearchParams(n_probe=10)
    plans = ("PreAnns", "Post", "Runtime", "PreExact", "AdaptiveAuto")
    sigmas = (0.01, 0.1, 0.5)
    check_ops = 100

    def make_corpus(self, seed):
        # generate_synthetic is cosine-only, so the L2 corpus is made here:
        # a Gaussian mixture with an attribute independent of the vectors.
        rng = np.random.default_rng([seed, 2])
        centers = rng.standard_normal((self.centers, self.dim)) * 4.0
        assign = rng.integers(0, self.centers, size=self.n)
        vectors = centers[assign] + rng.standard_normal((self.n, self.dim))
        return Corpus(vectors.astype(np.float32), rng.uniform(0.0, 1.0, size=self.n), Metric.L2)

    def build(self, c, seed):
        return ivfflat.ivf_build(c, self.n_clusters, seed)

    def save(self, index, path):
        ivfflat.save_ivf(index, path)

    def load(self, path):
        return ivfflat.load_ivf(path)


class GlsRho(HnswCorpus):
    """One op is one (query, sigma) analysis: exact rho, approximate rho, baseline."""

    name = "gls-rho"
    tail_percentile = 90  # a run holds about 250 ops
    sigmas = (0.05, 0.2, 0.5)
    k_neighborhood = gls.DEFAULT_K_NEIGHBORHOOD  # 2048, as the CLI
    sample_size = 1000  # the CLI default
    trials = 10
    recall_queries = 16  # queries whose approximate neighborhood is scored
    check_ops = 6

    def make_masks(self, c):
        return _masks(c, self.sigmas)

    def cells(self, masks):
        return [(label,) for label in masks]

    def ground_truth(self, inputs):
        c = inputs.corpus
        return {
            qi: oracle.exact_knn(c, c.vectors[qid], self.k_neighborhood)
            for qi, qid in enumerate(inputs.query_ids.tolist())
        }

    def run_op(self, state, op):
        qi, label = op
        inputs = state.inputs
        c = inputs.corpus
        query, mask = c.vectors[inputs.query_ids[qi]], inputs.masks[label]
        seed = qi * len(inputs.masks) + list(inputs.masks).index(label)
        exact = gls.gls_exact(c, query, mask, self.k_neighborhood, query_id=qi)
        approx = gls.gls_approx(
            c, state.index, query, mask, self.k_neighborhood, self.sample_size, seed=seed, query_id=qi
        )
        baseline, _ = gls.distance_correlation(c, [(query, mask)], self.trials, seed=seed)
        return exact, approx, baseline

    @staticmethod
    def answer(out) -> np.ndarray:
        exact, approx, baseline = out
        return np.array([exact.rho, approx.rho, baseline])

    def check(self, state, op, out):
        qi, label = op
        exact, approx, baseline = out
        mask = state.inputs.masks[label]
        problems = []
        if abs(exact.rho - exact_rho(mask, state.ground_truth[qi].ids)) > 1e-12:
            problems.append("gls_exact rho differs from the oracle neighborhood")
        if not (-1.0 <= approx.rho < 1.0) or not math.isfinite(baseline):
            problems.append("approximate rho or distance baseline out of range")
        return problems, {"rho_error": abs(approx.rho - exact.rho)}

    def quality(self, state, records):
        """Recall of gls_approx's neighborhood (searched again the way gls_approx
        searches) and the mean |rho_approx - rho_exact| of the analysed pairs."""
        inputs = state.inputs
        c = inputs.corpus
        seen = list(dict.fromkeys(op[0] for op in inputs.ops))[: self.recall_queries]
        recalls = []
        for qi in seen:
            pool = hnsw.hnsw_search(
                state.index, c, c.vectors[inputs.query_ids[qi]], self.k_neighborhood,
                self.k_neighborhood, mode="raw", pool_size=self.k_neighborhood,
            )
            recalls.append(recall(pool.ids, pool.distances, state.ground_truth[qi], self.k_neighborhood))
        return {
            "recall_mean": float(np.mean(recalls)),
            "rho_mae": float(np.mean([r["rho_error"] for r in records])),
        }


WORKLOADS = {w.name: w for w in (HnswFiltered(), IvfL2(), GlsRho())}
