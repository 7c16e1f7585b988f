"""Every binary format fails closed with its own error on a bad file, and an
index refuses a corpus it was not built from."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fanns import strategy
from fanns.corpus import (
    Corpus,
    CorpusFormatError,
    Metric,
    build_mask,
    generate_synthetic,
    load_corpus,
    save_corpus,
    threshold_for_selectivity,
)
from fanns.hnsw import HnswFormatError, hnsw_build, hnsw_search, load_hnsw, save_hnsw
from fanns.ivfflat import IvfFormatError, IvfIndex, ivf_build, ivf_search, load_ivf, save_ivf
from fanns.strategy import PlanKind, SearchParams, StrategyPlan


FORMATS = {
    "FVC1": (save_corpus, load_corpus, CorpusFormatError),
    "FHN1": (lambda c, p: save_hnsw(hnsw_build(c, 4, 8, seed=1), p), load_hnsw, HnswFormatError),
    "FIV1": (lambda c, p: save_ivf(ivf_build(c, 3, seed=1), p), load_ivf, IvfFormatError),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_truncation_raises_format_error(tmp_path, name):
    save, load, error = FORMATS[name]
    corpus = generate_synthetic(24, 3, seed=5)
    path = tmp_path / "full.bin"
    save(corpus, path)
    data = path.read_bytes()
    load(path)  # the untruncated file loads
    cut = tmp_path / "cut.bin"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(error):
            load(cut)


HNSW_ID_FAULTS = {
    "neighbor": lambda index: index.adjacency[0][0].__setitem__(0, 1_000_000),
    "node": lambda index: index.adjacency[0].__setitem__(index.n, []),
    "entry point": lambda index: setattr(index, "entry_point", index.n),
    "entry point below max level": lambda index: setattr(
        index, "entry_point", int(index.levels.argmin())
    ),
    "negative level": lambda index: index.levels.__setitem__(int(index.levels.argmin()), -5),
    "level without its layer": lambda index: index.levels.__setitem__(
        int(index.levels.argmin()), 1
    ),
    "layer-0 list over 2M": lambda index: index.adjacency[0].__setitem__(
        0, list(range(1, 2 * index.m + 2))
    ),
    "upper list over M": lambda index: index.adjacency[1].__setitem__(
        index.entry_point, [v for v in range(index.m + 2) if v != index.entry_point]
    ),
    "repeated neighbor": lambda index: index.adjacency[0].__setitem__(0, [1, 2, 1]),
    "node lists itself": lambda index: index.adjacency[0].__setitem__(0, [1, 0]),
}


@pytest.mark.parametrize("fault", sorted(HNSW_ID_FAULTS))
def test_hnsw_ids_outside_the_graph_are_refused(tmp_path, fault):
    index = hnsw_build(generate_synthetic(24, 3, seed=5), 4, 8, seed=1)
    HNSW_ID_FAULTS[fault](index)
    path = tmp_path / "bad.idx"
    save_hnsw(index, path)
    with pytest.raises(HnswFormatError):
        load_hnsw(path)


def test_a_layer_1_link_to_a_level_0_node_is_refused(tmp_path):
    # a walk reaching that node on layer 1 would expand a node the layer
    # does not hold
    index = hnsw_build(generate_synthetic(300, 3, seed=5), 4, 8, seed=1)
    upper = next(node for node in index.adjacency[1] if index.adjacency[1][node])
    lower = int(np.flatnonzero(index.levels == 0)[0])
    index.adjacency[1][upper][0] = lower
    path = tmp_path / "bad.idx"
    save_hnsw(index, path)
    with pytest.raises(HnswFormatError, match="neighbor of level below 1"):
        load_hnsw(path)


@pytest.mark.parametrize("m, ef_construction", [(1, 8), (0, 8), (4, 3)])
def test_an_hnsw_header_no_build_accepts_is_refused(tmp_path, m, ef_construction):
    index = hnsw_build(generate_synthetic(24, 3, seed=5), 4, 8, seed=1)
    index.m, index.ef_construction = m, ef_construction
    path = tmp_path / "bad.idx"
    save_hnsw(index, path)
    with pytest.raises(HnswFormatError, match="2 <= m <= ef_construction"):
        load_hnsw(path)


IVF_LIST_FAULTS = {
    "duplicate": lambda lists: lists[0].__setitem__(0, lists[1][0]),
    "out of range": lambda lists: lists[0].__setitem__(0, 1_000_000),
    "missing": lambda lists: lists.__setitem__(0, lists[0][1:]),
}


@pytest.mark.parametrize("fault", sorted(IVF_LIST_FAULTS))
def test_ivf_lists_must_partition_the_rows(tmp_path, fault):
    index = ivf_build(generate_synthetic(24, 3, seed=5), 3, seed=1)
    IVF_LIST_FAULTS[fault](index.lists)
    path = tmp_path / "bad.idx"
    save_ivf(index, path)
    with pytest.raises(IvfFormatError):
        load_ivf(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ivf_centroids_must_be_finite(tmp_path, bad):
    # a NaN centroid would rank its list last for every query
    index = ivf_build(generate_synthetic(300, 3, seed=5), 6, seed=1)
    index.centroids[2, 1] = bad
    path = tmp_path / "bad.idx"
    save_ivf(index, path)
    with pytest.raises(IvfFormatError, match="finite"):
        load_ivf(path)


@pytest.mark.parametrize("n_clusters, d", [(0, 3), (3, 0)])
def test_ivf_dimensions_must_be_positive(tmp_path, n_clusters, d):
    # no lists, or lists over 6 rows whose centroids have no coordinates:
    # no query could rank them
    centroids = np.zeros((n_clusters, d), dtype=np.float32)
    lists = np.array_split(np.arange(6), 3)[:n_clusters]
    path = tmp_path / "bad.idx"
    save_ivf(IvfIndex(n_clusters, 1, Metric.L2, centroids, lists), path)
    with pytest.raises(IvfFormatError, match="implausible dimensions"):
        load_ivf(path)


SEARCHES = {
    "hnsw": (lambda c: hnsw_build(c, 4, 8, seed=1), lambda i, c, q: hnsw_search(i, c, q, 5, 10)),
    "ivfflat": (lambda c: ivf_build(c, 6, seed=1), lambda i, c, q: ivf_search(i, c, q, 5, 6)),
}


@pytest.mark.parametrize("family", sorted(SEARCHES))
def test_search_refuses_a_foreign_corpus(family):
    build, search = SEARCHES[family]
    corpus = generate_synthetic(300, 3, seed=5)
    index = build(corpus)
    bigger = generate_synthetic(600, 3, seed=6)
    as_l2 = Corpus(corpus.vectors, corpus.attribute, Metric.L2)
    query = corpus.vectors[0]
    assert len(search(index, corpus, query)) == 5
    for foreign in (bigger, as_l2):
        with pytest.raises(ValueError):
            search(index, foreign, query)


# bytes before each format's first array: the magic and the fixed-size fields
HEADER_BYTES = {"FVC1": 16, "FHN1": 33, "FIV1": 21}
PLANS = [StrategyPlan(kind) for kind in PlanKind]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Each format's file over one 200-row corpus, with the corpus and a mask."""
    corpus = generate_synthetic(200, 4, seed=7)
    root = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name, (save, _, _) in FORMATS.items():
        save(corpus, root / name)
        files[name] = (root / name).read_bytes()
    mask = build_mask(corpus, threshold_for_selectivity(corpus, 0.3))
    return corpus, mask, files, root / "mutant"


def _mutant(data, name, draw):
    """``data`` after one to three mutations: a flipped byte, four header
    bytes overwritten, or a truncation."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "header", "truncate"]))
        if not data:
            break
        if kind == "flip":
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        elif kind == "header":
            at = draw(st.integers(0, HEADER_BYTES[name] - 4))
            value = draw(st.sampled_from([0, 1, 2, 0x7FFFFFFF, 0xFFFFFFFF])
                         | st.integers(0, 2**32 - 1))
            data[at:at + 4] = struct.pack("<I", value)
        else:
            del data[draw(st.integers(0, len(data) - 1)):]
    return bytes(data)


@pytest.mark.parametrize("name", sorted(FORMATS))
@given(data=st.data())
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_mutated_file_loads_or_raises_its_format_error(fuzz_files, name, data):
    # a loadable index mutant is searched under every plan, and either
    # answers or refuses the corpus with ValueError
    corpus, mask, files, path = fuzz_files
    _, load, error = FORMATS[name]
    path.write_bytes(_mutant(files[name], name, data.draw))
    try:
        loaded = load(path)
    except error:
        return
    if name == "FVC1":
        return
    params = SearchParams(ef_search=10, n_probe=3)
    for plan in PLANS:
        try:
            strategy.execute(loaded, corpus, corpus.vectors[3], 5, mask, plan, params)
        except ValueError:
            pass
