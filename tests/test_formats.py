"""Every binary format fails closed with its own error on a truncated file."""

import pytest

from fanns.corpus import CorpusFormatError, generate_synthetic, load_corpus, save_corpus
from fanns.hnsw import HnswFormatError, hnsw_build, load_hnsw, save_hnsw
from fanns.ivfflat import IvfFormatError, ivf_build, load_ivf, save_ivf
from fanns.oracle import GroundTruthFormatError, batch_ground_truth, load_ground_truth


def _save_gt(corpus, path):
    batch_ground_truth(corpus, corpus.vectors[:3], 4, [None], out_path=path)


FORMATS = {
    "FVC1": (save_corpus, load_corpus, CorpusFormatError),
    "FGT1": (_save_gt, load_ground_truth, GroundTruthFormatError),
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
