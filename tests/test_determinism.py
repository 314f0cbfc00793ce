"""Indexes, retrieval scores and experiment rows do not depend on the BLAS.

Each test does the same work in two fresh interpreters, one under
``OPENBLAS_NUM_THREADS=1`` and one under ``=2``, or one under each of two
OpenBLAS kernels (``OPENBLAS_CORETYPE``; OpenBLAS reads both when numpy
loads), and compares what they print byte for byte.  No digest is pinned
here: the bits of numpy's own float64 loop may differ between numpy builds.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from coracmg.diffs import write_jsonl
from coracmg.providers import HashingEmbedder
from coracmg.retriever import RetrievalIndex
from helpers import DenseEmbedder, synthetic_corpus

TESTS = Path(__file__).resolve().parent


def _under_each(name: str, values: tuple[str, ...], code: str, *args) -> list[bytes]:
    """What ``code`` prints in a fresh interpreter under each value of ``name``."""
    paths = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    path = os.pathsep.join(paths)
    outputs = []
    for value in values:
        env = {**os.environ, "PYTHONPATH": path, name: value}
        done = subprocess.run(
            [sys.executable, "-c", code, *map(str, args)], capture_output=True, env=env
        )
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    return outputs


def _under_each_thread_count(code: str, *args) -> list[bytes]:
    return _under_each("OPENBLAS_NUM_THREADS", ("1", "2"), code, *args)


_RETRIEVE = """
import sys
from coracmg.retriever import RetrievalIndex
from helpers import DenseEmbedder, synthetic_corpus

index = RetrievalIndex.load(sys.argv[1])
embedder = DenseEmbedder(256)
records = synthetic_corpus(1, 2500, seed=5)
for q in records[1234:1266] + records[-16:]:
    for p in index.retrieve(q.diff, 5, q.repo_full_name, embedder=embedder):
        print(p.handle.sha, p.hybrid_score.hex())
"""


def test_dense_scores_are_the_same_under_one_and_two_blas_threads(tmp_path):
    # Dense rows: every dot product sums 256 nonzero terms.  A threaded BLAS
    # product gives each thread one run of rows, and its kernel sums the few
    # rows left at the end of a run in another order; the queries are the
    # diffs of the rows around 1,250 and 2,500, where one- and two-thread runs
    # end.  A query's own row stays a candidate (the leakage guard only keeps
    # it out of the answer) and sets the top of the min-max range, so a
    # changed last bit there changes every hybrid_score.
    RetrievalIndex.build(synthetic_corpus(1, 2500, seed=5), DenseEmbedder(256)).save(
        tmp_path / "idx"
    )
    one, two = _under_each_thread_count(_RETRIEVE, tmp_path / "idx")
    assert len(one.splitlines()) == 48 * 5
    assert one == two


_EXPERIMENT = """
import hashlib, os, sys
from pathlib import Path
from coracmg.harness import ExperimentConfig, run_experiment

corpus, index, runs = sys.argv[1:]
out = Path(runs) / os.environ["OPENBLAS_NUM_THREADS"]
config = ExperimentConfig(
    corpus=corpus, out_dir=str(out), method="rag", k=3, seed=42, generator="echo-mock", index=index
)
run_experiment(config)
print(hashlib.sha256((out / "results.jsonl").read_bytes()).hexdigest())
"""


def test_rag_results_are_the_same_under_one_and_two_blas_threads(tmp_path):
    records = synthetic_corpus(4, 200, seed=1)
    write_jsonl(tmp_path / "corpus.jsonl", records)
    RetrievalIndex.build(records, HashingEmbedder(256)).save(tmp_path / "idx")
    one, two = _under_each_thread_count(
        _EXPERIMENT, tmp_path / "corpus.jsonl", tmp_path / "idx", tmp_path / "runs"
    )
    assert one == two


_BUILD_AND_RUN = """
import hashlib, os, sys
from pathlib import Path
from coracmg.diffs import read_corpus
from coracmg.harness import ExperimentConfig, run_experiment
from coracmg.providers import HashingEmbedder
from coracmg.retriever import RetrievalIndex

corpus, out = sys.argv[1], Path(sys.argv[2]) / os.environ["OPENBLAS_CORETYPE"]
RetrievalIndex.build(read_corpus(corpus), HashingEmbedder(256)).save(out / "idx")
config = ExperimentConfig(
    corpus=corpus, out_dir=str(out / "run"), method="rag", k=3, seed=42,
    generator="echo-mock", index=str(out / "idx"),
)
run_experiment(config)
names = ("manifest.json", "docs.txt", "postings.bin", "vectors.bin")
for name in [f"idx/{name}" for name in names] + ["run/results.jsonl"]:
    print(name, hashlib.sha256((out / name).read_bytes()).hexdigest())
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86 kernels"
)
def test_index_and_rag_results_are_the_same_under_two_openblas_kernels(tmp_path):
    # The kernels sum a float32 dot product in different orders, so a norm
    # computed through BLAS would change the last bit of some vector rows.
    write_jsonl(tmp_path / "corpus.jsonl", synthetic_corpus(4, 200, seed=1))
    kernels = ("Prescott", "Haswell")
    prescott, haswell = _under_each(
        "OPENBLAS_CORETYPE", kernels, _BUILD_AND_RUN, tmp_path / "corpus.jsonl", tmp_path
    )
    assert len(prescott.splitlines()) == 5
    assert prescott == haswell
