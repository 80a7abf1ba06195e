"""Float-state combiners agree bit for bit across execution backends.

k-means and PCA combine float vectors, so their answers depend on the
order partial sums are added in.  Every backend folds per map task and
merges in task order, so serial, thread and process must return the
exact same floats — and the process backend must not refuse to merge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.kmeans import run_kmeans
from repro.apps.matrix_multiply import write_matrix_rows
from repro.apps.pca import run_pca
from repro.core.options import RuntimeOptions
from repro.parallel.backends import fork_available

BACKENDS = [
    "serial",
    "thread",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(not fork_available(), reason="needs os.fork"),
    ),
]


def _options(backend: str) -> RuntimeOptions:
    return RuntimeOptions.baseline(num_mappers=4, num_reducers=2).with_(
        executor_backend=backend
    )


@pytest.fixture(scope="module")
def points(tmp_path_factory: pytest.TempPathFactory):
    rng = np.random.default_rng(11)
    pts = np.concatenate([
        rng.normal(center, 0.7, size=(300, 3))
        for center in ((0, 0, 0), (5, 5, 1), (-4, 6, 2))
    ])
    rng.shuffle(pts)
    path = tmp_path_factory.mktemp("kmeans") / "points.txt"
    path.write_bytes(b"".join(b"%.17g %.17g %.17g\n" % tuple(p) for p in pts))
    return path


@pytest.fixture(scope="module")
def rows(tmp_path_factory: pytest.TempPathFactory):
    rng = np.random.default_rng(12)
    path = tmp_path_factory.mktemp("pca") / "rows.txt"
    write_matrix_rows(path, rng.normal(size=(600, 4)) @ rng.normal(size=(4, 4)))
    return path


@pytest.mark.parametrize("backend", BACKENDS)
def test_kmeans_identical_across_backends(points, backend):
    def run(name: str):
        return run_kmeans(
            [points], [(1, 1, 1), (4, 4, 0), (-3, 5, 1)],
            max_iters=4, tol=0.0, options=_options(name),
        )

    reference, got = run("serial"), run(backend)
    assert got.centroids == reference.centroids
    assert got.iterations == reference.iterations


@pytest.mark.parametrize("backend", BACKENDS)
def test_pca_identical_across_backends(rows, backend):
    reference, got = run_pca([rows], _options("serial")), run_pca(
        [rows], _options(backend)
    )
    for field in ("means", "covariance", "eigenvalues", "components"):
        assert np.array_equal(getattr(got, field), getattr(reference, field)), field
