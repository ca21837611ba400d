"""Products from several threads at once share one map store.

Four threads run cold products on fresh orders of six kinds, so that their
builds, nested reads and evictions interleave, with the store's bounds
lowered so that it evicts throughout and a short switch interval.  Every
product keeps its count and value, and the store keeps its accounting and
its bounds.
"""

import sys
import threading

import numpy as np

from bilinear_kernels import CountContext, StructureKind, structured, structured_matvec
from bilinear_kernels import counting
from bilinear_kernels.counting import MapStore, variable_vector
from bilinear_kernels.kernels import formula_count
from bilinear_kernels.structures import dense_parts, param_count

KINDS = ("circulant", "toeplitz", "hankel", "tph", "symmetric", "skew_symmetric")
THREADS = 4
ENTRIES, BYTES = 40, 2 * 2**20


def test_cold_products_from_four_threads_keep_counts_values_and_the_store(monkeypatch):
    store = MapStore()
    monkeypatch.setattr(counting, "MAP_STORE", store)
    monkeypatch.setattr(counting, "MAP_STORE_ENTRIES", ENTRIES)
    monkeypatch.setattr(counting, "MAP_STORE_BYTES", BYTES)
    work = [(kind, n) for n in range(1, 51) for kind in KINDS]
    np.random.default_rng(0).shuffle(work)
    errors, checked = [], []
    start = threading.Barrier(THREADS)

    def run(share):
        start.wait()
        try:
            for kind, n in share:
                rng = np.random.default_rng(n)
                k = StructureKind(kind)
                P = param_count(k, n)
                M = structured(k, n, rng.standard_normal(P) + 1j * rng.standard_normal(P))
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                ctx = CountContext()
                y = structured_matvec(M, variable_vector(x), ctx).values
                want = dense_parts(M)[0] @ x
                close = np.abs(y - want).max(initial=0) <= 1e-9 * np.abs(want).max(initial=1)
                checked.append((ctx.bilinear_mults == formula_count(k, n), close))
        except Exception as exc:        # noqa: BLE001 - every failure is reported below
            errors.append(repr(exc))

    threads = [threading.Thread(target=run, args=(work[i::THREADS],)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(checked) == len(work) == 300 and all(count and value for count, value in checked)
    assert store.nbytes == sum(size for _, size, _ in store.entries.values())
    assert len(store.entries) <= ENTRIES and store.nbytes <= BYTES
    assert store._reads == []
