"""Per-block co-occurrence kernels and the ``auto`` dispatch cost model.

The blocked scan (:func:`repro.core.grouping.cooccurrence.blocked_scan`)
reduces each row block of ``C = M @ Mᵀ`` to matched / subset pairs.  How
the block's co-occurrence counts are *produced* is a per-block choice
between two kernels with opposite sweet spots:

``sparse``
    CSR matmul over stored entries.  Cost is proportional to the number
    of multiply-adds ``Σᵢ Σ_{c ∈ Rⁱ} |users c's roles|`` — excellent on
    the sparse matrices typical of real RBAC data, quadratic-ish on
    dense ones (stored entries of ``C`` approach ``n²``).

``bits``
    Bit-packed AND + popcount over ``uint64`` words.  Cost is the fixed
    ``block_rows · n · ceil(m / 64)`` words regardless of density —
    worse than sparse on very sparse data, far better once matrices get
    dense.  Only overlapping pairs (``popcount(AND) >= 1``) are emitted,
    which makes the output entry set identical to the sparse kernel's
    stored entries (binary data never stores explicit zeros in ``C``).

``auto`` picks per block by comparing the two cost estimates below.  The
constants are calibrated nanosecond weights, not laws: what matters is
the *ratio*, which sets the crossover density (roughly 15–20% with a
hardware popcount).  Both kernels return the same ``(rows, cols,
shared)`` triple over the same entry set, so the choice is invisible to
everything downstream — a property the kernel-parity test suite pins.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.bitmatrix.packed import HAVE_HW_POPCOUNT, popcount
from repro.exceptions import ConfigurationError

#: Recognised kernel names, in the order the CLI advertises them.
KERNELS = ("auto", "sparse", "bits")

#: Estimated cost of one CSR multiply-add (gather + multiply + scatter
#: into the hash-based accumulator scipy uses for CSR @ CSR).
SPARSE_NS_PER_FLOP = 2.5

#: Estimated cost of AND + popcount + accumulate for one uint64 word,
#: with numpy's hardware popcount ufunc (numpy >= 2.0)…
BITS_NS_PER_WORD_HW = 5.0

#: …and with the 16-bit table-lookup fallback (gather-bound, ~7x worse;
#: the crossover density shifts accordingly).
BITS_NS_PER_WORD_TABLE = 35.0

#: Target bytes for the bits kernel's per-tile AND intermediate; the
#: column dimension is tiled so peak memory stays bounded by this, not
#: by ``block_rows * n * n_words * 8``.
_TILE_BYTES = 16 * 1024 * 1024

_EMPTY = np.empty(0, dtype=np.int64)


def validate_kernel(kernel: str) -> str:
    """Validate a kernel option, returning the normalised name."""
    if kernel not in KERNELS:
        raise ConfigurationError(
            f"kernel must be one of {'|'.join(KERNELS)}, got {kernel!r}"
        )
    return kernel


def bits_ns_per_word() -> float:
    """The active per-word cost estimate for the bits kernel."""
    return BITS_NS_PER_WORD_HW if HAVE_HW_POPCOUNT else BITS_NS_PER_WORD_TABLE


def sparse_row_flops(csr, csr_t) -> npt.NDArray[np.int64]:
    """Per-row multiply-add counts for the CSR block product.

    Row ``i`` of ``C`` costs ``Σ_{c ∈ Rⁱ} nnz(Mᵀ row c)`` multiply-adds;
    summing over a block's rows gives that block's sparse-kernel cost.
    Computed structurally (values ignored) in ``O(nnz)``.
    """
    col_nnz = np.diff(csr_t.indptr).astype(np.int64)
    gathered = col_nnz[csr.indices]
    running = np.concatenate(([0], np.cumsum(gathered, dtype=np.int64)))
    return running[csr.indptr[1:]] - running[csr.indptr[:-1]]


def _block_costs(csr, csr_t, bounds: list[tuple[int, int]]):
    """Estimated ``(sparse_ns, bits_ns)`` of each block under the model."""
    n_rows, n_cols = csr.shape
    n_words = max(1, -(-int(n_cols) // 64))
    row_flops = sparse_row_flops(csr, csr_t)
    word_ns = bits_ns_per_word()
    for start, stop in bounds:
        sparse_ns = SPARSE_NS_PER_FLOP * float(row_flops[start:stop].sum())
        bits_ns = word_ns * float((stop - start) * n_rows * n_words)
        yield sparse_ns, bits_ns


def plan_kernels(
    csr,
    csr_t,
    bounds: list[tuple[int, int]],
    kernel: str = "auto",
) -> list[str]:
    """Choose ``sparse`` or ``bits`` for each block of the scan.

    For explicit kernels this is a constant plan.  For ``auto`` each
    block compares the sparse cost (its rows' multiply-add counts) with
    the density-independent bits cost (``block · n · n_words`` popcounted
    words) and takes the cheaper side.  Blocks are planned independently:
    a matrix with a dense stripe and a sparse tail gets a mixed plan.
    """
    validate_kernel(kernel)
    if kernel != "auto":
        return [kernel] * len(bounds)
    return [
        "bits" if bits_ns < sparse_ns else "sparse"
        for sparse_ns, bits_ns in _block_costs(csr, csr_t, bounds)
    ]


def predicted_scan_ns(csr, csr_t, kernel: str = "auto") -> float:
    """Cost-model estimate of one whole-matrix scan, in nanoseconds.

    The same model :func:`plan_kernels` dispatches on, evaluated over a
    single block: the named kernel's cost, or the cheaper of the two
    for ``auto``.  The blocked scan compares it with the measured pool
    overhead to decide whether fanning out can pay.
    """
    validate_kernel(kernel)
    ((sparse_ns, bits_ns),) = _block_costs(csr, csr_t, [(0, csr.shape[0])])
    if kernel == "sparse":
        return sparse_ns
    if kernel == "bits":
        return bits_ns
    return min(sparse_ns, bits_ns)


def scan_block_sparse(
    csr, csr_t, start: int, stop: int
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Stored entries of ``C[start:stop] = M[start:stop] @ Mᵀ``.

    Returns ``(rows, cols, shared)`` with ``rows`` in global coordinates.
    """
    product = (csr[start:stop] @ csr_t).tocoo()
    rows = product.row.astype(np.int64) + start
    cols = product.col.astype(np.int64)
    return rows, cols, product.data.astype(np.int64)


def scan_block_bits(
    words: npt.NDArray[np.uint64], start: int, stop: int
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Overlapping entries of ``C[start:stop]`` from packed words.

    ``shared(i, j) = popcount(wordsᵢ & wordsⱼ)``; only entries with
    ``shared >= 1`` are emitted, which is exactly the stored-entry set of
    the sparse kernel on binary data — the parity contract.  The column
    dimension is tiled so the AND intermediate stays under
    ``_TILE_BYTES`` no matter how large the matrix is.
    """
    n_rows, n_words = words.shape
    block = np.ascontiguousarray(words[start:stop])
    b = stop - start
    if b == 0 or n_rows == 0:
        return _EMPTY, _EMPTY, _EMPTY
    tile = max(1, _TILE_BYTES // max(1, b * n_words * 8))
    rows_parts, cols_parts, shared_parts = [], [], []
    for j0 in range(0, n_rows, tile):
        j1 = min(j0 + tile, n_rows)
        overlap = np.bitwise_and(
            block[:, None, :], words[None, j0:j1, :]
        )
        shared = popcount(overlap).sum(axis=2)
        r, c = np.nonzero(shared)
        if len(r):
            rows_parts.append(r.astype(np.int64) + start)
            cols_parts.append(c.astype(np.int64) + j0)
            shared_parts.append(shared[r, c])
    if not rows_parts:
        return _EMPTY, _EMPTY, _EMPTY
    return (
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(shared_parts),
    )


def reduce_block(
    rows: npt.NDArray[np.int64],
    cols: npt.NDArray[np.int64],
    shared: npt.NDArray[np.int64],
    norms: npt.NDArray[np.int64],
    k: int | None,
    collect_subsets: bool,
) -> tuple[npt.NDArray[np.int64], ...]:
    """Reduce one block's co-occurrence entries to matched/subset pairs.

    Shared by both kernels, so the per-block counters derived from the
    outputs (candidate, matched and subset pair counts) are identical
    whichever kernel produced the entries.  Returns
    ``(matched_rows, matched_cols, hamming, sub_rows, sub_cols,
    n_candidates)``.
    """
    sub_rows, sub_cols = _EMPTY, _EMPTY
    if collect_subsets:
        # g^{ij} = |R^i|  iff  R^i ⊆ R^j (diagonal excluded).
        subset = (shared == norms[rows]) & (rows != cols)
        sub_rows, sub_cols = rows[subset], cols[subset]

    matched_rows, matched_cols, hamming = _EMPTY, _EMPTY, _EMPTY
    n_candidates = 0
    if k is not None:
        # Only consider each unordered pair once.
        upper = rows < cols
        rows, cols, shared = rows[upper], cols[upper], shared[upper]
        n_candidates = int(len(rows))

        # hamming(i, j) = |R^i| + |R^j| - 2 g^{ij}; for k = 0 the
        # "<= 0" test is the paper's indicator function I[i, j]
        # (distance zero iff equal sets of equal size).
        distance = norms[rows] + norms[cols] - 2 * shared
        mask = distance <= k
        matched_rows, matched_cols = rows[mask], cols[mask]
        hamming = distance[mask]
    return matched_rows, matched_cols, hamming, sub_rows, sub_cols, n_candidates
