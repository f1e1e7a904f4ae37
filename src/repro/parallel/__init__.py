"""Parallel execution substrate of the blocked co-occurrence scan.

One pool abstraction (:class:`WorkerPool`, see :mod:`repro.parallel.pool`
for the execution model and the determinism contract) and one data
plane (:mod:`repro.parallel.shm`, zero-copy array publication).
"""

from repro.parallel.pool import (
    WorkerPool,
    current_pool,
    resolve_workers,
    use_pool,
    validate_workers,
)
from repro.parallel.shm import (
    AttachedSegment,
    SegmentHandle,
    SegmentManifest,
    SharedMemoryUnavailable,
    attach,
    publish,
)

__all__ = [
    "AttachedSegment",
    "SegmentHandle",
    "SegmentManifest",
    "SharedMemoryUnavailable",
    "WorkerPool",
    "attach",
    "current_pool",
    "publish",
    "resolve_workers",
    "use_pool",
    "validate_workers",
]
