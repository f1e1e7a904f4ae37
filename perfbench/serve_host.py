"""Host process of the ``serve`` workload.

Usage: ``python3 perfbench/serve_host.py DATASET.json TRACE`` with the
program's ``src/`` on ``PYTHONPATH``.  Loads the dataset, starts
``ServiceServer`` at the default ``ServiceConfig`` on a free loopback
port, prints ``PORT <n>`` and serves until standard input closes.

The service runs in its own process, as ``repro serve`` does, so the
load generator's allocations never trigger collections in the system
under test.  ``AnalysisService.handle`` is wrapped from outside:

* with ``TRACE`` = 1 every response carries ``X-Perfbench-Handle:
  <start> <end>`` (``time.perf_counter`` readings, comparable across
  processes on one host), the time spent inside ``handle``, and
  ``X-Perfbench-GC: <seconds> <gen2 collections>``, this process's
  cumulative cyclic-GC totals from ``gc.callbacks``;
* ``GET /perfbench/state`` never reaches the service: it times
  ``RbacState.fingerprint()`` and ``copy()`` on the live state, which
  the service does not expose.
"""

import gc
import sys
import time

from common import GcClock
from repro.io import load_json
from repro.service import AnalysisService, ServiceConfig, ServiceServer

HANDLE_HEADER = "X-Perfbench-Handle"
GC_HEADER = "X-Perfbench-GC"
STATE_PROBE = "/perfbench/state"


def _probe(service: AnalysisService, path: str):
    if path != STATE_PROBE:
        return 404, {"error": f"no such probe: {path}"}, {}
    started = time.perf_counter()
    service.state.fingerprint()
    fingerprinted = time.perf_counter()
    service.state.copy()
    return 200, {
        "fingerprint_s": fingerprinted - started,
        "copy_s": time.perf_counter() - fingerprinted,
    }, {}


def _wrap_handle(service: AnalysisService, trace: bool) -> None:
    handle = service.handle
    totals = GcClock()
    if trace:
        gc.callbacks.append(totals)

    def wrapped(method, path, body=b"", deadline_header=None,
                trace_id_header=None):
        if path.startswith("/perfbench/"):
            return _probe(service, path)
        started = time.perf_counter()
        status, payload, headers = handle(
            method, path, body, deadline_header, trace_id_header
        )
        if trace:
            headers[HANDLE_HEADER] = f"{started!r} {time.perf_counter()!r}"
            headers[GC_HEADER] = f"{totals.seconds!r} {totals.gen2}"
        return status, payload, headers

    service.handle = wrapped


def main(argv: list[str]) -> int:
    dataset, trace = argv[0], argv[1] == "1"
    service = AnalysisService(load_json(dataset), ServiceConfig())
    _wrap_handle(service, trace)
    server = ServiceServer(service)
    server.start()
    try:
        print(f"PORT {server.address[1]}", flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
