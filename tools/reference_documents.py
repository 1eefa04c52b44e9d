"""Print the count and joined SHA-256 prefix of pel's 69 reference documents.

The documents are the emitted JSON of every perfbench search cell at seeds
1-3 (``SEARCH_3M + SEARCH_4M``, cell-major, 27 documents), followed by the
CLI payloads of the first two rounds of ``dense_stream(4242)`` (42
documents; the library jobs emit none).  They are joined in that order, and
the first 16 hex digits of the SHA-256 of the join are printed after the
count.  A change that must keep every result's bits keeps this line.

Run from the root of a checkout (a few seconds):

    python3 tools/reference_documents.py

pel is imported from ``src/`` and ``perfbench/workloads.py`` from
``perfbench/``; neither is modified.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (found through the path set above)

SEARCH_SEEDS = (1, 2, 3)
DENSE_SEED = 4242
DENSE_ROUNDS = 2


def documents():
    """The reference documents, in order, as emitted JSON strings."""
    for cell in workloads.SEARCH_3M + workloads.SEARCH_4M:
        for seed in SEARCH_SEEDS:
            yield workloads.search_job(cell, seed)(1)[1]
    stream = workloads.dense_stream(DENSE_SEED)
    for _ in range(DENSE_ROUNDS * len(workloads.DENSE_ROUND)):
        payload = next(stream)(1)[1]
        if payload is not None:
            yield payload


def main() -> int:
    digest, count = hashlib.sha256(), 0
    for payload in documents():
        digest.update(payload.encode())
        count += 1
    print(count, digest.hexdigest()[:16])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
