#!/usr/bin/env python3
"""Rewrite pins.json: the SHA-256 of the ``matchext census --report`` bytes
for the first batches of each census stream at the default seed.

    python3 bench/pin.py

Run it only when report bytes are meant to change; the benchmark counts a
census whose report differs from its pin as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

BATCHES = 16


def main() -> int:
    work = run.OUT / "pins"
    bench = run.Run(work, run.DEFAULT_SEED)
    pins = {}
    for stream in sorted(run.gen.STREAMS):
        pins[stream] = []
        for index in range(BATCHES):
            batch = run.Batch(bench, stream, index)
            code, _, _, report = batch.census(bench, 1, "pin")
            failures = run.gates.census_failures(code, report, batch.graphs)
            if failures:
                print(f"{stream} batch {index}: {'; '.join(failures)}", file=sys.stderr)
                return 1
            pins[stream].append(hashlib.sha256(report).hexdigest())
    doc = {"seed": run.DEFAULT_SEED, "census": pins}
    (run.HERE / "pins.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
