"""Hash every output of the benchmark workloads, to show a change leaves
them byte-identical.

Each workload round of `perfbench/workloads.py` (grid, oracle, fit) is
built at seeds 1, 2, 3 and 8128 and run once through `mesonosc.cli.main`
in a temporary directory, warm-up calls left out.  The result is one JSON
object mapping "<workload>/<seed>/<file>" to the sha256 of every data
file, event file and fit JSON; manifests carry timings and are left out.

    PYTHONPATH=src python tools/identity.py --out new.json
    PYTHONPATH=src python tools/identity.py --out new.json --against old.json

`mesonosc` is imported from the path Python finds it on, so pointing
PYTHONPATH at another checkout's `src` hashes that version; the calls
come from this checkout's `perfbench`.  With `--against`, every name
whose hash differs or that only one side has is printed, and the exit
status is 1 if there is any.  Compare runs from one machine: a fit JSON
may differ in its last bits between numpy's CPU dispatch paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))

import mesonosc  # noqa: E402
from mesonosc import cli  # noqa: E402

import workloads  # noqa: E402

SEEDS = (1, 2, 3, 8128)


def hash_outputs() -> dict[str, str]:
    hashes = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                _, calls = workloads.build(workload, seed, tmp,
                                           mesonosc.DEFAULT_CONFIG)
                for call in calls:
                    rc = cli.main(call.argv)
                    if rc != 0:
                        sys.exit(f"{workload} seed {seed}: exit {rc} from "
                                 f"{' '.join(call.argv)}")
                    for path in (call.out, *call.extra_files):
                        with open(path, "rb") as fh:
                            digest = hashlib.sha256(fh.read()).hexdigest()
                        name = os.path.relpath(path, tmp)
                        hashes[f"{workload}/{seed}/{name}"] = digest
    return hashes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file of the hashes")
    ap.add_argument("--against", default=None,
                    help="an earlier --out file to compare with")
    args = ap.parse_args()
    started = time.monotonic()
    hashes = hash_outputs()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"identity: {len(hashes)} outputs of mesonosc at "
          f"{os.path.dirname(mesonosc.__file__)} in "
          f"{time.monotonic() - started:.1f} s")
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        earlier = json.load(fh)
    differ = sorted(name for name in hashes.keys() | earlier.keys()
                    if hashes.get(name) != earlier.get(name))
    for name in differ:
        print(f"differs: {name}")
    print(f"identity: {len(hashes)} outputs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
