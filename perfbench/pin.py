"""Regenerate perfbench/pins.json: SHA-256 digests of every workload's inputs.

    python3 perfbench/pin.py [--seeds 100]

For each workload and each seed in range(--seeds) this records the digests of
the generated corpus bytes, query ids, mask bits and ground-truth ids. A
benchmark run on a pinned seed whose inputs differ exits nonzero instead of
measuring a different program. Only rerun this when a change to the inputs
is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()
    run.import_library()
    from workloads import WORKLOADS, input_digests

    pins = {}
    for name, wl in WORKLOADS.items():
        pins[name] = {}
        for seed in range(args.seeds):
            inputs = wl.make_inputs(seed)
            pins[name][str(seed)] = input_digests(inputs, wl.ground_truth(inputs))
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
