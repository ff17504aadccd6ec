"""Write perfbench/reference.json: the output digests the benchmark checks.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right.  It
runs every fan, the sweep and every walk of both flip-walk pools once
(a few minutes), and asserts that each of them verifies.
"""

import json
import os

from run import BUDGET_VISITED, HERE, load_dimerlab, pin_budget
from workloads import fan_outputs, sweep_outputs, walk_outputs

POOL_SEED = 20180418  # seeds the random flips that find the flip-walk targets


def main() -> None:
    pin_budget()
    dl = load_dimerlab()
    reference = {
        "budget_visited": BUDGET_VISITED,
        "fan-extract": fan_outputs(dl),
        "sweep-n7": sweep_outputs(dl),
        "flip-walk": walk_outputs(dl, POOL_SEED),
    }
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
