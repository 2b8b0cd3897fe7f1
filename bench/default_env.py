"""``harness.default_env_pairs_per_s``: one workload's loop as users run it.

Measured runs pin the BLAS pools to one thread, every process to one
core and the batch grain to a constant (see ``bench/README.md``); this
is the same set-up and loop with none of that: a subprocess free to use
every core, default knobs, and the BLAS environment the harness *found*
— for most users the library default, one thread per core in every
process.  Prints one JSON line.  A diagnostic
only: no end-to-end metric is ever taken here.
"""

from __future__ import annotations

import argparse
import json
import os

from bench.harness import Tracer, available_cores

# Every core, not the harness's one -- and before numpy loads, because a
# BLAS pool's threads keep the mask they were created under.
os.sched_setaffinity(0, available_cores())

from bench.runner import run_region  # noqa: E402
from bench.scenarios import build_scenario  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    scenario = build_scenario(
        args.workload, args.seed, bool(args.smoke), Tracer(False, args.workload)
    )
    scenario.tuned = False  # default grain, node processes placed by the kernel
    scenario.prepare_oracle()
    scenario.setup()
    try:
        region = run_region(scenario, args.seconds, traced=False)
    finally:
        scenario.teardown()
    errors = [job.error for job in region.jobs if job.error]
    if errors:
        raise SystemExit(f"default-environment run failed: {errors[0]}")
    print(json.dumps({"pairs_per_s": region.pairs_per_s}))


if __name__ == "__main__":
    main()
