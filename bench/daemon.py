"""Bench-owned launcher of the ``serve-mixed`` daemon (a child process).

Builds the workload's corpus from ``--seed``, opens a FAIR session on
it, serves it on an ephemeral port and prints ``ADDRESS host:port``.
The harness keeps this process's stdin open; end-of-file on stdin is
the request to drain and exit, so a harness that dies takes the daemon
with it.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro import Rocket
from repro.serve import RocketServer

from bench.harness import Tracer
from bench.scenarios import build_scenario


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--tuned", type=int, default=1)
    args = parser.parse_args()
    scenario = build_scenario(
        "serve-mixed", args.seed, bool(args.smoke), Tracer(False, "serve-mixed")
    )
    scenario.tuned = bool(args.tuned)
    rocket = Rocket(scenario.app, scenario.store, scenario.config())
    server = RocketServer(rocket.session(policy="fair"), scenario.corpus)
    threading.Thread(
        target=lambda: (sys.stdin.buffer.read(), server.request_drain()),
        name="bench-daemon-stdin", daemon=True,
    ).start()
    print(f"ADDRESS {server.address}", flush=True)
    server.serve_forever(install_signals=False)


if __name__ == "__main__":
    main()
