"""The repo's benchmark: five workloads, end-to-end metrics, a per-layer ladder.

Run from the repository root::

    python3 -m bench run                      # every workload, one pass
    python3 -m bench run --workload local-reuse --seed 3
    python3 -m bench run --trace              # per-layer metrics + trace files
    python3 -m bench compare bench/out/A bench/out/B

``BENCHMARK.json`` at the repository root declares the workloads, the
metrics, their units and the regression bounds; ``bench/README.md``
explains why each of them exists.  The package drives the program only
through its public API and never edits anything outside ``bench/out``.
"""
