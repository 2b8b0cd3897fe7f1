"""``python3 -m bench run|compare`` — see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.harness import BLAS_ENV, BLAS_FOUND_ENV, CORES_ENV, available_cores, pin_harness
from bench.spec import OUT_DIR, ROOT, load_spec

#: Marks the re-executed interpreter (fixed hash seed, import path set).
_CHILD_ENV = "ROCKET_BENCH_CHILD"


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env[_CHILD_ENV] = "1"
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread per process, remembering what was there: left at
    # the library default (one thread per core in every process) the
    # pools oversubscribe a small box and the spread of every
    # throughput number is 0.1-0.3 -- see bench/README.md.
    if BLAS_FOUND_ENV not in env:
        env[BLAS_FOUND_ENV] = json.dumps({name: env.get(name) for name in BLAS_ENV})
    for name in BLAS_ENV:
        env[name] = "1"
    # The cores this run was given, before the workload process pins itself.
    env.setdefault(CORES_ENV, ",".join(str(core) for core in available_cores()))
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _workload_argv(args: argparse.Namespace, workload: str, run_dir: Path) -> List[str]:
    return [
        sys.executable, "-m", "bench", "run",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--smoke", str(args.smoke),
        "--out", str(run_dir),
    ]


def _print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, entry in metrics.items():
        if entry.get("unavailable") is not None:
            print(f"  {name:38s} unavailable ({entry['unavailable']})")
        else:
            print(f"  {name:38s} {entry['value']:.6g} {entry['unit']}")


def _run_one(args: argparse.Namespace, run_dir: Path) -> int:
    """Single-workload mode: what the driver calls, once per run."""
    if os.environ.get(_CHILD_ENV) != "1":
        # A clean interpreter: fixed hash seed, the program importable
        # for this process and every process it spawns.
        argv = _workload_argv(args, args.workload, run_dir)
        os.execve(sys.executable, argv, _child_env())
    pin_harness()  # before numpy, the program or any thread exists
    from bench.runner import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), bool(args.smoke), run_dir
    )
    print(
        f"{args.workload}: seed {args.seed}, {result['samples']['measured_jobs']} measured "
        f"jobs, {result['samples']['pairs']} pairs in {result['samples']['timed_wall_s']:.2f} s"
    )
    _print_metrics("end-to-end" + (" (traced run: not evidence)" if args.trace else ""),
                   result["end_to_end"])
    if args.trace:
        _print_metrics("per-layer", result["per_layer"])
        print(f"trace written to {result['trace_file']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    # The contract line: numbers only; an unavailable layer metric reads -1.
    shown = result["per_layer"] if args.trace else result["end_to_end"]
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {
                "value": entry["value"] if entry["value"] is not None else -1.0,
                "unit": entry["unit"],
            }
            for name, entry in shown.items()
        },
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def _run_all(args: argparse.Namespace, run_dir: Path) -> int:
    """Every declared workload, each in a fresh subprocess."""
    spec = load_spec()
    status = 0
    rows: List[str] = []
    for workload in spec.workloads:
        proc = subprocess.run(
            _workload_argv(args, workload, run_dir), env=_child_env(), cwd=str(ROOT),
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            status = 1
            rows.append(f"{workload:16s} FAILED (exit {proc.returncode})")
            continue
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        share = line["failed"] / line["attempted"]
        rows.append(f"{workload:16s} failed_share {share:.3f} ({line['failed']}/{line['attempted']})")
    print(f"\nresults in {run_dir}")
    print("\n".join(rows))
    return status


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(spec.run_seconds)
    run_dir = Path(args.out) if args.out else OUT_DIR / f"run-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    if args.workload is None:
        return _run_all(args, run_dir)
    if args.workload not in spec.workloads:
        print(f"bench: unknown workload {args.workload!r}; declared: "
              f"{', '.join(spec.workloads)}", file=sys.stderr)
        return 2
    return _run_one(args, run_dir)


def _cmd_compare(args: argparse.Namespace) -> int:
    from bench.compare import compare

    return compare(args.base, args.other)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload (--workload) or all of them")
    run.add_argument("--workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="length of the timed region (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    run.add_argument("--smoke", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="tiny corpora, one set-up: exercises the harness, measures nothing")
    run.add_argument("--out", help="run directory for result and trace files")
    run.set_defaults(func=_cmd_run)
    cmp_ = sub.add_parser("compare", help="compare two sets of run directories")
    cmp_.add_argument("base", help="a run directory, or a directory of run directories")
    cmp_.add_argument("other")
    cmp_.set_defaults(func=_cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
