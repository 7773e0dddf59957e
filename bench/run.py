"""Benchmark of the multivital CLI, driven in-process as multivital.cli.main.

    python3 bench/run.py --workload phantom --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. The last line of stdout is one JSON
object with "correct", "attempted", "failed" and "metrics": the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The exit code
is 0 only when every op's outputs passed their checks. See bench/README.md.
"""

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mvbench.env import BENCH_DIR, configure_threads, use_checkout_sources  # noqa: E402

WORKLOAD_NAMES = ("phantom", "capture")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring window after the warm-up op")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    for metric, value in combined["metrics"].items():
        print(f"{metric:<40} {value['value']} {value['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    threads = configure_threads()
    use_checkout_sources()
    from mvbench import env, harness

    import_s = time.process_time()  # CPU time since the process started
    res = harness.run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), import_s)
    if args.trace:
        out = BENCH_DIR / "results" / f"spans-{args.workload}.jsonl"
        out.parent.mkdir(exist_ok=True)
        out.write_text("".join(json.dumps(r) + "\n" for r in res.spans))
        res.notes.append(f"spans written to {out.relative_to(BENCH_DIR.parent)}")
    print("\n".join(res.notes))
    for problem in res.problems:
        print(f"check failed: {problem}")
    print(f"env: {env.describe_host(threads)}")
    print(json.dumps(res.summary()))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
