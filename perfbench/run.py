"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig5-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --pin     # re-pin the digests of every point

Each round of the workload runs cold in a fresh process
(``workload.py``) and times each point, and the rest of each timed
call, on its own, scaled to the reference host speed that
``calibrate.py`` defines.  With ``--trace 0`` at least three rounds
run, and more while another one is expected to end within
``--seconds``; a few extra processes measure set-up alone.  ``wall_s``
and ``cpu_s`` sum, over the points (and calls), the median over the
rounds.  With ``--trace 1`` one untraced round and one traced round run
(plus, for ``fuzz-sweep``, one untraced round of one pooled call at
``jobs=2`` for pool utilisation), and the per-layer metrics, in raw
host seconds, come from the traced round.

Every round is checked: each simulated point's statistics must meet
the invariants in ``workload.py``, give the same digest in every round
of the run, and match the digest pinned in ``digests.json``.  The last
line of standard output is the JSON result; the lines before it give
every metric with its unit and the run fingerprint.  See README.md for
the metric and workload catalogue.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench-run"
PINS = HERE / "digests.json"

WORKLOADS = ("fig5-sweep", "processor-figs", "fuzz-sweep")
#: Pool size of the round that measures pool utilisation; every other
#: round runs at ``jobs=1``, so a run loads the host with one process.
POOL_JOBS = {"fuzz-sweep": 2}
#: Seeds whose points together cover every point any seed runs: the
#: Figure-5 rotation has period 5, the processor quad's period 4.
PIN_SEEDS = range(5)
#: Rounds per ``--trace 0`` run at the least.
MIN_ROUNDS = 3
#: Set-up-only processes per ``--trace 0`` run, on top of the rounds.
SETUP_PROBES = 2
#: Every run ends within 180 s; rounds are killed past this budget.
RUN_LIMIT_S = 170.0
#: A per-layer count that must be non-zero on a workload (and on every
#: workload for ``static.verify_calls``): a renamed public function
#: then fails the traced run instead of reporting 0 s.
REQUIRED_LAYERS = {
    "fig5-sweep": ("mechanism.ticks", "static.verify_calls"),
    "processor-figs": ("processor.points", "static.verify_calls"),
    "fuzz-sweep": ("check.cases", "static.verify_calls"),
}


class RoundError(RuntimeError):
    """A round process crashed or overran the run's time budget."""


def child_env() -> dict[str, str]:
    """The environment of a round: no inherited ``REPRO_*`` settings, a
    fixed hash seed, bytecode caching on (the untimed first process of a
    run compiles the ``.pyc`` files, so that ``setup_s`` never includes
    compiling), and every temp or cache path inside the checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONHASHSEED="0", TMPDIR=str(RUN_DIR / "tmp"),
               REPRO_CACHE_DIR=str(RUN_DIR / "cache"),
               XDG_CACHE_HOME=str(RUN_DIR / "cache"))
    return env


def spawn(workload: str, seed: int, deadline: float, *, jobs: int = 1,
          traced: bool = False, setup_only: bool = False) -> dict[str, Any]:
    """Run one round in a fresh process and return its report.

    ``setup_s`` is measured from just before the process is started to
    the round's first timed call, on the system-wide monotonic clock;
    ``elapsed_s`` to the process's exit.
    """
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    (RUN_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the round and its workers
        proc.communicate()
        raise RoundError(f"{workload} round overran the run budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RoundError(f"{workload} round exited {proc.returncode}:\n"
                         f"{err.strip()[-2000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["raw_setup_s"] = report["first_call"] - started
    report["setup_s"] = (report["raw_setup_s"] * REFERENCE_S
                         / report["calibration"][0])
    report["elapsed_s"] = time.monotonic() - started
    return report


def fingerprint() -> dict[str, Any]:
    """Where and on what the run happened."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": source.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "loadavg": list(os.getloadavg())}


def verdict(workload: str, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted points, failed points, problems) over ``rounds``.

    A point fails if its round raised, it broke an invariant, or its
    digest differs from the first round's or from the pinned one.
    """
    pins = json.loads(PINS.read_text()).get(workload, {})
    reference = {p["key"]: p["digest"] for p in rounds[0]["points"]}
    attempted = failed = 0
    problems = []
    for index, report in enumerate(rounds):
        if report.get("error"):
            problems.append(f"round {index} raised:\n{report['error']}")
        for point in report["points"]:
            attempted += 1
            reasons = list(point["problems"])
            if point["digest"] != reference.get(point["key"]):
                reasons.append("digest differs from the first round")
            if point["digest"] != pins.get(point["key"]):
                reasons.append("digest differs from the pinned digest")
            if reasons:
                failed += 1
                problems.append(f"round {index} {point['key']}: "
                                + "; ".join(reasons))
    return attempted, failed, problems


def summed(rounds: list[dict], field: str) -> float:
    """Sum over the keys of ``round[field]`` (points, groups) of the
    key's median over the rounds."""
    keys = set().union(*(report[field] for report in rounds))
    return sum(statistics.median(report[field][key] for report in rounds
                                 if key in report[field])
               for key in keys)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float
               ) -> tuple[dict[str, float], list[dict]]:
    spawn(workload, seed, deadline, setup_only=True)  # compile .pyc
    rounds: list[dict] = []
    started = time.monotonic()
    while len(rounds) < MIN_ROUNDS or (
            time.monotonic() - started
            + statistics.median(r["elapsed_s"] for r in rounds) <= seconds):
        rounds.append(spawn(workload, seed, deadline))
    setups = [r["setup_s"] for r in rounds]
    setups += [spawn(workload, seed, deadline, setup_only=True)["setup_s"]
               for _ in range(SETUP_PROBES)]
    wall = summed(rounds, "units")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": summed(rounds, "cpu"),
        "sim_kips": rounds[0]["instructions"] / wall / 1000.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return metrics, rounds


def per_layer(workload: str, seed: int, deadline: float
              ) -> tuple[dict[str, float], list[dict], list[str]]:
    base = spawn(workload, seed, deadline)
    traced = spawn(workload, seed, deadline, traced=True)
    rounds = [base, traced]
    pool = base
    if workload in POOL_JOBS:
        pool = spawn(workload, seed, deadline, jobs=POOL_JOBS[workload])
        rounds.append(pool)
    metrics = dict(traced["layers"])
    metrics["runner.pool_utilization"] = (
        pool["point_seconds"] / (pool["jobs"] * pool["wall_s"]))
    metrics["tracing.overhead_s"] = traced["wall_s"] - base["wall_s"]
    problems = [f"layer {name} recorded no calls on {workload}"
                for name in REQUIRED_LAYERS[workload] if not metrics[name]]
    return metrics, rounds, problems


def pin() -> int:
    """Write the digest of every point any seed runs, of every workload."""
    deadline = time.monotonic() + 100 * RUN_LIMIT_S
    pins: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in PIN_SEEDS:
            report = spawn(workload, seed, deadline)
            broken = [p for p in report["points"] if p["problems"]]
            if report.get("error") or broken:
                print(f"{workload} seed {seed}: not pinning a failing round: "
                      f"{report.get('error') or broken}", file=sys.stderr)
                return 1
            pins[workload].update((p["key"], p["digest"])
                                  for p in report["points"])
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, pins.values()))} points in {PINS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the digests of every point and exit")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    stamp = fingerprint()

    deadline = started + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, rounds, problems = per_layer(args.workload, args.seed,
                                                  deadline)
        else:
            metrics, rounds = end_to_end(args.workload, args.seed,
                                         args.seconds, deadline)
            problems = []
    except RoundError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    attempted, failed, point_problems = verdict(args.workload, rounds)
    problems = point_problems + problems
    if set(metrics) != set(units):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    correct = not problems

    kernel = statistics.median(t for r in rounds for t in r["calibration"])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds, fingerprint {json.dumps(stamp)}")
    print(f"  host-speed kernel {kernel:.6f} s (reference {REFERENCE_S} s); "
          f"unscaled wall {summed(rounds, 'raw_units'):.6f} s")
    for name in units:
        print(f"  {name:34s} {metrics.get(name, float('nan')):>16.6f} "
              f"{units[name]}")
    print(f"  {'failed_ratio':34s} {failed / attempted:>16.6f} ratio "
          f"({failed}/{attempted} points)")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    record = RUN_DIR / "results" / (f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"fingerprint": stamp, "result": result,
                                  "problems": problems, "rounds": rounds},
                                 indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
