"""One round of one benchmark workload, run in a process of its own.

``run.py`` starts this script once per round so that every round pays
its own set-up (interpreter start, ``import repro``, temp dirs) and runs
cold: nothing a round computes or memoises is seen by the next one.  A
round runs the workload's groups one after the other and times each
group, and each point inside it, on its own; between groups it times
the host-speed reference kernel (``calibrate.py``) and scales each
group's times to the reference host.  It prints one JSON object as the
last line of its standard output: raw and scaled times, the kernel
times, the executed instruction budget, a digest and an invariant
verdict per simulated point, and with ``--traced`` the per-layer
metrics.

Usage (from the root of a checkout)::

    python3 perfbench/workload.py --workload fig5-sweep --seed 0 --jobs 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable

from calibrate import REFERENCE_S, Kernel

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space of a run: temp dirs and span dumps, inside the checkout.
RUN_DIR = ROOT / ".perfbench-run"

#: Per-point budget of the exhibit workloads (the repo's default scale).
INSTRUCTIONS = 60_000
FIG5_BENCHMARKS = ("gcc", "compress")
PROCESSOR_BENCHMARK = "perl"
#: Trace-cache sizes of the processor quad's base point, by seed modulo
#: 4; its preconstruction point halves it and adds 128 buffer entries,
#: as ``figure8_specs`` does for 256 (the same area, the paper's Figure
#: 8), so seed 0 runs the paper's quad.
PROCESSOR_TC_SIZES = (256, 512, 1024, 128)
#: The fuzz cases of every round: ``repro fuzz``'s own first window.
FUZZ_CASES = 8
#: The oracle catalogue, by the names the per-layer metrics use.
ORACLES = ("determinism", "conservation", "intervals", "cfg", "metamorphic",
           "roundtrip", "coverage", "simulator")


def import_repro() -> None:
    """Import :mod:`repro` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {SRC}")


class Group:
    """One timed call of a workload and the specs it runs.

    ``run`` returns what the call returns; ``results`` turns that into
    the call's ``RunResult`` list, and ``problems`` into (point key,
    problem) pairs beyond the per-point invariants.
    """

    def __init__(self, name: str, specs: list, run: Callable[[], Any],
                 results: Callable[[Any], list] = lambda out: out,
                 problems: Callable[[Any], list[tuple[str, str]]]
                 = lambda out: []) -> None:
        self.name = name
        self.specs = specs
        self.run = run
        self.results = results
        self.problems = problems


def fig5_sweep(seed: int, jobs: int, scratch: Path) -> list[Group]:
    """A cold Figure-5 sweep of gcc and compress into an empty result cache.

    Per benchmark, one group runs each preconstruction-buffer size once,
    at the trace-cache size the seed picks for it: PB column ``j`` runs
    at TC size number ``(seed + j) mod 5``.  The programs are the
    benchmarks' own stand-ins, the ones Figure 5 simulates.
    """
    from repro.analysis import figure5_specs
    from repro.api import ExperimentRunner, ResultCache

    cache = ResultCache(scratch / "cache")
    groups = []
    for benchmark in FIG5_BENCHMARKS:
        grid = figure5_specs(benchmark, INSTRUCTIONS)
        tcs = sorted({spec.tc_entries for spec in grid})
        pbs = sorted({spec.pb_entries for spec in grid})
        chosen = {(tcs[(seed + j) % len(tcs)], pb) for j, pb in enumerate(pbs)}
        specs = [spec for spec in grid
                 if (spec.tc_entries, spec.pb_entries) in chosen]
        runner = ExperimentRunner(jobs=jobs, cache=cache)
        groups.append(Group(benchmark, specs,
                            lambda r=runner, s=specs: r.run(s)))
    return groups


def processor_figs(seed: int, jobs: int, scratch: Path) -> list[Group]:
    """The Figure 6/8 processor quad of perl, no result cache.

    Base and preconstruction points, each with preprocessing off and on.
    The seed picks the base trace-cache size from
    :data:`PROCESSOR_TC_SIZES`.
    """
    from repro.analysis import figure8_specs
    from repro.api import ExperimentRunner

    tc = PROCESSOR_TC_SIZES[seed % len(PROCESSOR_TC_SIZES)]
    specs = figure8_specs(INSTRUCTIONS, benchmarks=(PROCESSOR_BENCHMARK,),
                          base=(tc, 0), precon=(tc // 2, 128))
    runner = ExperimentRunner(jobs=jobs)
    return [Group(PROCESSOR_BENCHMARK, specs, lambda: runner.run(specs))]


def fuzz_sweep(seed: int, jobs: int, scratch: Path) -> list[Group]:
    """``run_fuzz`` over cases ``0 .. FUZZ_CASES-1`` at the default budget,
    every oracle, no cache, no minimizing.

    At ``jobs=1`` each case is its own ``run_fuzz`` call, in an order the
    seed shuffles; at ``jobs>1`` one pooled call runs them all.
    ``run_fuzz`` returns a report, not the per-case results, so
    ``ExperimentRunner.run`` is wrapped to keep what it returns.
    """
    from repro.api import ExperimentRunner, run_fuzz
    from repro.check.fuzz import fuzz_case_spec

    captured: list = []
    inner = ExperimentRunner.run

    def capture(self, batch):
        results = inner(self, batch)
        captured.extend(results)
        return results

    ExperimentRunner.run = capture

    def group(first: int, count: int) -> Group:
        specs = [fuzz_case_spec(first + i) for i in range(count)]

        def run():
            del captured[:]
            return run_fuzz(count, seed_base=first, jobs=jobs,
                            minimize=False)

        def problems(report) -> list[tuple[str, str]]:
            return [(point_key(failure.spec),
                     f"fuzz failure: {failure.violations} violation(s)")
                    for failure in report.failures]

        return Group(f"case{first}" if count == 1 else "cases", specs, run,
                     lambda report: list(captured), problems)

    if jobs > 1:
        return [group(0, FUZZ_CASES)]
    order = list(range(FUZZ_CASES))
    random.Random(seed).shuffle(order)
    return [group(case, 1) for case in order]


WORKLOADS = {"fig5-sweep": fig5_sweep, "processor-figs": processor_figs,
             "fuzz-sweep": fuzz_sweep}


def point_key(spec) -> str:
    """A point's identity, from spec fields that no planned change
    removes (``ExperimentSpec.label`` also names the kernel)."""
    flags = [name for name, on in (("static-seed", spec.static_seed),
                                   ("preprocess", spec.preprocess)) if on]
    seed = "" if spec.workload_seed is None else f" seed={spec.workload_seed}"
    return " ".join([spec.kind, spec.benchmark + seed,
                     f"tc={spec.tc_entries}", f"pb={spec.pb_entries}",
                     spec.mechanism, *flags])


def metrics_digest(spec, metrics: dict) -> str:
    """Canonical digest of one point's simulated statistics.

    A fuzz verdict's oracle bookkeeping (per-oracle counts, messages) is
    left out: zero violations is an invariant, and the digest must
    survive a change to the oracle catalogue.
    """
    if spec.kind == "check":
        metrics = {key: value for key, value in metrics.items()
                   if not key.startswith(("oracle_", "violation"))}
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def point_problems(spec, metrics: dict) -> list[str]:
    """Invariants every simulated point must meet, whatever the seed."""
    problems = []
    if metrics.get("instructions") != spec.instructions:
        problems.append(f"instructions {metrics.get('instructions')} "
                        f"!= budget {spec.instructions}")
    hits, traces = metrics.get("buffer_hits"), metrics.get("traces")
    if hits is not None and traces is not None and hits > traces:
        problems.append(f"buffer_hits {hits} > traces {traces}")
    for key in ("trace_hit_fraction", "ntp_accuracy"):
        if key in metrics and not 0.0 <= metrics[key] <= 1.0:
            problems.append(f"{key} {metrics[key]} outside [0, 1]")
    if spec.kind == "check" and metrics.get("violations", 0):
        problems.append(f"{metrics['violations']} oracle violation(s)")
    return problems


def usage() -> tuple[float, float, float]:
    """(CPU seconds of this process and its reaped workers, this
    process's peak RSS in MB, the largest worker's peak RSS in MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_maxrss / 1024.0, kids.ru_maxrss / 1024.0


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (``tracing.overhead_s`` and
    ``runner.pool_utilization`` come from the untraced rounds)."""
    total = tracer.total  # name -> [calls, inclusive s, self s]

    def count(name: str) -> float:
        return tracer.counts.get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    tick = total("mechanism.tick")
    built = count("mechanism.traces_constructed")
    frontend = total("sim.frontend")
    processor = total("processor.run")
    verify = total("static.verify")
    generate = total("workloads.generate")
    put = total("runner.cache_put")
    layers = {
        "mechanism.tick_s": tick[2],
        "mechanism.probe_s": total("mechanism.probe")[2],
        "mechanism.observe_s": total("mechanism.observe")[2],
        "mechanism.slow_path_s": total("mechanism.slow_path")[2],
        "mechanism.ticks": tick[0],
        "mechanism.decode_steps": count("mechanism.decode_steps"),
        "mechanism.ns_per_decode_step":
            ratio(tick[1] * 1e9, count("mechanism.decode_steps")),
        "mechanism.traces_constructed": built,
        "mechanism.buffer_hits": count("mechanism.buffer_hits"),
        "mechanism.useful_ratio": ratio(count("mechanism.buffer_hits"),
                                        built),
        "sim.frontend_s": frontend[1],
        "sim.dispatch_self_s": frontend[2],
        "sim.trace_hit_fraction": ratio(count("sim.trace_hits"),
                                        count("sim.trace_lookups")),
        "static.verify_s": verify[2],
        "static.verify_calls": verify[0],
        "static.predict_s": total("static.predict")[2],
        "workloads.generate_s": generate[2],
        "workloads.images": generate[0],
        "engine.stream_s": total("engine.stream")[2],
        "engine.instructions": count("engine.instructions"),
        "trace.partition_s": total("trace.partition")[2],
        "trace.traces": count("trace.traces"),
        "processor.run_s": processor[2],
        "processor.points": processor[0],
        "processor.ipc_mean": ratio(count("processor.ipc_sum"), processor[0]),
        "caches.icache_misses_per_ki":
            ratio(1000.0 * count("sim.icache_misses"),
                  count("sim.instructions")),
        "branch.ntp_accuracy": ratio(count("sim.ntp_correct"),
                                     count("sim.ntp_total")),
        "check.cases": total("check.case")[0],
        "check.violations": count("check.violations"),
    }
    for oracle in ORACLES:
        layers[f"check.{oracle}_s"] = total(f"check.{oracle}")[2]
    layers["runner.overhead_s"] = (total("runner.run")[1]
                                   - count("runner.point_seconds"))
    layers["runner.cache_puts"] = put[0]
    layers["runner.cache_put_s"] = put[2]
    return layers


def run_group(group: Group, report: dict[str, Any]
              ) -> tuple[dict[str, float], float]:
    """Run one group, add its points to ``report``, and return its raw
    unit times and CPU seconds.

    Unit times: each point's ``RunResult.wall_seconds`` under its key,
    and the rest of the call (scheduling, result-cache writes, fuzz
    report) under ``<group>:rest``.
    """
    cpu0 = usage()[0]
    started = time.perf_counter()
    error = None
    try:
        outcome = group.run()
    except Exception:  # a failed round is reported, not raised
        error = traceback.format_exc()
    wall = time.perf_counter() - started
    cpu = usage()[0] - cpu0
    if error is not None:
        report["error"] = (report.get("error") or "") + error
        report["points"] += [{"key": point_key(spec), "digest": None,
                              "problems": ["round raised"]}
                             for spec in group.specs]
        return {}, cpu
    results = group.results(outcome)
    extra: dict[str, list[str]] = {}
    for key, problem in group.problems(outcome):
        extra.setdefault(key, []).append(problem)
    by_spec = {result.spec: result for result in results}
    units: dict[str, float] = {}
    executed = 0.0
    for spec in group.specs:
        key = point_key(spec)
        result = by_spec.get(spec)
        if result is None:
            report["points"].append({"key": key, "digest": None,
                                     "problems": ["no result"]})
            continue
        report["points"].append({
            "key": key, "digest": metrics_digest(spec, result.metrics),
            "problems": (point_problems(spec, result.metrics)
                         + extra.get(key, []))})
        if not result.cached:
            executed += result.wall_seconds
            units[key] = result.wall_seconds
            report["instructions"] += spec.instructions
    units[f"{group.name}:rest"] = max(0.0, wall - executed)
    report["point_seconds"] += executed
    report["wall_s"] += wall
    return units, cpu


def run_round(args: argparse.Namespace) -> dict[str, Any]:
    import_repro()
    RUN_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="round-", dir=RUN_DIR))
    tracer = None
    if args.traced:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, ORACLES)
    report: dict[str, Any] = {
        "jobs": args.jobs, "error": None, "wall_s": 0.0, "raw_units": {},
        "raw_cpu": {}, "units": {}, "cpu": {}, "points": [],
        "instructions": 0, "point_seconds": 0.0}
    try:
        groups = WORKLOADS[args.workload](args.seed, args.jobs, scratch)
        report["first_call"] = time.monotonic()
        kernel = Kernel()
        report["calibration"] = [kernel.measure()]
        if args.setup_only:
            return report
        for group in groups:
            units, cpu = run_group(group, report)
            report["calibration"].append(kernel.measure())
            # The host's speed while the group ran: the mean of the
            # kernel times on either side of it.
            scale = REFERENCE_S / statistics.mean(report["calibration"][-2:])
            report["raw_units"].update(units)
            report["units"].update((key, seconds * scale)
                                   for key, seconds in units.items())
            report["raw_cpu"][group.name] = cpu
            report["cpu"][group.name] = cpu * scale
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _, own_rss, worker_rss = usage()
    report["peak_rss_mb"] = own_rss + worker_rss
    if tracer is not None:
        report["layers"] = layer_metrics(tracer)
        tracer.write(RUN_DIR / "spans"
                     / f"{args.workload}-seed{args.seed}.json")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--traced", action="store_true",
                        help="wrap the layer boundaries and report "
                             "per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first timed call")
    args = parser.parse_args(argv)
    print(json.dumps(run_round(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
