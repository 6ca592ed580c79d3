"""Execution-path differential checks for the one frontend kernel.

The frontend kernel's output is a pure function of the spec: it must
not depend on how a point is executed (serial or across worker
processes, cold or served from the result cache, observed or not), nor
on a kernel label that a v1.7 spec or cache entry still carries.  Up to
v1.7 this module compared a batched struct-of-arrays kernel against
the scalar one; that kernel is gone, and the classes below keep their
names while pinning the same surfaces for the single kernel:

* **spec surface** — a v1.7 ``"simulator"`` key is dropped on load and
  never reaches the digest;
* **runner** — check verdicts repeat, parallel sweeps equal serial
  ones, and v1.7 cache entries of either kernel are hits;
* **observed runs** — event streams repeat, interval metrics match the
  pinned golden file, manifests ignore the legacy label;
* **CLI stdout** — exhibit tables are identical serial and parallel.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import build_manifest, run_observed
from repro.runner import ExperimentRunner, ExperimentSpec, ResultCache, run_point
from repro.runner.pool import StreamCache

GOLDEN_DIR = Path(__file__).parent / "golden"
BUDGET = 6_000

#: The golden-metrics exhibit point (mirrors tests/test_obs.py).
SPEC = ExperimentSpec(benchmark="compress", tc_entries=256, pb_entries=256,
                      instructions=BUDGET)

#: The kernel labels a v1.7 spec could carry.
LEGACY_KERNELS = ("scalar", "vectorized")


def _legacy(spec: ExperimentSpec, kernel: str) -> ExperimentSpec:
    """``spec`` as loaded from a v1.7 payload that recorded ``kernel``."""
    return ExperimentSpec.from_dict({**spec.to_dict(), "simulator": kernel})


# ----------------------------------------------------------------------
# Spec surface: the legacy kernel label is not part of a spec
# ----------------------------------------------------------------------
class TestSimulatorSpecSurface:
    def test_digest_still_varies_with_real_identity(self):
        assert SPEC.digest() != SPEC.replace(tc_entries=128).digest()
        for kernel in LEGACY_KERNELS:
            assert _legacy(SPEC, kernel).digest() == SPEC.digest()

    def test_spec_roundtrips_through_dict(self):
        payload = SPEC.to_dict()
        assert "simulator" not in payload
        assert ExperimentSpec.from_dict(payload) == SPEC
        for kernel in LEGACY_KERNELS:
            assert _legacy(SPEC, kernel) == SPEC


# ----------------------------------------------------------------------
# Runner-level differential: run_point / ExperimentRunner / caching
# ----------------------------------------------------------------------
class TestRunnerDifferential:
    def test_check_verdicts_identical(self):
        spec = ExperimentSpec(benchmark="fuzz-3", kind="check",
                              tc_entries=64, pb_entries=64,
                              instructions=3_000)
        first = run_point(spec)
        second = run_point(_legacy(spec, "vectorized"))
        assert first.metrics == second.metrics
        assert first.metrics["violations"] == 0

    def test_parallel_vectorized_sweep_matches_serial_scalar(self):
        specs = [ExperimentSpec(benchmark="compress", tc_entries=tc,
                                instructions=3_000)
                 for tc in (32, 64, 128, 256)]
        serial = ExperimentRunner(jobs=1).run(specs)
        parallel = ExperimentRunner(jobs=2).run(
            [_legacy(spec, "vectorized") for spec in specs])
        assert len(serial) == len(parallel) == len(specs)
        for a, b in zip(serial, parallel):
            assert a.metrics == b.metrics

    @pytest.mark.parametrize("first,second", [("scalar", "vectorized"),
                                              ("vectorized", "scalar")])
    def test_cross_kernel_cache_hits_both_ways(self, tmp_path, first,
                                               second):
        # An entry stored by v1.7 under either kernel label serves a
        # request whose spec was loaded with the other label: one
        # digest, one entry, nothing quarantined.
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              instructions=3_000)
        cold = run_point(spec, cache=cache)
        assert not cold.cached
        path = cache.path_for(spec)
        entry = json.loads(path.read_text())
        entry["spec"] = {**entry["spec"], "simulator": first}
        path.write_text(json.dumps(entry))
        warm = run_point(_legacy(spec, second), cache=cache)
        assert warm.cached
        assert warm.spec == spec
        assert warm.metrics == cold.metrics
        assert cache.quarantined() == []


# ----------------------------------------------------------------------
# Observed runs: event streams, interval metrics, golden file
# ----------------------------------------------------------------------
class TestObservedDifferential:
    def test_event_streams_are_identical(self):
        first = run_observed(SPEC)
        second = run_observed(_legacy(SPEC, "vectorized"),
                              stream_cache=StreamCache(BUDGET))
        assert first.events
        assert first.events == second.events
        assert first.stats.summary() == second.stats.summary()

    def test_vectorized_metrics_match_golden_file(self, tmp_path):
        # The same pinned golden tests/test_obs.py holds the plain spec
        # to, byte-for-byte, for a spec loaded with the legacy label.
        golden = GOLDEN_DIR / "metrics_compress_tc256_pb256_i6000.jsonl"
        observed = run_observed(_legacy(SPEC, "vectorized"))
        produced = observed.write_metrics(tmp_path / "metrics.jsonl")
        assert produced.read_bytes() == golden.read_bytes()

    def test_manifests_are_kernel_blind(self):
        plain = build_manifest(SPEC, include_host=False)
        for kernel in LEGACY_KERNELS:
            assert build_manifest(_legacy(SPEC, kernel),
                                  include_host=False) == plain


# ----------------------------------------------------------------------
# CLI: exhibit stdout serial vs parallel
# ----------------------------------------------------------------------
class TestCLIDifferential:
    def _stdout(self, capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_figure5_stdout_identical(self, capsys):
        base = ["--no-cache", "--instructions", "3000",
                "figure5", "--benchmarks", "compress"]
        serial = self._stdout(capsys, base)
        parallel = self._stdout(capsys, base + ["--jobs", "2"])
        assert serial == parallel
        assert "compress" in serial

    def test_all_stdout_identical_including_parallel(self, capsys):
        # "all" mixes frontend, processor and dynamic points; stdout
        # must not depend on the worker count.
        base = ["--no-cache", "--instructions", "2000",
                "all", "--benchmarks", "compress"]
        serial = self._stdout(capsys, base)
        parallel = self._stdout(capsys, base + ["--jobs", "2"])
        assert serial == parallel
        assert "compress" in serial

    def test_compare_stdout_identical(self, capsys):
        base = ["--no-cache", "--instructions", "3000",
                "compare", "--benchmarks", "compress",
                "--mechanisms", "preconstruction,mana", "--pb", "64"]
        serial = self._stdout(capsys, base)
        parallel = self._stdout(capsys, base + ["--jobs", "2"])
        assert serial == parallel
        assert "compress" in serial
