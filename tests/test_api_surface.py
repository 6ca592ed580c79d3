"""The documented `repro.api` surface stays in lockstep with reality."""

import re
from pathlib import Path

from repro import api

README = Path(__file__).parent.parent / "README.md"


def documented_surface() -> list[str]:
    text = README.read_text()
    match = re.search(r"<!-- api-surface-begin -->(.*?)<!-- api-surface-end -->",
                      text, re.DOTALL)
    assert match, "README.md is missing the api-surface marker block"
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", match.group(1))


class TestSurface:
    def test_all_is_sorted(self):
        assert list(api.__all__) == sorted(api.__all__)

    def test_all_names_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_readme_matches_all(self):
        documented = documented_surface()
        assert documented == list(api.__all__), (
            "README's api-surface block is out of sync with "
            "repro.api.__all__; update the block between the "
            "api-surface-begin/end markers")

    def test_new_zoo_names_exported(self):
        for name in ("FrontendMechanism", "MechanismContext",
                     "register_mechanism", "mechanism_names",
                     "create_mechanism", "compare_specs", "compare_sweep",
                     "compare_from_results", "format_compare",
                     "rows_to_dicts", "CompareRow", "COMPARE_PB_SIZES"):
            assert name in api.__all__, name

    def test_telemetry_names_exported(self):
        for name in ("Telemetry", "SpanTracer", "MetricsRegistry",
                     "enable_telemetry", "disable_telemetry",
                     "telemetry_session", "current_telemetry", "span",
                     "format_span_tree", "merged_perfetto_trace",
                     "validate_merged_trace", "write_merged_perfetto",
                     "hotspot_rows", "append_trajectory",
                     "read_trajectory", "trajectory_reference"):
            assert name in api.__all__, name


class TestSimulatorDocs:
    """README and DESIGN.md describe the one frontend kernel: the
    `simulator` oracle's catalogue entries and the removal note."""

    DESIGN = Path(__file__).parent.parent / "DESIGN.md"

    def test_readme_documents_the_simulator_oracle(self):
        text = README.read_text()
        assert "the `simulator` oracle" in text
        assert "Choosing a simulator kernel" not in text

    def test_design_documents_the_simulator_oracle(self):
        text = self.DESIGN.read_text()
        assert "| `simulator` | the frontend kernel is a pure function" in text
        assert "42.6 s vs the scalar kernel's 47.3 s" in text
        assert "## 17. The batched struct-of-arrays kernel" not in text
