"""The tier-1 workflow installs the versions the benchmark baseline was taken on.

The golden SHA-256s and the benchmark pins were recorded under the numpy,
scipy and Python that perfbench/baseline.json names; a workflow pinned to
others could move them for reasons unrelated to a change.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_pins_match_the_baseline_environment():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    recorded = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["environment"]
    for package in ("numpy", "scipy"):
        assert re.findall(rf"\b{package}==([\w.]+)", workflow) == [recorded[package]], package
    major_minor = ".".join(recorded["python"].split(".")[:2])
    assert re.findall(r'python-version: \["([\d.]+)"\]', workflow) == [major_minor]
