"""The tier-1 workflow installs the versions the benchmark baseline was taken
on, and checks the pinned outputs on one core too.

The golden SHA-256s and the benchmark pins were recorded under the numpy,
scipy and Python that perfbench/baseline.json names; a workflow pinned to
others could move them for reasons unrelated to a change. On one core the
pooled row blocks run on one worker in blocks a multi-core runner never cuts,
and the k-d queries' tie resolution runs on one thread.
The installed console script, which no test calls, runs once after the
install.
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


def test_pinned_outputs_are_checked_on_one_core():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = workflow.split("- name: Pinned outputs on one core\n", 1)[1].split("- name:", 1)[0]
    run = " ".join(step.split("run: >-", 1)[1].split())
    assert "taskset -c 0 python -m pytest" in run
    for target in ("tests/test_cli.py::TestGoldenFixtures", "tests/test_threads.py",
                   "tests/test_acceptance.py", "tests/test_stlp.py",
                   "tests/test_pointcloud.py"):
        assert target in run.split(), target


def test_installed_console_script_runs():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    steps = re.findall(r"- name: (.+)", workflow)
    assert steps.index("Install") + 1 == steps.index("Console script")
    step = workflow.split("- name: Console script\n", 1)[1].split("- name:", 1)[0]
    commands = [line.strip() for line in step.split("run: |", 1)[1].splitlines()]
    assert "pclabel --help" in commands
    assert 'pclabel synth --preset room-small --out "$RUNNER_TEMP/synth"' in commands
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]", 1)[1]
    assert 'pclabel = "pclabel.cli:main"' in scripts.split("[", 1)[0]
