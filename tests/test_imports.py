"""scipy is imported at the first k-d tree or graph, not with the package.

Every command runs in a fresh process and pays the package's import first;
scipy's k-d trees and graphs are most of it, and `pseudo`, `refine
--partition`, `eval` and `--help` build neither. Each check runs in a fresh
interpreter, since this one imported scipy long ago.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.spatial

from pclabel import pointcloud, stlp, synth
from pclabel.cli import main

from conftest import SRC

# Printed last by every child: the scipy modules it then holds.
_PROBE = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules(code: str) -> list:
    """The scipy modules a fresh interpreter holds after running `code`."""
    done = subprocess.run([sys.executable, "-c", code + _PROBE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def run_main(*args) -> str:
    """Child code that runs the CLI on `args` and asserts it exits with 0."""
    argv = [str(a) for a in args]
    return ("from pclabel.cli import main\n"
            f"try:\n    code = main({argv!r})\n"
            "except SystemExit as e:\n    code = e.code\n"
            "assert code == 0, code\n")


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    """A synthetic scan with its pseudo labels and refined partition."""
    out = tmp_path_factory.mktemp("scan")
    assert main(["synth", "--preset", "room-small", "--out", str(out)]) == 0
    common = ["--cloud", str(out / "cloud.ply"), "--classes", str(out / "classes.json")]
    assert main(["pseudo", *common, "--mask", str(out / "mask.json"),
                 "--logits", str(out / "logits.lf01"), "--out", str(out / "p")]) == 0
    assert main(["refine", *common, "--labels", str(out / "p" / "labels.txt"),
                 "--confidence", str(out / "p" / "confidence.lf01"),
                 "--out", str(out / "r")]) == 0
    return out


@pytest.mark.parametrize("module", ["pclabel", "pclabel.cli"])
def test_importing_the_package_loads_no_scipy(module):
    assert scipy_modules(f"import {module}\n") == []


def test_help_loads_no_scipy():
    assert scipy_modules(run_main("--help")) == []


def test_pseudo_from_views_loads_no_scipy(scan, tmp_path):
    assert scipy_modules(run_main(
        "pseudo", "--cloud", scan / "cloud.ply", "--classes", scan / "classes.json",
        "--mask", scan / "mask.json", "--views", scan / "views" / "manifest.json",
        "--out", tmp_path / "p")) == []
    assert (tmp_path / "p" / "labels.txt").exists()


def test_refine_on_a_partition_file_loads_no_scipy(scan, tmp_path):
    assert scipy_modules(run_main(
        "refine", "--cloud", scan / "cloud.ply", "--classes", scan / "classes.json",
        "--labels", scan / "p" / "labels.txt",
        "--confidence", scan / "p" / "confidence.lf01",
        "--partition", scan / "r" / "partition.json", "--out", tmp_path / "r")) == []
    assert ((tmp_path / "r" / "refined_labels.txt").read_bytes()
            == (scan / "r" / "refined_labels.txt").read_bytes())


def test_eval_loads_no_scipy(scan):
    assert scipy_modules(run_main(
        "eval", "--pred", scan / "r" / "refined_labels.txt", "--gt", scan / "gt.ply",
        "--classes", scan / "classes.json", "--json")) == []


# A small cloud with labels, and a check that the package alone loaded no
# scipy before the call under test.
_SMALL = """
import sys
import numpy as np
from pclabel import LabelField, PointCloud
rng = np.random.default_rng(0)
cloud = PointCloud(rng.random((200, 3)), rng.integers(0, 256, (200, 3)))
labels = LabelField(rng.integers(0, 3, 200), 3)
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""


def test_fitting_the_classifier_loads_the_kd_tree():
    loaded = scipy_modules(_SMALL + "from pclabel.stlp import KnnClassifier\n"
                           "KnnClassifier().fit(cloud, labels)\n")
    assert "scipy.spatial" in loaded and "scipy.sparse.csgraph" not in loaded


def test_oversegmenting_loads_the_graph_components():
    loaded = scipy_modules(_SMALL + "from pclabel import superpoint\n"
                           "superpoint.partition_cloud(cloud, superpoint.SuperpointParams())\n")
    assert "scipy.sparse.csgraph" in loaded


def test_every_module_builds_its_trees_through_one_function():
    # One module-global per module, which conftest.record_queries swaps.
    assert stlp.cKDTree is synth.cKDTree is pointcloud.cKDTree
    points = np.random.default_rng(0).random((10, 3))
    tree = pointcloud.cKDTree(points, leafsize=4)
    assert isinstance(tree, scipy.spatial.cKDTree)
    assert tree.query(points[:2], k=1)[1].tolist() == [0, 1]
