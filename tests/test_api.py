import ast
import os
import pathlib
import subprocess
import sys
import types

import fscore as fs

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

REMOVED = ("RegressionEstimate", "SuiteReport", "DensitySpec", "compute_bprime",
           "run_threshold_experiment", "OracleSuiteFailure")


def test_all_lists_exactly_the_public_names():
    assert len(fs.__all__) == len(set(fs.__all__))
    for name in fs.__all__:
        assert hasattr(fs, name), name
    public = {name for name, value in vars(fs).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(fs.__all__) == public
    assert not public & set(REMOVED)


def _modules_after(code: str, tmp_path, package: str = "scipy") -> list:
    """Names of the ``package`` modules loaded once ``code`` has run in a
    fresh interpreter, so that no earlier import in this process counts."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    probe = code + "\nimport sys\nprint(sorted(m for m in sys.modules " \
                   f"if m.split('.')[0] == {package!r}))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert _modules_after("import fscore", tmp_path) == []


def test_import_and_rate_load_no_multiprocessing(tmp_path):
    # the harness runs its replicate workers on bare os.fork
    assert _modules_after("import fscore", tmp_path, "multiprocessing") == []
    code = """
from fscore import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig(n_grid=(200, 400), reps=2, oracle_atoms=2000))
"""
    assert _modules_after(code, tmp_path, "multiprocessing") == []


def test_default_train_predict_loads_no_scipy(tmp_path):
    # the 1-d kernel sweeps prefix sums and builds no tree unless a window
    # is empty; with h = n^{-1/3} on [0, 1] none is
    code = """
import numpy as np
from fscore import LabeledDataset
from fscore.cli import main
from fscore.plugin import UnlabeledDataset
rng = np.random.default_rng(0)
x = rng.random((300, 1))
LabeledDataset(points=x, labels=rng.random(300) < x[:, 0]).to_csv("lab.csv")
UnlabeledDataset(points=rng.random((400, 1))).to_csv("unl.csv")
assert main(["train", "--labeled", "lab.csv", "--unlabeled", "unl.csv",
             "--out", "model"]) == 0
assert main(["predict", "--model", "model", "--points", "unl.csv",
             "--out", "preds.csv"]) == 0
"""
    assert _modules_after(code, tmp_path) == []
    assert len((tmp_path / "preds.csv").read_text().splitlines()) == 401


def test_building_families_loads_no_scipy(tmp_path):
    # the smooth family's level is bisected, and the hard family's ball
    # volume takes Gamma from math; d = 3 needs Gamma at a half-integer
    code = """
from fscore import HardFamilyParams, build_hard_family, make_smooth_1d_family
make_smooth_1d_family(alpha_target=2.0)
build_hard_family(HardFamilyParams(d=3, beta=1.0, q=3, m=5, w=0.03))
"""
    assert _modules_after(code, tmp_path) == []


def test_cdf_gap_bound_loads_no_scipy(tmp_path):
    # the bound sums exact segments between its breakpoints; it has no
    # quadrature mode that would load scipy.integrate
    code = """
import numpy as np
from fscore import ScoreSample, cdf_gap_bound
cdf_gap_bound(lambda t: float(t >= 0.5), ScoreSample(values=np.array([0.2, 0.7])),
              0.5, breakpoints=[0.5])
"""
    assert _modules_after(code, tmp_path) == []


def test_knn_loads_scipy_spatial(tmp_path):
    code = """
import numpy as np
from fscore import KNNEstimate, LabeledDataset
KNNEstimate(LabeledDataset(points=np.eye(3), labels=[0, 1, 1]), k=1)
"""
    assert "scipy.spatial" in _modules_after(code, tmp_path)


def test_smooth_kernel_rate_loads_no_scipy(tmp_path):
    # the smooth family's crossing level is solved without scipy.optimize;
    # N = 600^2 takes the band path of the threshold solve
    code = """
from fscore import ExperimentConfig, run_experiment
for rule in ("n", "n2"):
    run_experiment(ExperimentConfig(n_grid=(200, 600), n_rule=rule, reps=1,
                                    oracle_atoms=2000))
"""
    assert _modules_after(code, tmp_path) == []
