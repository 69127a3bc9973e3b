"""Golden bytes of every CSV file the package writes, and their read-back."""

import hashlib
import warnings

import numpy as np
import pytest

import fscore as fs
from fscore.harness import RateFitResult, emit_report
from fscore.plugin import predictions_to_csv
from fscore.table import read_table, write_table


def test_labeled_csv_bytes(tmp_path):
    path = tmp_path / "labeled.csv"
    data = fs.LabeledDataset(points=np.array([[0.1, 2.0], [1e-5, -3.5]]),
                             labels=np.array([1.0, 0.0]))
    data.to_csv(path)
    assert path.read_bytes() == b"x_1,x_2,y\r\n0.1,2.0,1\r\n1e-05,-3.5,0\r\n"
    back = fs.LabeledDataset.from_csv(path)
    np.testing.assert_array_equal(back.points, data.points)
    np.testing.assert_array_equal(back.labels, data.labels)


def test_unlabeled_csv_bytes(tmp_path):
    path = tmp_path / "unlabeled.csv"
    fs.UnlabeledDataset(points=np.array([[0.1, 2.0], [1 / 3, -0.0]])).to_csv(path)
    assert path.read_bytes() == b"x_1,x_2\r\n0.1,2.0\r\n0.3333333333333333,-0.0\r\n"
    np.testing.assert_array_equal(fs.UnlabeledDataset.from_csv(path).points,
                                  [[0.1, 2.0], [1 / 3, -0.0]])


def test_header_only_unlabeled_csv(tmp_path):
    path = tmp_path / "empty.csv"
    fs.UnlabeledDataset(points=np.zeros((0, 2))).to_csv(path)
    assert path.read_bytes() == b"x_1,x_2\r\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = fs.UnlabeledDataset.from_csv(path)
    assert back.points.shape == (0, 2)


def test_read_table_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file, expected a header line"):
        read_table(path)


def test_read_table_rejects_rows_wider_than_the_header(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("x_1,y\r\n0.1,1,5\r\n0.2,0,6\r\n")
    with pytest.raises(ValueError, match="3 columns under a header of 2"):
        read_table(path)


def test_labeled_csv_needs_a_trailing_label_column(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text("y,x_1\r\n1,0.1\r\n")
    with pytest.raises(ValueError, match="expected trailing column 'y'"):
        fs.LabeledDataset.from_csv(path)


def test_predictions_csv_bytes(tmp_path):
    path = tmp_path / "preds.csv"
    predictions_to_csv(path, np.array([[0.1, 5.0], [0.9, 1e20]]), np.array([0, 1]))
    assert path.read_bytes() == b"x_1,x_2,prediction\r\n0.1,5.0,0\r\n0.9,1e+20,1\r\n"


def test_table_bytes_across_blocks(tmp_path):
    # 8193 rows cross the 8192-row block that is formatted per write; float,
    # int, bool and None columns.  The digest is that of the rows formatted
    # one at a time, as ",".join(map(repr, row)) + "\r\n"
    path = tmp_path / "blocks.csv"
    i = np.arange(8193)
    write_table(path, ["f", "i", "b", "none"],
                [i / 7.0 - 500.0, (i * 37) % 1001 - 500, i % 3 == 0, [None] * 8193])
    data = path.read_bytes()
    assert data.startswith(b"f,i,b,none\r\n-500.0,-500,True,None\r\n"
                           b"-499.85714285714283,-463,False,None\r\n")
    assert data.endswith(b"\r\n670.1428571428571,265,False,None\r\n"
                         b"670.2857142857142,302,False,None\r\n")
    assert data.count(b"\r\n") == 8194 and len(data) == 271086
    assert hashlib.sha256(data).hexdigest() == \
        "a9e072087974358aa7d6f688d4f1c2a85821482273b9c75d9c7797cb5380c491"


def test_discrete_distribution_csv_bytes(tmp_path):
    path = tmp_path / "dist.csv"
    dist = fs.DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                   mass=np.array([0.25, 0.75]),
                                   eta=np.array([0.8, 0.4]))
    dist.to_csv(path)
    assert path.read_bytes() == b"x_1,mass,eta\r\n0.0,0.25,0.8\r\n1.0,0.75,0.4\r\n"


def _rate_result(**fit):
    rows = [{"n": 100, "N": 10_000, "reps_valid": 50, "mean": 0.5, "se": 0.1,
             "median": 0.25, "zero_fraction": 0.0},
            {"n": 200, "N": 40_000, "reps_valid": 49, "mean": 1e-05, "se": 0.0,
             "median": 2e-06, "zero_fraction": 0.2}]
    return RateFitResult(kind="excess", rows=rows, config={}, **fit)


@pytest.mark.parametrize("fit, fit_line", [
    (dict(slope=-0.5, intercept=1.25, slope_halfwidth=0.125,
          theory_slope=-2 / 3, excluded_cells=0, inf_rate=False),
     b"-0.5,1.25,0.125,-0.6666666666666666,0,False\r\n"),
    (dict(slope=float("nan"), intercept=float("nan"),
          slope_halfwidth=float("nan"), theory_slope=None, excluded_cells=2,
          inf_rate=True),
     b"nan,nan,nan,None,2,True\r\n"),
])
def test_rate_table_csv_bytes(tmp_path, fit, fit_line):
    table, fit_table = emit_report(_rate_result(**fit), "csv", str(tmp_path))
    assert open(table, "rb").read() == (
        b"n,N,reps_valid,mean,se,median,zero_fraction\r\n"
        b"100,10000,50,0.5,0.1,0.25,0.0\r\n"
        b"200,40000,49,1e-05,0.0,2e-06,0.2\r\n")
    assert open(fit_table, "rb").read() == (
        b"slope,intercept,slope_halfwidth,theory_slope,excluded_cells,inf_rate\r\n"
        + fit_line)


def test_dkw_table_csv_bytes(tmp_path):
    rows = [{"N": 100, "t": 0.05, "frequency": 0.5, "bound": 1.0, "se": 0.01},
            {"N": 1000, "t": 0.1, "frequency": 0.0, "bound": 4.122307244877116e-09,
             "se": 0.0}]
    (path,) = emit_report(rows, "csv", str(tmp_path))
    assert open(path, "rb").read() == (
        b"N,t,frequency,bound,se\r\n"
        b"100,0.05,0.5,1.0,0.01\r\n"
        b"1000,0.1,0.0,4.122307244877116e-09,0.0\r\n")
