"""End-to-end command-line checks: exit codes, formats, reproducibility."""

import filecmp
import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy

from monolift.cli import main
from monolift.core import parse_map_spec
from monolift.extension import extend_points, gaussian_extension, lattice_points
from monolift.tableio import csv_line

IDENTITY2 = '{"kind":"identity","dim":2}'
ROTATION = '{"kind":"planar_rotation","dim":2,"params":{"theta":0.7853981633974483}}'
POWER1 = '{"kind":"power_radial","dim":2,"params":{"p":1.0}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extend_single_point(capsys):
    code, out, err = run(capsys, "extend", "--spec", IDENTITY2, "--x", "1,2", "--t", "0.5")
    assert code == 0 and err == ""
    row = [float(v) for v in out.strip().split(",")]
    assert np.allclose(row, [1.0, 2.0, 0.5, 1.0, 2.0, 1.0], atol=1e-10)


def test_extend_single_point_boundary(capsys):
    code, out, _ = run(capsys, "extend", "--spec", IDENTITY2, "--x", "3,-4")
    assert code == 0
    row = [float(v) for v in out.strip().split(",")]
    assert row == [3.0, -4.0, 0.0, 3.0, -4.0, 0.0]


def test_extend_grid_csv_metadata(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "extend", "--spec", IDENTITY2, "--grid-nx", "3",
                     "--heights", "0.5", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# tool=monolift ")
    assert lines[1] == f"# numpy={np.__version__}"
    assert lines[2] == f"# scipy={scipy.__version__}"
    assert lines[3] == "# subcommand=extend"
    assert lines[4].startswith("# spec=")
    assert lines[5].startswith("# scheme=tensor_hermite:")
    assert lines[6].startswith("# seed=")
    assert lines[7] == "x1,x2,t,F1,F2,Fn1"
    assert len(lines) == 8 + 9


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_extend_grid_rows_are_the_batched_lift(capsys, fmt):
    bounds, nx, heights = (-1.5, 2.0), 4, (0.3, -1.0, 0.0, 2.5)
    code, out, _ = run(capsys, "extend", "--spec", POWER1, "--grid-bounds", *map(str, bounds),
                       "--grid-nx", str(nx), "--heights", *map(str, heights), "--format", fmt)
    assert code == 0
    X, T = lattice_points(2, bounds, nx, heights)
    field = gaussian_extension(parse_map_spec(POWER1))
    expected = np.column_stack([X, T, extend_points(field, X, T)])
    if fmt == "json":
        rows = np.array(json.loads(out)["rows"])
    else:  # format_float round-trips exactly
        body = [line for line in out.splitlines() if not line.startswith("#")][1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in body])
    assert rows.shape == expected.shape
    assert np.array_equal(rows, expected)


def test_extend_point_out_file_holds_the_printed_row(capsys, tmp_path):
    path = tmp_path / "point.csv"
    code, out, _ = run(capsys, "extend", "--spec", POWER1, "--x", "0.3,-1.2", "--t", "0.7",
                       "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[-2] == "x1,x2,t,F1,F2,Fn1"
    assert out == lines[-1] + "\n"
    field = gaussian_extension(parse_map_spec(POWER1))
    lifted = extend_points(field, np.array([[0.3, -1.2]]), np.array([0.7]))[0]
    assert [float(v) for v in lines[-1].split(",")] == [0.3, -1.2, 0.7, *lifted]


def test_extend_point_json_is_the_grid_document(capsys):
    point = ["extend", "--spec", POWER1, "--x", "0.3,-1.2", "--t", "0.7"]
    code, out, _ = run(capsys, *point, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["meta", "columns", "rows"]
    assert payload["columns"] == ["x1", "x2", "t", "F1", "F2", "Fn1"]
    assert payload["meta"]["scheme"] == "tensor_hermite:r20:seed0:dim2"
    field = gaussian_extension(parse_map_spec(POWER1))
    lifted = extend_points(field, np.array([[0.3, -1.2]]), np.array([0.7]))[0]
    assert payload["rows"] == [[0.3, -1.2, 0.7, *lifted]]   # JSON floats round-trip
    # the default stays the bare CSV row, the same with --format csv
    code, out_default, _ = run(capsys, *point)
    code_csv, out_csv, _ = run(capsys, *point, "--format", "csv")
    assert code == code_csv == 0
    assert out_default == out_csv == csv_line([0.3, -1.2, 0.7, *lifted]) + "\n"


def test_extend_grid_json(capsys):
    code, out, _ = run(capsys, "extend", "--spec", IDENTITY2, "--grid-nx", "3",
                       "--heights", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["x1", "x2", "t", "F1", "F2", "Fn1"]
    assert len(payload["rows"]) == 9
    assert payload["meta"]["subcommand"] == "extend"


@pytest.mark.parametrize("argv", [
    ["extend", "--spec", IDENTITY2, "--grid-nx", "2", "--heights", "1", "--format", "json"],
    ["jacobian", "--spec", IDENTITY2, "--x", "0,0", "--t", "1", "--format", "json"],
    ["claim-check", "--dims", "2", "--matrices", "5"],
    ["certify-delta", "--spec", IDENTITY2, "--pairs", "20"],
    ["doubling", "--dim", "2", "--radii", "1", "--format", "json"],
])
def test_json_artifacts_record_library_versions(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["numpy"] == np.__version__ and meta["scipy"] == scipy.__version__


def test_jacobian_csv_records_library_versions(capsys):
    code, out, _ = run(capsys, "jacobian", "--spec", IDENTITY2, "--x", "0,0", "--t", "1")
    assert code == 0
    header = out.splitlines()[0]
    assert header.endswith(f" numpy={np.__version__} scipy={scipy.__version__}")


def test_extend_rerun_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["extend", "--spec", POWER1, "--grid-nx", "5", "--heights", "0.5", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert filecmp.cmp(a, b, shallow=False)
    assert a.stat().st_size > 0


def test_jacobian_csv(capsys):
    code, out, _ = run(capsys, "jacobian", "--spec", IDENTITY2, "--x", "0,0", "--t", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# x=0,0 t=1.0 spec=")
    assert " scheme=tensor_hermite:" in lines[0]
    M = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(M, np.diag([1.0, 1.0, 2.0]), atol=1e-10)


def test_jacobian_json(capsys):
    code, out, _ = run(capsys, "jacobian", "--spec", ROTATION, "--x", "1,0", "--t", "0.5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    J = np.array(payload["jacobian"])
    assert J.shape == (3, 3)
    assert np.allclose(J[:2, :2], [[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
                                   [math.sin(math.pi / 4), math.cos(math.pi / 4)]], atol=1e-8)


def test_certify_delta_base_map(capsys):
    code, out, _ = run(capsys, "certify-delta", "--spec", ROTATION, "--pairs", "2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_hat"] == pytest.approx(math.cos(math.pi / 4), abs=1e-9)
    assert payload["samples"] == 2000
    assert payload["meta"]["lift"] == "none"


def test_certify_delta_gaussian_lift_survives_witnesses(capsys):
    code, out, _ = run(capsys, "certify-delta", "--spec", ROTATION, "--lift", "gaussian",
                       "--pairs", "200", "--crossing", "50", "--witness-radii", "25", "400")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_hat"] > 0.0


def test_certify_delta_trivial_lift_fails_witnesses(capsys):
    code, out, _ = run(capsys, "certify-delta", "--spec", POWER1, "--lift", "trivial",
                       "--pairs", "100", "--witness-radii", "400")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_hat"] <= 0.1


def test_certify_delta_rerun_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["certify-delta", "--spec", POWER1, "--pairs", "500", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert filecmp.cmp(a, b, shallow=False)


def test_certify_qs_csv_and_json(capsys):
    code, out, _ = run(capsys, "certify-qs", "--spec", IDENTITY2, "--triples", "400")
    assert code == 0
    lines = out.strip().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "s,q"
    code, out, _ = run(capsys, "certify-qs", "--spec", IDENTITY2, "--triples", "400",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["skipped"] == 0
    assert len(payload["bucket_edges"]) == 41


def test_claim_check_clean(capsys):
    code, out, _ = run(capsys, "claim-check", "--matrices", "300", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_violations"] == 0
    assert [d["dim"] for d in payload["dims"]] == [2, 3]


def test_claim_check_json_is_strict_when_nothing_qualifies(capsys):
    # no random matrix reaches delta = 1, so no worst gap exists; strict JSON
    # has no Infinity, and the gap is reported as null
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    code, out, _ = run(capsys, "claim-check", "--dims", "2", "--matrices", "10",
                       "--delta-floor", "1")
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["dims"] == [{"dim": 2, "sampled": 10, "qualified": 0, "violations": 0,
                                "worst_gap": None}]


def test_claim_check_rerun_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["claim-check", "--matrices", "200", "--dims", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert filecmp.cmp(a, b, shallow=False)


def test_doubling_lebesgue(capsys):
    code, out, _ = run(capsys, "doubling", "--dim", "2", "--centers", "0,0;1,1",
                       "--radii", "1,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["constant_hat"] == 4.0
    assert np.allclose(payload["ratios"], 4.0)


def test_doubling_density_csv(capsys):
    code, out, _ = run(capsys, "doubling", "--spec", POWER1, "--centers", "0,0",
                       "--radii", "1")
    assert code == 0
    lines = out.strip().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "cx,cy,r,mass,mass2x,ratio"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[-1] == pytest.approx(8.0, abs=1e-12)


def test_moments(capsys):
    code, out, _ = run(capsys, "moments", "--dim", "2", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] == pytest.approx(2.0, abs=1e-10)
    assert payload["ratio"] == pytest.approx(2.0 / math.pi, abs=1e-10)


def test_moments_halfspace(capsys):
    code, out, _ = run(capsys, "moments", "--dim", "2", "--p", "0", "--halfspace", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] == pytest.approx(0.5, abs=1e-12)


def test_hyperbolic_grid(capsys):
    code, out, _ = run(capsys, "hyperbolic", "--spec", IDENTITY2, "--grid-nx", "3",
                       "--heights", "0.5", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spread"] == pytest.approx(1.0, abs=1e-8)


def test_hyperbolic_pairs(capsys):
    code, out, _ = run(capsys, "hyperbolic", "--spec", POWER1, "--pairs", "60")
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["lower"] <= payload["upper"]
    assert payload["pairs"] == 60


def test_hyperbolic_default_formats(capsys):
    # sampled pairs print JSON with or without --format json; the grid prints CSV
    pairs = ["hyperbolic", "--spec", IDENTITY2, "--pairs", "3"]
    grid = ["hyperbolic", "--spec", IDENTITY2, "--grid-nx", "2", "--heights", "1"]
    outs = [run(capsys, *argv) for argv in (pairs, pairs + ["--format", "json"],
                                             grid, grid + ["--format", "csv"])]
    assert [code for code, _, _ in outs] == [0] * 4
    assert outs[0][1] == outs[1][1] and json.loads(outs[0][1])["pairs"] == 3
    assert outs[2][1] == outs[3][1] and outs[2][1].startswith("#")


def test_hyperbolic_probe_at_a_singular_point(capsys):
    # at x = (-sqrt 2, 0), t = 1 one probe point x + sqrt(n) t e_1 of the
    # rounding bound is the origin, where |x|^(-1/2) x has no differential;
    # the lift and DF never evaluate Df there, so the row is kept
    spec = '{"kind":"power_radial","dim":2,"params":{"p":-0.5}}'
    code, out, err = run(capsys, "hyperbolic", "--spec", spec, "--grid-bounds",
                         repr(-math.sqrt(2)), repr(math.sqrt(2)), "--grid-nx", "3",
                         "--heights", "1")
    assert code == 0 and err == ""
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    header, rows = lines[0].split(","), [list(map(float, r.split(","))) for r in lines[1:]]
    assert len(rows) == 9
    assert all(row[header.index("fvert")] > 0.0 for row in rows)


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_hyperbolic_pairs_scale_invariant(capsys, scale):
    # the lift of c I is c (x, n t) and the hyperbolic metric is invariant
    # under dilation, so image points near 1e200 compare as those of I do
    def pairs(c):
        spec = json.dumps({"kind": "linear", "dim": 2, "params": {"matrix": [[c, 0.0], [0.0, c]]}})
        code, out, err = run(capsys, "hyperbolic", "--spec", spec, "--pairs", "5")
        assert code == 0 and err == ""
        return json.loads(out)

    base, scaled = pairs(1.0), pairs(scale)
    for key in ("lower", "upper"):
        assert scaled[key] == pytest.approx(base[key], rel=0.0, abs=1e-12)


def test_demo_composition(capsys):
    code, out, _ = run(capsys, "demo-composition", "--theta1", str(math.pi / 3),
                       "--theta2", str(math.pi / 3), "--pairs", "500")
    assert code == 0
    payload = json.loads(out)
    assert payload["flagged_non_monotone"] is True
    assert payload["delta_composed_matrix"] == pytest.approx(-0.5, abs=1e-6)


def test_demo_trivial_failure_refutes(capsys):
    code, out, _ = run(capsys, "demo-trivial-failure", "--pairs", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["refuted"] is True
    assert payload["delta_hat"] <= 0.1


def test_demo_trivial_failure_unrefuted_exits_2(capsys):
    # witness radius 2 is far too small to push the ratio under 0.001
    code, out, _ = run(capsys, "demo-trivial-failure", "--pairs", "50",
                       "--witness-radii", "2", "--threshold", "0.001")
    assert code == 2
    payload = json.loads(out)
    assert payload["refuted"] is False


def test_scheme_seed_alone_reseeds_the_default_scheme(capsys, tmp_path):
    spec = '{"kind":"power_radial","dim":4,"params":{"p":1}}'
    point = ["extend", "--spec", spec, "--x", "0.5,0,0,0", "--t", "1"]
    code0, out0, _ = run(capsys, *point)
    code3, out3, _ = run(capsys, *point, "--scheme-seed", "3", "--out", str(tmp_path / "s3.csv"))
    assert code0 == code3 == 0
    assert out3 != out0
    assert "# scheme=quasi_random:r65536:seed3:dim4\n" in (tmp_path / "s3.csv").read_text()
    # with all three flags the same scheme is built
    code, out, _ = run(capsys, *point, "--method", "quasi_random", "--resolution", "65536",
                       "--scheme-seed", "3")
    assert code == 0 and out == out3


@pytest.mark.parametrize("argv", [
    ["extend", "--spec", "no_such_file.json", "--x", "0,0"],
    ["extend", "--spec", '{"kind":"warp","dim":2}', "--x", "0,0"],
    ["extend", "--spec", "{not json", "--x", "0,0"],
    ["extend", "--spec", IDENTITY2, "--x", "0,0,0"],
    ["extend", "--spec", IDENTITY2, "--x", "zero,0"],
    ["jacobian", "--spec", IDENTITY2, "--x", "0,0", "--t", "0"],
    # Gauss-Hermite weights of order 400 are not finite
    ["extend", "--spec", '{"kind":"identity","dim":1}', "--x", "0.5", "--t", "1",
     "--resolution", "400"],
    # the boundary value f(x) at t = 0 overflows
    ["extend", "--spec", POWER1, "--x", "1e200,0", "--t", "0"],
    # 300^3 tensor nodes break the memory budget
    ["extend", "--spec", '{"kind":"identity","dim":3}', "--x", "0,0,0", "--t", "1",
     "--resolution", "300"],
    # Gaussian moments that overflow, of Lebesgue measure and of a ||Df|| density
    ["moments", "--dim", "2", "--p", "2000"],
    ["moments", "--spec", POWER1, "--p", "1000"],
    # a floor outside (0, 1], the domain of c(delta)
    ["claim-check", "--matrices", "10", "--delta-floor", "nan"],
    # a separation range that is reversed, or whose radii 10^u overflow
    ["certify-delta", "--spec", IDENTITY2, "--log-radius", "3", "-3"],
    ["certify-delta", "--spec", IDENTITY2, "--log-radius", "0", "400"],
    # counts below one and empty lists
    ["claim-check", "--dims", "0"],
    ["claim-check", "--matrices", "-5"],
    ["hyperbolic", "--spec", IDENTITY2, "--grid-nx", "0"],
    ["extend", "--spec", IDENTITY2, "--grid-nx", "0"],
    ["hyperbolic", "--spec", IDENTITY2, "--pairs", "-3"],
    ["certify-delta", "--spec", IDENTITY2, "--pairs", "-1"],
    ["certify-qs", "--spec", IDENTITY2, "--triples", "-1"],
    ["certify-qs", "--spec", IDENTITY2, "--buckets", "0"],
    ["demo-composition", "--theta1", "0.1", "--theta2", "0.2", "--pairs", "-1"],
    ["doubling", "--radii", ","],
    ["demo-trivial-failure", "--witness-radii", "0"],
    # a dimension list item that is not an integer, and an empty center list
    ["claim-check", "--dims", "2.6", "--matrices", "5"],
    ["doubling", "--centers", ";", "--radii", "1"],
    # non-finite centres under Lebesgue measure, where every ball has a volume
    ["doubling", "--dim", "2", "--centers", "nan,0", "--radii", "1"],
    ["doubling", "--dim", "2", "--centers", "inf,0", "--radii", "1"],
    # normals that define no half-space
    ["moments", "--dim", "2", "--halfspace", "nan,0"],
    ["moments", "--dim", "2", "--halfspace", "0,0"],
    # a threshold no ratio can be compared with, and one JSON cannot hold
    ["demo-trivial-failure", "--pairs", "50", "--threshold", "nan"],
    ["demo-trivial-failure", "--pairs", "50", "--threshold", "inf"],
    # negative scheme seeds, for a Sobol rule asked for and a default one
    ["extend", "--spec", POWER1, "--x", "0.3,-1.2", "--t", "0.7", "--method", "quasi_random",
     "--resolution", "64", "--scheme-seed", "-1"],
    ["moments", "--dim", "4", "--p", "2", "--scheme-seed", "-2"],
    # negative sampling seeds, checked before numpy's generator sees them
    ["claim-check", "--dims", "2", "--matrices", "5", "--seed", "-1"],
    ["certify-delta", "--spec", IDENTITY2, "--pairs", "10", "--seed", "-1"],
    ["certify-qs", "--spec", IDENTITY2, "--triples", "10", "--seed", "-1"],
    ["hyperbolic", "--spec", IDENTITY2, "--pairs", "5", "--seed", "-1"],
    ["demo-composition", "--theta1", "0.1", "--theta2", "0.2", "--pairs", "10", "--seed", "-1"],
    ["demo-trivial-failure", "--pairs", "10", "--seed", "-1"],
    # a ragged center list, and grid bounds numpy cannot space
    ["doubling", "--dim", "2", "--centers", "0,0;1", "--radii", "1"],
    ["extend", "--spec", IDENTITY2, "--grid-bounds", "-1", "inf", "--grid-nx", "2"],
    ["hyperbolic", "--spec", IDENTITY2, "--grid-bounds", "-1", "inf", "--grid-nx", "2"],
    # 2^37 Sobol nodes break the memory budget both rules share
    ["moments", "--dim", "2", "--method", "quasi_random", "--resolution", "100000000000"],
    # a Sobol rule past the direction table's 21201 dimensions, and a ball
    # rule whose 2^15 cube points in dim 2000 break the budget
    ["moments", "--dim", "21202", "--method", "quasi_random", "--resolution", "16"],
    ["doubling", "--dim", "2000", "--centers=" + ",".join(["0"] * 2000)],
    # lattices and samples that break the same budget, checked before allocating
    ["extend", "--spec", '{"kind":"identity","dim":3}', "--grid-nx", "3000"],
    ["hyperbolic", "--spec", '{"kind":"identity","dim":3}', "--grid-nx", "3000"],
    ["claim-check", "--dims", "2", "--matrices", "10000000000"],
    ["certify-delta", "--spec", POWER1, "--pairs", "10000000000"],
    ["certify-qs", "--spec", POWER1, "--triples", "10000000000"],
    ["certify-qs", "--spec", POWER1, "--buckets", "100000000000"],
    ["hyperbolic", "--spec", IDENTITY2, "--pairs", "10000000000"],
    # sampled pairs are reported in JSON only
    ["hyperbolic", "--spec", IDENTITY2, "--pairs", "3", "--format", "csv"],
])
def test_input_errors_exit_1(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["extend"],                       # missing required --spec
    ["certify-delta", "--spec", IDENTITY2, "--lift", "sideways"],
    ["extend", "--spec", IDENTITY2, "--threads", "2"],
    # the commands that write only JSON take no other format
    ["certify-delta", "--spec", IDENTITY2, "--pairs", "10", "--format", "csv"],
    ["claim-check", "--dims", "2", "--matrices", "10", "--format", "csv"],
    ["moments", "--dim", "2", "--format", "csv"],
    ["demo-composition", "--theta1", "0.1", "--theta2", "0.2", "--format", "csv"],
    ["demo-trivial-failure", "--pairs", "10", "--format", "csv"],
])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    capsys.readouterr()
    assert info.value.code == 1


def _scaling(c):
    return {"kind": "linear", "dim": 2, "params": {"matrix": [[c, 0.0], [0.0, c]]}}


def _sampled_overflows():
    """certify-qs and certify-delta --lift none|trivial on maps that overflow
    on the sampling box: 1e308 I, the quartic with b = 1e308, |x|^300 x and
    two composed 1e200 scalings, with the triples and pairs that overflow."""
    specs = [(_scaling(1e308), (200, 200, 200)),
             ({"kind": "convex_gradient_quartic", "dim": 2, "params": {"a": 1.0, "b": 1e308}},
              (200, 200, 200)),
             ({"kind": "power_radial", "dim": 2, "params": {"p": 300.0}}, (196, 194, 188)),
             ({"kind": "composition", "dim": 2, "compose": [_scaling(1e200)] * 2},
              (200, 200, 200))]
    for spec, (qs, none, trivial) in specs:
        spec = json.dumps(spec)
        yield (["certify-qs", "--spec", spec, "--triples", "200"],
               "triple separations overflow: |f(x) - f(z)| or |f(y) - f(z)| "
               f"is not finite for {qs} of 200 triples")
        for lift, k in (("none", none), ("trivial", trivial)):
            yield (["certify-delta", "--spec", spec, "--pairs", "200", "--lift", lift],
                   "pair separations overflow: |F(a) - F(b)| |a - b| or <F(a) - F(b), a - b> "
                   f"is not finite for {k} of 200 pairs")


@pytest.mark.parametrize("argv, message", [
    (["extend", "--spec", POWER1, "--x", "1e200,0", "--t", "0"],
     "row 0: map evaluation at t = 0 overflowed"),
    (["extend", "--spec", POWER1, "--x", "1e200,0", "--t", "1"],
     "row 0: map evaluation at a quadrature node overflowed"),
    (["extend", "--spec", POWER1, "--x", "1e154,0", "--t", "1"],
     "row 0: Gaussian average overflowed"),
    (["jacobian", "--spec", POWER1, "--x", "1e200,0", "--t", "1"],
     "row 0: base Jacobian at a quadrature node overflowed"),
    # a non-finite Df must not reach the SVD, which fails to converge on it
    (["doubling", "--spec", POWER1, "--centers", "0,0", "--radii", "1e200"],
     "the map's Jacobian overflowed at an integration point"),
    (["doubling", "--dim", "2", "--radii", "1e300"],
     "ball masses must be finite and positive"),
    # sampling ranges are checked before any sampling
    (["certify-delta", "--spec", IDENTITY2, "--box", "nan"],
     "box must be finite and positive, got nan"),
    (["certify-qs", "--spec", IDENTITY2, "--box", "inf"],
     "box must be finite and positive, got inf"),
    # separations near 1e300 square past the float range
    (["certify-delta", "--spec", IDENTITY2, "--pairs", "100", "--log-radius", "300", "301"],
     "pair separations overflow: |F(a) - F(b)| |a - b| or <F(a) - F(b), a - b> "
     "is not finite for 100 of 100 pairs"),
    # offsets of 10^-3 would round away against base points near 1e17
    (["certify-delta", "--spec", IDENTITY2, "--box", "1e17", "--pairs", "100"],
     "box 1e+17 is too large for separations down to 0.001: "
     "its ulp 16 must be at most 2^-26 of the smallest separation"),
    (["certify-qs", "--spec", IDENTITY2, "--box", "1e17"],
     "box 1e+17 is too large for separations down to 0.001: "
     "its ulp 16 must be at most 2^-26 of the smallest separation"),
    # non-finite input is reported as such, not as an overflow at the nodes
    (["jacobian", "--spec", IDENTITY2, "--x", "nan,0", "--t", "1"],
     "row 0: points and heights must be finite"),
    (["jacobian", "--spec", IDENTITY2, "--x", "inf,0", "--t", "1"],
     "row 0: points and heights must be finite"),
    (["jacobian", "--spec", IDENTITY2, "--x", "0,0", "--t", "nan"],
     "row 0: points and heights must be finite"),
    # no pairs at all is a bad count, not a map that collapses every pair
    (["certify-delta", "--spec", IDENTITY2, "--pairs", "0"],
     "at least one pair must be sampled"),
    # list input that names its own fault
    (["claim-check", "--dims", "2.6", "--matrices", "5"],
     "expected a comma-separated integer list, got '2.6'"),
    (["doubling", "--centers", ";", "--radii", "1"], "no center was given in ';'"),
    # a Sobol rule past the direction table
    (["moments", "--dim", "21202", "--method", "quasi_random", "--resolution", "16"],
     "Sobol rules have at most 21201 dimensions, got 21202"),
    # a map that overflows at the sampled points
    *_sampled_overflows(),
    # no cube point of the ball rule falls inside the ball past dim 13
    (["moments", "--dim", "14"],
     "the ball rule in dimension 14 keeps none of its 32768 cube points inside the unit ball"),
    (["doubling", "--dim", "14", "--centers", ",".join(["0"] * 14)],
     "the ball rule in dimension 14 keeps none of its 32768 cube points inside the unit ball"),
])
def test_overflow_error_is_the_only_stderr_line(argv, message):
    # the program's own finite check reports the overflow; no numpy
    # RuntimeWarning may precede it on the real stderr
    proc = subprocess.run(
        [sys.executable, "-m", "monolift", *argv],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"monolift: error: {message}\n"


def test_quasi_random_resolution_prints_no_library_warning():
    # 1000 rounds up to 1024 Sobol points, a power of two, as their balance needs
    proc = subprocess.run(
        [sys.executable, "-m", "monolift", "extend", "--spec", POWER1, "--x", "0.3,-1.2",
         "--t", "0.7", "--method", "quasi_random", "--resolution", "1000"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "monolift", "extend", "--spec", IDENTITY2,
         "--x", "1,2", "--t", "0.5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    row = [float(v) for v in proc.stdout.strip().split(",")]
    assert np.allclose(row, [1.0, 2.0, 0.5, 1.0, 2.0, 1.0], atol=1e-10)
