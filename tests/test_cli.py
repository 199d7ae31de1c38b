import json
import math
import time

import numpy as np
import pytest

from srlab import cli
from srlab.cli import run
from srlab.group import MetivierStructure

from conftest import quaternion_maps


def invoke(args, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = run(args + ["--output", str(path)])
    return code, path.read_bytes() if path.exists() else b""


def test_unknown_command_usage_exit():
    assert run(["definitely-not-a-command"]) == 64
    assert run(["spectrum", "--alpha", "3", "--bogus-flag", "1"]) == 64


def test_validation_exit(tmp_path, capsys):
    code = run(["potential", "--alpha", "-1"])
    assert code == 1
    code = run(["potential", "--alpha", "2", "--structure", str(tmp_path / "missing.json")])
    assert code == 1
    capsys.readouterr()
    assert run(["verify", "--samples", "0"]) == 1
    assert "samples must be >= 1" in capsys.readouterr().err


def test_verify_runs_clean(tmp_path):
    code, payload = invoke(["verify", "--samples", "2000", "--seed", "1"], tmp_path)
    assert code == 0
    text = payload.decode()
    assert "# command = verify" in text
    assert "associativity" in text and "FAIL" not in text


def test_gamma_output(tmp_path):
    code, payload = invoke(["gamma", "--samples", "5000"], tmp_path, "g.json")
    assert code == 0
    doc = json.loads(payload)
    assert doc["gamma_hat"] >= 1.0
    assert "lower bound" in doc["config"]["note"]


def test_potential_csv_columns(tmp_path):
    code, payload = invoke(
        ["potential", "--alpha", "3", "--lx", "1.5", "--lt", "1.5",
         "--nx", "4", "--nt", "4"], tmp_path, "p.csv")
    assert code == 0
    lines = payload.decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "x1,x2,t1,N,grad_norm_sq,LN,V_alpha,lower_bound,upper_bound"
    first = [ln for ln in lines if not ln.startswith("#")][1].split(",")
    assert len(first) == 9
    # 17 significant digits round-trip
    val = float(first[6])
    assert f"{val:.17g}" == first[6]


def test_potential_points_file(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("1.0,0.0,0.0\n0.0,0.0,1.0\n")
    code, payload = invoke(["potential", "--alpha", "2", "--points", str(pts)],
                           tmp_path, "p2.csv")
    assert code == 0
    rows = [ln for ln in payload.decode().splitlines() if not ln.startswith("#")][1:]
    v = float(rows[0].split(",")[6])
    assert v == pytest.approx(-3.0, abs=1e-12)
    pts.write_text("1.0,0.0\n")
    code, payload = invoke(["potential", "--alpha", "2", "--points", str(pts)],
                           tmp_path, "p3.csv")
    assert code == 1 and payload == b""
    assert "points file must have 3 columns" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_potential_points_non_finite(tmp_path, capsys, bad):
    """A points file with a non-finite coordinate exits 1 naming the file, not
    with a NaN found later in the output."""
    pts = tmp_path / "pts.csv"
    pts.write_text(f"1.0,0.0,0.0\n0.0,{bad},1.0\n")
    code, payload = invoke(["potential", "--alpha", "2", "--points", str(pts)],
                           tmp_path, "p4.csv")
    assert code == 1 and payload == b""
    assert f"points file {pts} holds a non-finite coordinate" in capsys.readouterr().err


def test_weyl_refuses_grid_beyond_physical_memory(tmp_path, capsys):
    """--grid 64 on the quaternion structure puts 7.1e11 of its 64^7 base nodes in
    the bump's support, 11 TB of psi and L psi: refused with exit 1 before any
    sampling, and nothing on stdout."""
    sf = tmp_path / "quaternion.json"
    sf.write_text(MetivierStructure(n=2, m=3, maps=quaternion_maps(), h_type=True).to_json())
    assert run(["weyl", "--structure", str(sf), "--alpha", "2", "--grid", "64"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "physical memory" in err


def test_structure_json_loading(tmp_path):
    s = MetivierStructure(n=1, m=1, maps=np.array([[[0.0, 1.0], [-1.0, 0.0]]]),
                          h_type=True)
    sf = tmp_path / "heis.json"
    sf.write_text(s.to_json())
    code, payload = invoke(["gamma", "--structure", str(sf), "--samples", "100"],
                           tmp_path, "g2.json")
    assert code == 0


def test_spectrum_json(tmp_path):
    code, payload = invoke(
        ["spectrum", "--alpha", "3", "--lx", "2", "--lt", "2", "--nx", "6",
         "--nt", "6", "--k", "5", "--tol", "1e-8"], tmp_path, "s.json")
    assert code == 0
    doc = json.loads(payload)
    ev = doc["eigenvalues"]
    assert len(ev) == 5 and all(a <= b for a, b in zip(ev, ev[1:]))
    assert all(r <= 1e-8 for r in doc["residuals"])
    assert doc["config"]["k"] == 5


def test_spectrum_nonconvergence_exit(tmp_path):
    code, payload = invoke(
        ["spectrum", "--alpha", "3", "--lx", "2", "--lt", "2", "--nx", "8",
         "--nt", "8", "--k", "5", "--tol", "1e-12", "--max-iter", "8"],
        tmp_path, "s2.json")
    assert code == 2
    doc = json.loads(payload)
    assert doc["converged"] is False


def test_spectrum_non_finite_input_exit(tmp_path):
    base = ["spectrum", "--alpha", "3", "--lx", "1", "--lt", "1", "--nx", "4", "--nt", "4"]
    for flag in ("--alpha", "--lx", "--lt", "--tol"):
        code, payload = invoke(base + [flag, "nan"], tmp_path, f"{flag[2:]}.json")
        assert code == 1 and payload == b"", flag


def test_json_output_is_strict(tmp_path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, payload = invoke(["potential", "--alpha", "nan", "--format", "json"],
                           tmp_path, "nan.json")
    assert code == 1 and payload == b""
    code, payload = invoke(
        ["spectrum", "--alpha", "3", "--lx", "2", "--lt", "2", "--nx", "8",
         "--nt", "8", "--k", "5", "--tol", "1e-12", "--max-iter", "8"],
        tmp_path, "inf.json")
    assert code == 2
    doc = json.loads(payload, parse_constant=reject)
    assert "inf" in doc["residuals"]


def test_thinness_json(tmp_path):
    code, payload = invoke(
        ["thinness", "--alpha", "3", "--m-level", "10", "--r", "1", "--ell", "2",
         "--truncation", "16", "--outer", "400", "--inner", "60"], tmp_path, "t.json")
    assert code == 0
    doc = json.loads(payload)
    est = doc["estimate"]
    assert est["tail_finite"] is True
    assert est["value"] >= 0.0
    assert 0 < est["evaluated"] <= est["members"] <= 400     # member counts reach the output
    assert doc["config"]["truncation"] == 16
    # one outer sample: standard error 0, not a NaN that strict JSON refuses
    code, payload = invoke(
        ["thinness", "--alpha", "3", "--m-level", "10", "--ell", "2",
         "--truncation", "16", "--outer", "1", "--inner", "60"], tmp_path, "t1.json")
    assert code == 0 and json.loads(payload)["estimate"]["std_error"] == 0.0


def test_weyl_csv(tmp_path):
    code, payload = invoke(
        ["weyl", "--alpha", "1", "--n-max", "8", "--grid", "16"], tmp_path, "w.csv")
    assert code == 0
    lines = payload.decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "n,residual,bound,psi_norm"
    assert any(ln.startswith("# lambda") for ln in lines)  # resolved default echoed
    # the dyadic indices up to --n-max, and --n-max itself when it is not dyadic
    code, payload = invoke(
        ["weyl", "--alpha", "1", "--n-max", "6", "--grid", "8"], tmp_path, "w6.csv")
    rows = [ln for ln in payload.decode().splitlines() if not ln.startswith("#")][1:]
    assert code == 0 and [int(r.split(",")[0]) for r in rows] == [2, 4, 6]
    code, payload = invoke(["weyl", "--alpha", "1", "--n-max", "1"], tmp_path, "w1.csv")
    assert code == 1 and payload == b""


def test_weyl_seed_reaches_nothing(tmp_path, aniso):
    """Off H-type too the Weyl scan samples nothing: --seed 1 and --seed 2
    give the same rows."""
    sf = tmp_path / "aniso.json"
    sf.write_text(aniso.to_json())
    rows = []
    for seed in ("1", "2"):
        code, payload = invoke(["weyl", "--structure", str(sf), "--alpha", "1.5", "--n-max", "4",
                                "--grid", "8", "--seed", seed], tmp_path, f"w{seed}.csv")
        assert code == 0
        rows.append([ln for ln in payload.decode().splitlines() if not ln.startswith("#")])
    assert rows[0] == rows[1] and len(rows[0]) == 3


def test_weyl_default_grid_scales_with_the_structure(tmp_path, aniso):
    """Without --grid the per-axis count is the largest even g <= 48 with
    g^(2n+m) <= 48^3, and the config records it: aniso (2n+m = 5) gets 10 and
    finishes in seconds (48 per axis, 255M nodes, ran for minutes); Heisenberg
    keeps 48, byte for byte as an explicit --grid 48."""
    sf = tmp_path / "aniso.json"
    sf.write_text(aniso.to_json())
    start = time.perf_counter()
    code, payload = invoke(["weyl", "--structure", str(sf), "--alpha", "1"], tmp_path, "wa.csv")
    assert code == 0 and time.perf_counter() - start < 30.0
    assert "# grid = 10\n" in payload.decode()
    assert cli._default_weyl_grid(MetivierStructure(n=2, m=3, maps=quaternion_maps(),
                                                    h_type=True)) == 4
    code, default = invoke(["weyl", "--alpha", "1", "--n-max", "4"], tmp_path, "wh.csv")
    _, explicit = invoke(["weyl", "--alpha", "1", "--n-max", "4", "--grid", "48"],
                         tmp_path, "wg.csv")
    assert code == 0 and "# grid = 48\n" in default.decode() and default == explicit


def test_byte_reproducibility(tmp_path):
    cmds = [
        ["verify", "--samples", "500", "--seed", "3"],
        ["gamma", "--samples", "2000", "--seed", "5"],
        ["potential", "--alpha", "2.5", "--nx", "4", "--nt", "4"],
        ["weyl", "--alpha", "1.5", "--n-max", "4", "--grid", "12"],
        ["spectrum", "--alpha", "3", "--lx", "2", "--lt", "2", "--nx", "5",
         "--nt", "6", "--k", "3"],
        ["thinness", "--alpha", "3", "--m-level", "10", "--ell", "2",
         "--truncation", "8", "--outer", "200", "--inner", "40"],
    ]
    for i, cmd in enumerate(cmds):
        for fmt in ("csv", "json"):
            _, a = invoke(cmd + ["--format", fmt], tmp_path, f"a{i}.{fmt}")
            _, b = invoke(cmd + ["--format", fmt], tmp_path, f"b{i}.{fmt}")
            assert a == b and len(a) > 0, (cmd[0], fmt)


def test_non_finite_alpha_and_level_exit(tmp_path):
    cmds = {
        "potential": ["potential", "--alpha", "nan", "--nx", "4", "--nt", "4"],
        "weyl": ["weyl", "--alpha", "nan", "--n-max", "4", "--grid", "8"],
        "thinness": ["thinness", "--alpha", "3", "--m-level", "nan", "--ell", "2",
                     "--outer", "50", "--inner", "10"],
    }
    for name, cmd in cmds.items():
        code, payload = invoke(cmd, tmp_path, f"{name}.csv")
        assert code == 1 and payload == b"", name
    code, payload = invoke(["potential", "--alpha", "inf", "--nx", "4", "--nt", "4"],
                           tmp_path, "inf.csv")
    assert code == 1 and payload == b""
    thinness = ["thinness", "--alpha", "3", "--m-level", "10", "--ell", "2",
                "--outer", "50", "--inner", "10", "--format", "csv"]
    weyl = ["weyl", "--alpha", "3", "--n-max", "4", "--grid", "8"]
    bad = [thinness + ["--ell", "nan"], thinness + ["--r", "nan"],
           thinness + ["--truncation", "nan"], thinness + ["--truncation", "inf"],
           weyl + ["--lambda", "nan"], weyl + ["--lambda", "inf"]]
    for i, cmd in enumerate(bad):
        code, payload = invoke(cmd, tmp_path, f"bad{i}.csv")
        assert code == 1 and payload == b"", cmd


def test_csv_output_refuses_nan():
    with pytest.raises(ValueError, match="NaN"):
        cli._csv({"alpha": 3.0}, ["value"], [(float("nan"),)])
    assert cli._csv({}, ["value"], [(float("inf"),)]) == "value\ninf\n"


def test_csv_block_matches_per_value_format(tmp_path):
    """An ndarray block is formatted byte for byte as the per-value rows are."""
    edge = [0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, float("inf"),
            float("-inf"), 1.0, -3.0, 2.0 ** 53, 1e16, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(0)
    count = 100_000 - len(edge)
    spread = rng.standard_normal(count) * 10.0 ** rng.uniform(-300, 300, count)
    block = np.concatenate([edge, spread]).reshape(-1, 4)
    header = ["a", "b", "c", "d"]
    config = {"alpha": 2.5}
    fast = cli._csv(config, header, block).splitlines()
    slow = cli._csv(config, header, [tuple(r) for r in block.tolist()]).splitlines()
    assert len(fast) == len(slow) == block.shape[0] + 2
    assert [i for i, (a, b) in enumerate(zip(fast, slow)) if a != b][:3] == []
    assert cli._csv(config, header, block[:0]) == cli._csv(config, header, [])
    block[7, 2] = float("nan")
    with pytest.raises(ValueError, match="NaN in CSV output"):
        cli._csv(config, header, block)
    code, payload = invoke(["potential", "--alpha", "nan", "--format", "csv"], tmp_path, "nan.csv")
    assert code == 1 and payload == b""


def test_thinness_tail_past_double_range(tmp_path):
    """Scores near 1e226 and a tail bound past the double range: the standard
    error stays finite, the bound reads inf, and nothing warns or raises."""
    code, payload = invoke(["thinness", "--alpha", "2.01", "--m-level", "10", "--ell", "150",
                            "--truncation", "16", "--outer", "200", "--inner", "20"],
                           tmp_path, "t.json")
    assert code == 0
    estimate = json.loads(payload)["estimate"]
    assert estimate["value"] > 1e200 and 0.0 < estimate["std_error"] < math.inf
    assert estimate["tail_bound"] == "inf" and estimate["tail_finite"] is True


@pytest.mark.parametrize("radius", ["--x-radius", "--t-radius"])
@pytest.mark.parametrize("value", ["1e200", "1e-200"])
def test_weyl_refuses_radius_squared_out_of_range(radius, value, capsys):
    assert run(["weyl", "--alpha", "3", radius, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "squared leaves the normal double range" in err


def test_potential_names_alpha_underflowing_the_constants(capsys):
    assert run(["potential", "--alpha", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert err == "error: alpha = 1e-300 underflows the sandwich constants\n"
