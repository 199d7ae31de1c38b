import json
import math
import time
import warnings

import numpy as np
import pytest

from srlab import cli
from srlab.cli import run
from srlab.group import MetivierStructure

from conftest import quaternion_maps, write_structure


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
    """--grid 64 on the quaternion structure puts 3.6e11 of its 64^7 base nodes in
    the bump's half-support, 5.7 TB of psi and L psi: refused with exit 1 before any
    sampling, and nothing on stdout."""
    sf = tmp_path / "quaternion.json"
    write_structure(sf, MetivierStructure(n=2, m=3, maps=quaternion_maps()))
    assert run(["weyl", "--structure", str(sf), "--alpha", "2", "--grid", "64"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "physical memory" in err


@pytest.mark.parametrize("command", [
    ["thinness", "--alpha", "3", "--m-level", "10", "--ell", "2",
     "--outer", "100000000000000000", "--inner", "10"],
    ["gamma", "--samples", "100000000000000000"]], ids=["thinness", "gamma"])
def test_sample_count_past_any_address_space_exits_with_one_error_line(command, capsys):
    """10^17 samples ask numpy for EiB of draws: the allocation fails at once,
    touching no memory, and the command exits 1 with one error line, no traceback."""
    assert run(command) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["potential", "--alpha", "2.5", "--nx", "4", "--nt", "4"],
                                     ["verify", "--samples", "100"]], ids=["potential", "verify"])
@pytest.mark.parametrize("text, message", [
    ('{"n": 1, "m": 1, "J": [[[NaN, 1.0], [-1.0, 0.0]]]}',
     "maps must be finite, got [[[nan, 1.0], [-1.0, 0.0]]]"),
    ('{"n": 1, "m": 1, "J": [[[0.0, Infinity], [-Infinity, 0.0]]]}',
     "maps must be finite, got [[[0.0, inf], [-inf, 0.0]]]"),
    ('{"n": 1, "m": 1}', 'a structure needs the keys "n", "m" and "J"'),
    ("[1, 2, 3]", 'a structure needs the keys "n", "m" and "J"'),
    ('{"n": 1.9, "m": true, "J": [[[0.0, 1.0], [-1.0, 0.0]]]}',
     'a structure\'s "n" and "m" must be JSON integers, got 1.9 and true'),
    ('{"n": "1", "m": 1, "J": [[[0.0, 1.0], [-1.0, 0.0]]]}',
     'a structure\'s "n" and "m" must be JSON integers, got "1" and 1')],
    ids=["nan", "infinity", "no_J", "list", "float_bool_dims", "string_dim"])
def test_bad_structure_file_exits_with_one_error_line(command, text, message, tmp_path, capsys):
    """A structure file with non-finite maps, without "J", not a JSON object, or
    with an n or m that is not a JSON integer: exit 1 with one error line and
    nothing else, on stderr or stdout."""
    sf = tmp_path / "bad.json"
    sf.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("always")    # printed to stderr, as outside the suite
        assert run(command + ["--structure", str(sf)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_empty_points_file_exits_with_one_error_line(tmp_path, capsys):
    pts = tmp_path / "empty.csv"
    pts.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("always")    # printed to stderr, as outside the suite
        assert run(["potential", "--alpha", "2.5", "--points", str(pts)]) == 1
    assert capsys.readouterr() == ("", f"error: points file {pts} holds no points\n")


def test_structure_json_loading(tmp_path):
    s = MetivierStructure(n=1, m=1, maps=np.array([[[0.0, 1.0], [-1.0, 0.0]]]))
    sf = tmp_path / "heis.json"
    write_structure(sf, s)
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


def test_weyl_residual_near_the_double_range_stays_finite(tmp_path, capsys):
    """At lambda = 1e160 the residual (about 1.25e159) is a finite double whose
    square is not: it is summed in units of a power of two, so it reads finite,
    at most the bound, with no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, payload = invoke(["weyl", "--alpha", "1.5", "--n-max", "4", "--grid", "8",
                                "--lambda", "1e160"], tmp_path, "w.csv")
    assert code == 0 and capsys.readouterr().err == ""
    rows = [ln.split(",") for ln in payload.decode().splitlines() if not ln.startswith("#")][1:]
    assert [int(r[0]) for r in rows] == [2, 4]
    for _, residual, bound, _ in rows:
        assert 1e159 < float(residual) <= float(bound) < math.inf


def test_weyl_seed_reaches_nothing(tmp_path, aniso):
    """Off H-type too the Weyl scan samples nothing: --seed 1 and --seed 2
    give the same rows."""
    sf = tmp_path / "aniso.json"
    write_structure(sf, aniso)
    rows = []
    for seed in ("1", "2"):
        code, payload = invoke(["weyl", "--structure", str(sf), "--alpha", "1.5", "--n-max", "4",
                                "--grid", "8", "--seed", seed], tmp_path, f"w{seed}.csv")
        assert code == 0
        rows.append([ln for ln in payload.decode().splitlines() if not ln.startswith("#")])
    assert rows[0] == rows[1] and len(rows[0]) == 3


def test_weyl_takes_a_negative_exponent_lambda(tmp_path, capsys):
    """--lambda -1e3 is a value, not an option: the same bytes as --lambda=-1e3.
    An option-like "-x" is still a usage error."""
    weyl = ["weyl", "--alpha", "1.5", "--n-max", "3", "--grid", "8"]
    code_a, a = invoke(weyl + ["--lambda", "-1e3"], tmp_path, "a.csv")
    code_b, b = invoke(weyl + ["--lambda=-1e3"], tmp_path, "b.csv")
    assert code_a == code_b == 0 and a == b and b"# lambda = -1000\n" in a
    assert run(weyl + ["--lambda", "-1.5E-2"]) == 0
    assert run(weyl + ["--lambda", "-x"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("structure", ["heisenberg", "aniso"])
def test_weyl_names_alpha_overflowing_the_potential(structure, tmp_path, aniso, capsys):
    """At alpha = 300 V_alpha overflows at the riding nodes, by the closed form
    on Heisenberg and by the norm jet off H-type (which wrote "NaN in CSV
    output" after three RuntimeWarnings): one error line naming alpha."""
    if structure == "aniso":
        structure = tmp_path / "aniso.json"
        write_structure(structure, aniso)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run(["weyl", "--alpha", "300", "--n-max", "4", "--grid", "4",
                    "--structure", str(structure)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: alpha = 300.0 overflows V_alpha\n"


def test_weyl_default_grid_scales_with_the_structure(tmp_path, aniso):
    """Without --grid the per-axis count is the largest even g <= 48 with
    g^(2n+m) <= 48^3, and the config records it: aniso (2n+m = 5) gets 10 and
    finishes in seconds (48 per axis, 255M nodes, ran for minutes); Heisenberg
    keeps 48, byte for byte as an explicit --grid 48."""
    sf = tmp_path / "aniso.json"
    write_structure(sf, aniso)
    start = time.perf_counter()
    code, payload = invoke(["weyl", "--structure", str(sf), "--alpha", "1"], tmp_path, "wa.csv")
    assert code == 0 and time.perf_counter() - start < 30.0
    assert "# grid = 10\n" in payload.decode()
    assert cli._default_weyl_grid(MetivierStructure(n=2, m=3, maps=quaternion_maps())) == 4
    code, default = invoke(["weyl", "--alpha", "1", "--n-max", "4"], tmp_path, "wh.csv")
    _, explicit = invoke(["weyl", "--alpha", "1", "--n-max", "4", "--grid", "48"],
                         tmp_path, "wg.csv")
    assert code == 0 and "# grid = 48\n" in default.decode() and default == explicit


@pytest.mark.parametrize("command, keys", [
    (["verify"], "command structure samples seed c0 C0"),
    (["gamma"], "command structure samples seed note"),
    (["potential", "--alpha", "3"],
     "command structure alpha seed points lx lt nx nt c_a1 c_a2 c_a3 c_a4"),
    (["weyl", "--alpha", "3"], "command structure alpha n_max lambda grid x_radius "
                               "t_radius seed sup_cylinder psi_norm L_psi_norm"),
    (["spectrum", "--alpha", "3"],
     "command structure alpha lx lt nx nt k tol max_iter seed dim"),
    (["thinness", "--alpha", "3", "--m-level", "10", "--ell", "2"],
     "command structure alpha m_level r ell truncation outer inner seed")],
    ids=["verify", "gamma", "potential", "weyl", "spectrum", "thinness"])
def test_config_echo_order(command, keys, tmp_path):
    """With its defaults, each subcommand's CSV header echoes the options in
    the order --help lists them, resolved defaults in place, then the derived
    values; --output and --format are not echoed."""
    code, payload = invoke(command + ["--format", "csv"], tmp_path, "echo.csv")
    assert code == 0
    echoed = [ln[2:].split(" = ")[0] for ln in payload.decode().splitlines()
              if ln.startswith("# ")]
    assert echoed == keys.split()


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


def test_csv_gathered_block_matches_per_value_format(tmp_path, monkeypatch):
    """A block with at most half its cells distinct formats each distinct
    double once and gathers the cells: byte for byte the per-value rows, with
    0.0 and -0.0 kept apart, on both sides of the guard and on the CLI's grid."""
    lookups = []
    real_searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda *a, **k: lookups.append(1) or real_searchsorted(*a, **k))

    def check(block, gathered):
        header = [f"c{j}" for j in range(block.shape[1])]
        lookups.clear()
        fast = cli._csv({"alpha": 2.5}, header, block)
        assert bool(lookups) == gathered
        assert fast == cli._csv({"alpha": 2.5}, header, [tuple(r) for r in block.tolist()])

    edge = [0.0, -0.0, float("inf"), float("-inf"), 5e-324, 1.0 / 3.0]
    dup = np.random.default_rng(0).choice(edge, size=(300, 6))
    dup[:, 0] = np.tile([0.0, -0.0, 1.0 / 3.0], 100)   # both zeros in one column
    check(dup, True)
    check(np.array([[-0.0]]), False)   # one cell, one distinct value
    check(np.array([[0.0, -0.0, 0.0, -0.0, 5e-324, 5e-324]]), True)
    check(np.array(edge * 5).reshape(-1, 1), True)
    half = np.array(edge + [2.5, -1e300]).repeat(2).reshape(4, 4)   # 8 of 16 distinct
    check(half, True)
    half[3, 3] = 7.0   # 9 of 16
    check(half, False)

    code, payload = invoke(["potential", "--alpha", "2.5", "--nx", "24", "--nt", "24",
                            "--seed", "0"], tmp_path, "grid.csv")
    assert code == 0
    lines = payload.decode().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 24 ** 3
    assert [ln for ln in data
            if ln != ",".join(cli._fmt(float(v)) for v in ln.split(","))][:3] == []


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_potential_names_alpha_overflowing_the_values(fmt, capsys):
    """Where N^alpha passes the double range V_alpha is not finite: one
    error line naming alpha, and no RuntimeWarning on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")    # printed to stderr, as outside the suite
        assert run(["potential", "--alpha", "1e100", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: alpha = 1e+100 overflows V_alpha\n"


@pytest.mark.parametrize("step", [["--lx", "1e-154"], ["--lt", "1e-300"]])
def test_spectrum_refuses_grid_steps_overflowing_the_operator(step, capsys):
    """A grid step whose inverse square overflows: one error line naming hx and
    ht, and no RuntimeWarning on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")    # printed to stderr, as outside the suite
        assert run(["spectrum", "--alpha", "3", *step, "--nx", "4", "--nt", "4",
                    "--k", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: an operator entry overflows at hx = ") and ", ht = " in err


@pytest.mark.parametrize("count", ["5", "49"])
@pytest.mark.parametrize("command", [["potential", "--alpha", "2.5"],
                                     ["spectrum", "--alpha", "3", "--k", "2"]])
def test_grid_node_on_the_identity_refused_where_v_alpha_is_read(command, count, capsys):
    """An odd count on every axis of a centred box puts a node on the identity:
    the grid holds it, and the V_alpha of the potential table and of the
    operator refuses it with one error line naming the identity.  With half-width
    1 and 49 points the midpoint formula gives the centre node as -1.1e-16; it
    is the identity all the same."""
    assert run(command + ["--lx", "1", "--lt", "1", "--nx", count, "--nt", count]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: formula undefined at the group identity (N = 0)\n"


def test_spectrum_names_alpha_overflowing_the_potential(capsys):
    """Where N^alpha passes the double range at a grid node: one error line
    naming alpha, and no RuntimeWarning on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run(["spectrum", "--alpha", "500", "--nx", "4", "--nt", "4", "--k", "2",
                    "--lx", "3", "--lt", "8"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: alpha = 500.0 overflows V_alpha\n"


def test_spectrum_residuals_of_a_huge_operator_stay_finite(capsys):
    """Entries up to about 1.6e301 pass the assembly check; the solve does not
    converge (exit 2), but its residual norms are finite numbers, not "inf",
    and squaring them warns of no overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run(["spectrum", "--alpha", "3", "--lx", "1e-150", "--nx", "4", "--nt", "4",
                    "--k", "2"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["converged"] is False
    assert all(isinstance(r, float) and 0.0 < r < math.inf for r in doc["residuals"])


def test_spectrum_on_a_huge_operator_reruns_byte_identical(tmp_path):
    """tol / |H|_inf is subnormal here; ARPACK gets it floored at machine
    epsilon, and two runs give the same bytes (exit 2, not converged)."""
    args = ["spectrum", "--alpha", "3", "--lx", "1e-150", "--nx", "4", "--nt", "4",
            "--k", "2", "--format", "json"]
    code_a, a = invoke(args, tmp_path, "a.json")
    code_b, b = invoke(args, tmp_path, "b.json")
    assert code_a == code_b == 2 and a == b
    assert json.loads(a)["converged"] is False


def test_thinness_refuses_a_nan_potential(capsys):
    """At alpha = 1500 V_alpha overflows on outer draws: one error line
    naming alpha, and no RuntimeWarning on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run(["thinness", "--alpha", "1500", "--m-level", "10", "--ell", "2",
                    "--outer", "200", "--inner", "20"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: alpha = 1500.0 overflows V_alpha\n"


def test_thinness_refuses_ell_overflowing_a_score(capsys):
    """ell = 1e300 raises a member's inner volume past the double range: one
    error line naming ell, and no RuntimeWarning on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run(["thinness", "--alpha", "3", "--m-level", "10", "--ell", "1e300",
                    "--outer", "200", "--inner", "20"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ell = 1e+300 overflows a member score v_hat^ell / q\n"


def test_thinness_names_r_overflowing_the_central_reach(capsys):
    """r^2/4 overflows at r = 1e200: one error line naming r, and no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run(["thinness", "--alpha", "3", "--m-level", "10", "--ell", "2",
                    "--r", "1e200", "--outer", "10", "--inner", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: r = 1e+200 overflows the central reach of a ball: "
                   "V_alpha is evaluated only where N < 2^170\n")


def test_thinness_at_a_huge_r_is_finite_or_names_r(capsys):
    """At r = 1e50 the threshold k rounds to the central reach: the tail bound
    stays finite and nothing warns.  A ball of radius 1e100 holds points whose
    N^6 overflows: one error line naming r."""
    args = ["thinness", "--alpha", "3", "--m-level", "10", "--ell", "2",
            "--outer", "10", "--inner", "10", "--r"]
    assert run(args + ["1e50"]) == 0
    out, err = capsys.readouterr()
    estimate = json.loads(out)["estimate"]
    assert err == ""
    assert all(math.isfinite(v) for v in estimate.values() if not isinstance(v, bool))
    assert run(args + ["1e100"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: r = 1e+100 overflows the central reach of a ball: "
                   "V_alpha is evaluated only where N < 2^170\n")


def test_h_type_claim_changes_no_output(tmp_path, aniso, capsys):
    """The maps decide h_type: a quaternion file claiming it, denying it or
    silent on it gives the same stdout, and a false claim is refused."""
    sf = tmp_path / "structure.json"
    doc = {"n": 2, "m": 3, "J": quaternion_maps().tolist()}
    commands = [["verify", "--samples", "500"],
                ["potential", "--alpha", "2.5", "--nx", "4", "--nt", "4"],
                ["thinness", "--alpha", "3", "--m-level", "10", "--ell", "2",
                 "--truncation", "4", "--outer", "200", "--inner", "50"]]
    outputs = []
    for claim in ({"h_type": True}, {"h_type": False}, {}):
        sf.write_text(json.dumps({**doc, **claim}))
        for command in commands:
            assert run(command + ["--structure", str(sf)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    write_structure(sf, aniso, h_type=True)
    assert run(["verify", "--structure", str(sf)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: h_type claimed but J_t^2 != -|t|^2 Id (defect ")
