import json
import math
import random
from fractions import Fraction

import pytest

from fracparts.cli import EXIT_ERROR, EXIT_NOT_FOUND, EXIT_OK, main
from fracparts.core import parse_scalar
from test_latgeom import rand_basis


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def half_system(tmp_path):
    return write(tmp_path, "half.json",
                 {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": "100"})


@pytest.fixture
def dup_system(tmp_path):
    return write(tmp_path, "dup.json",
                 {"d": 2, "polys": [["0", "sqrt(2)"], ["0", "sqrt(2)"]],
                  "eps": ["0.05", "0.05"], "x": "2000"})


class TestSolveCommand:
    def test_found_exit_0_and_cert(self, tmp_path, half_system, capsys):
        cert = str(tmp_path / "cert.json")
        assert main(["solve", half_system, "--cert", cert]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "found" and out["n"] == 2
        assert main(["verify-cert", cert]) == EXIT_OK
        tail = json.loads("{" + capsys.readouterr().out.rsplit("{", 1)[1])
        assert tail["valid"] is True

    def test_not_found_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "nf.json",
                     {"d": 1, "polys": [["1/3"]], "eps": ["0.01"], "x": "3"})
        assert main(["solve", path]) == EXIT_NOT_FOUND

    def test_missing_file_exit_1(self):
        assert main(["solve", "/nonexistent/x.json"]) == EXIT_ERROR

    def test_malformed_exit_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"d": 0}')
        assert main(["solve", str(p)]) == EXIT_ERROR

    def test_config_file(self, tmp_path, half_system, capsys):
        cfg = write(tmp_path, "cfg.json", {"c_hit": 0.5, "brute_force_threshold": 16})
        assert main(["solve", half_system, "--config", cfg]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["C_cfg", "c_orth", "delta_const",
                                      "precision_bits", "C_impl", "max_depth",
                                      "max_box"])
    def test_config_constant_is_unknown_field(self, tmp_path, half_system, name, capsys):
        # the reduction's constants are not configuration
        cfg = write(tmp_path, "cfg.json", {name: 4})
        assert main(["solve", half_system, "--config", cfg]) == EXIT_ERROR
        assert f"unknown config field {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [{"enum_cap": "10"},
                                     {"brute_force_threshold": "8"},
                                     {"enum_cap": True},
                                     {"c_hit": math.inf},
                                     {"c_hit": math.nan},
                                     {"c_hit": -0.5},
                                     {"enum_cap": -5},
                                     {"brute_force_threshold": -1},
                                     [1], 5, "x", None])
    def test_config_value_type_checked(self, tmp_path, half_system, cfg, capsys):
        # json writes inf and nan as Infinity and NaN, which it reads back
        path = write(tmp_path, "cfg.json", cfg)
        assert main(["solve", half_system, "--config", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        if isinstance(cfg, dict):
            (name,) = cfg
            assert f"error: config field {name!r}" in err
        else:
            assert err.startswith("error: config must be an object")

    def test_irrational_tolerance_exit_1(self, tmp_path, capsys):
        # the coefficient is the 192-bit approximant of sqrt(2)/100, so
        # n = 1 meets the intended tolerance sqrt(2)/100 but not its
        # rounded-down approximant; the tolerance must be refused, not rounded
        coeff = str(parse_scalar("sqrt(2)/100").value)
        path = write(tmp_path, "irr.json", {"d": 1, "polys": [[coeff]],
                                            "eps": ["sqrt(2)/100"], "x": "2"})
        assert main(["solve", path]) == EXIT_ERROR
        assert "error: field 'eps'" in capsys.readouterr().err

    def test_number_coefficient_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "num.json", {"d": 1, "polys": [[0.5]],
                                            "eps": ["0.01"], "x": "100"})
        assert main(["solve", path]) == EXIT_ERROR
        assert "error: field 'polys[0]'" in capsys.readouterr().err

    def test_irrational_horizon_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "irr.json", {"d": 1, "polys": [["1/2"]],
                                            "eps": ["0.01"], "x": "sqrt(5)"})
        assert main(["solve", path]) == EXIT_ERROR
        assert "error: field 'x'" in capsys.readouterr().err


class TestOracleCommand:
    def test_oracle(self, half_system, capsys):
        assert main(["oracle", half_system]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["n_star"] == 2 and out["min_max_dist"] == "0"


class TestPipelineCommands:
    def test_scan_relations_denom(self, tmp_path, dup_system, capsys):
        assert main(["fourier-scan", dup_system, "--c-hit", "1e9"]) == EXIT_OK
        scan = json.loads(capsys.readouterr().out)
        assert scan["dichotomy"]["branch"] == "large-coefficients"
        scan_path = write(tmp_path, "scan.json", scan)

        assert main(["relations", scan_path]) == EXIT_OK
        rels = json.loads(capsys.readouterr().out)
        assert rels["count"] > 0
        rels_path = write(tmp_path, "rels.json", rels)

        assert main(["denom-analyze", rels_path]) == EXIT_OK
        ana = json.loads(capsys.readouterr().out)
        assert ana["cluster"]["q0"] == [1, 1]
        assert "divisor_filter" in ana and "rfold_counts" in ana

    def test_fourier_scan_hit_density(self, tmp_path, capsys):
        p = write(tmp_path, "zero.json",
                  {"d": 1, "polys": [["0"]], "eps": ["0.1"], "x": "100"})
        assert main(["fourier-scan", p, "--c-hit", "0.1"]) == EXIT_OK
        scan = json.loads(capsys.readouterr().out)
        assert scan["dichotomy"]["branch"] == "hit-density"
        assert scan["dichotomy"]["density_count"] == 100

    def test_relations_on_incomplete_scan_exit_1(self, tmp_path, dup_system, capsys):
        assert main(["fourier-scan", dup_system]) == EXIT_OK
        scan = json.loads(capsys.readouterr().out)
        path = write(tmp_path, "scan.json", {"system": scan["system"]})
        assert main(["relations", path]) == EXIT_ERROR
        assert "missing field 'dichotomy'" in capsys.readouterr().err

    @pytest.mark.parametrize("dichotomy, field", [
        ({}, "field 'dichotomy': missing key 'branch'"),
        ([], "field 'dichotomy'"),
        ({"branch": "large-coefficients", "x_floor": 2, "h_caps": 3}, "field 'dichotomy'"),
        ({"branch": "large-coefficients", "x_floor": 2, "h_caps": [3, 3],
          "witnesses": [[[1, "x"], 1]]}, "field 'dichotomy'"),
    ])
    def test_relations_on_malformed_dichotomy_exit_1(self, tmp_path, dup_system, dichotomy,
                                                     field, capsys):
        assert main(["fourier-scan", dup_system]) == EXIT_OK
        scan = json.loads(capsys.readouterr().out)
        path = write(tmp_path, "scan.json", {**scan, "dichotomy": dichotomy})
        assert main(["relations", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("where, value, field", [
        (("x",), True, "field 'x'"),
        (("x",), 2000.5, "field 'x'"),
        (("system", "polys", 0, 0), True, "field 'system'"),
        (("system", "d"), 3, "field 'system'"),
    ], ids=["bool-x", "float-x", "bool-coefficient", "wrong-d"])
    def test_relations_on_malformed_scan_exit_1(self, tmp_path, dup_system, where, value,
                                                field, capsys):
        assert main(["fourier-scan", dup_system]) == EXIT_OK
        scan = json.loads(capsys.readouterr().out)
        node = scan
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path = write(tmp_path, "scan.json", scan)
        assert main(["relations", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("data, field", [
        ({}, "missing field 'relations'"),
        ([], "missing field 'relations'"),
        ({"relations": 5}, "field 'relations'"),
        ({"relations": [{"a": [1], "h": [1], "residuals": ["0"]}]},
         "'relations[0]': missing key 'q'"),
        ({"relations": [{"a": [1], "q": [2], "h": [1], "residuals": ["1/0"]}]},
         "'relations[0]'"),
        ({"relations": [{"a": [1], "q": [2], "h": [1], "residuals": ["0"]},
                        {"a": [1, 0], "q": [2, 1], "h": [1], "residuals": ["0", "0"]}]},
         "'relations[1]': 2 slots"),
        ({"relations": [{"a": [1], "q": [3], "h": [0.5, "x"], "residuals": ["0"]},
                        {"a": [True], "q": [3], "h": [1, 2], "residuals": [0.25]}]},
         "'relations[0]': h must be a list of integers"),
        ({"relations": [{"a": [1], "q": [3], "h": [1, 2], "residuals": ["0"]},
                        {"a": [True], "q": [3], "h": [1, 2], "residuals": [0.25]}]},
         "'relations[1]': a must be a list of integers"),
        ({"relations": [{"a": [1], "q": [3], "h": [1, 2], "residuals": [0.25]}]},
         "'relations[0]': need a rational string"),
        ({"relations": [{"a": [1], "q": [3], "h": [1, 2], "residuals": "0"}]},
         "'relations[0]': residuals must be a list"),
        ({"relations": [{"a": [1], "q": [True], "h": [1, 2], "residuals": ["0"]}]},
         "'relations[0]': q must be a list of integers"),
    ])
    def test_denom_analyze_malformed_exit_1(self, tmp_path, data, field, capsys):
        path = write(tmp_path, "rels.json", data)
        assert main(["denom-analyze", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_fourier_scan_has_no_precision_option(self, dup_system, capsys):
        assert main(["fourier-scan", dup_system, "--precision", "64"]) == EXIT_ERROR
        capsys.readouterr()


class TestLatticeCommand:
    def test_wedge(self, capsys):
        assert main(["lattice", "--wedge", '[["3","0"],["0","4"]]']) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["wedge_norm"] == 12.0

    def test_reduce(self, capsys):
        assert main(["lattice", "--reduce", '[["1","0"],["1000000","1"]]']) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        flat = {tuple(map(abs, map(int, row))) for row in
                [[int(v) for v in r] for r in out["vectors"]]}
        assert flat == {(1, 0), (0, 1)}

    def test_reduce_rational_output(self, capsys):
        # rows, transform and estimates over the rows' common denominator 6
        assert main(["lattice", "--reduce", '[["1/2","0"],["1000000","1/3"]]']) == EXIT_OK
        assert capsys.readouterr().out == json.dumps({
            "vectors": [["0", "1/3"], ["1/2", "0"]],
            "transform": [[-2000000, 1], [1, 0]],
            "minima_estimates": ["1/3", "1/2"]}, indent=2) + "\n"

    def test_minima_estimates_sorted(self, capsys):
        M = rand_basis(random.Random(11), 4)
        assert main(["lattice", "--reduce", json.dumps(M)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        estimates = [Fraction(m) for m in out["minima_estimates"]]
        assert estimates == sorted(estimates)
        assert set(estimates) == {max(abs(Fraction(v)) for v in row) for row in out["vectors"]}

    def test_det_identity(self, capsys):
        assert main(["lattice", "--det-identity", "--h1", "[[2]]",
                     "--h2", "[[1]]"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["det1"], out["det2"], out["det3"]) == (2, 1, 2)

    def test_generators(self, tmp_path, capsys):
        p = write(tmp_path, "g.json",
                  {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": "100"})
        assert main(["lattice", "--generators", p, "--b", "2", "--eta", "1/10",
                     "--n-target", "3"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "generators" and out["r"] == 1
        assert out["h_vecs"] == [[2]] and out["a_vecs"] == [[1]]
        # the measures of h / B under --b; the region is not echoed back
        assert out["orth_ratio_sq"] == "1" and out["tilde_product"] == "1"
        assert "B" not in out and "eta" not in out

    def test_mode_required(self, capsys):
        assert main(["lattice"]) == EXIT_ERROR

    @pytest.mark.parametrize("argv", [
        ["--reduce", "[[1,2],[3]]"],
        ["--wedge", "[[1,2],[3]]"],
        ["--reduce", "[1,2]"],
        ["--det-identity", "--h1", "[[1,2],[3]]", "--h2", "[[1],[1]]"],
        ["--det-identity", "--h1", "[[2]]", "--h2", "[[1],[1]]"],
        ["--det-identity", "--h1", "[[1,2]]", "--h2", "[[1]]"],
        ["--det-identity", "--h1", "[[2]]", "--h2", "[[0.5]]"],
    ], ids=["ragged-reduce", "ragged-wedge", "flat-reduce", "ragged-h1",
            "h2-rows", "nonsquare-h1", "float-h2"])
    def test_malformed_matrix_exit_1(self, argv, capsys):
        assert main(["lattice", *argv]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestExponentCommand:
    def test_csv_written(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        rc = main(["exponent", "--k", "1", "--d", "1", "--x", "100,1000",
                   "--trials", "2", "--seed", "3", "--out", str(out_csv)])
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 2
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "k,d,x,trial_id,seed,min_max_dist,fitted_exponent"
        assert len(lines) == 1 + 2 * 2

    def test_empty_horizon_exit_1(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        rc = main(["exponent", "--k", "1", "--d", "2", "--x", "1,100",
                   "--trials", "1", "--out", str(out_csv)])
        assert rc == EXIT_ERROR
        assert not out_csv.exists()
        capsys.readouterr()

    def test_horizons_parse_exactly(self, tmp_path, capsys):
        # the large horizon passes the cap, so its rows are flagged, but the
        # CSV records it exactly; through a float it read 123456789012345680
        out_csv = tmp_path / "rows.csv"
        rc = main(["exponent", "--k", "1", "--d", "1", "--x", "1e2,123456789012345678",
                   "--trials", "1", "--out", str(out_csv)])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["x_grid"] == [100, 123456789012345678]
        rows = [line.split(",") for line in out_csv.read_text().strip().splitlines()[1:]]
        assert [row[2] for row in rows] == ["100", "123456789012345678"]

    def test_non_integral_horizon_exit_1(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        rc = main(["exponent", "--k", "1", "--d", "1", "--x", "100,1000.7",
                   "--trials", "1", "--out", str(out_csv)])
        assert rc == EXIT_ERROR
        assert not out_csv.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "1000.7" in captured.err


class TestVerifyCert:
    def test_tampered_cert_exit_2(self, tmp_path, half_system, capsys):
        cert_path = str(tmp_path / "c.json")
        main(["solve", half_system, "--cert", cert_path])
        capsys.readouterr()
        data = json.loads(open(cert_path).read())
        data["terminal"]["n"] = 3
        open(cert_path, "w").write(json.dumps(data))
        assert main(["verify-cert", cert_path]) == EXIT_NOT_FOUND
        capsys.readouterr()

    def test_flipped_theorem_flag_exit_1(self, tmp_path, half_system, capsys):
        cert_path = str(tmp_path / "c.json")
        main(["solve", half_system, "--cert", cert_path])
        capsys.readouterr()
        data = json.loads(open(cert_path).read())
        assert data["constants"]["within_theorem_hypothesis"] is True
        data["constants"]["within_theorem_hypothesis"] = False
        open(cert_path, "w").write(json.dumps(data))
        assert main(["verify-cert", cert_path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'constants'" in err

    @pytest.mark.parametrize("data, field", [
        ({}, "'root'"),
        ({"root": {}, "chain": [], "terminal": {}}, "'root': missing key 'polys'"),
        ({"root": {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": "100"},
          "chain": 5, "terminal": {}}, "'chain'"),
        ({"root": {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": "100"},
          "chain": [], "terminal": {"kind": "found-n", "n": "2"}}, "'terminal'"),
        ({"root": {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": "100"},
          "chain": [{"q0": 1, "D2": 2, "child_hit": 3}], "terminal": {}},
         "'chain': missing key 'gens'"),
        ({"root": {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": "100"},
          "chain": [{"gens": {"h_vecs": [[1]], "a_vecs": [[0]]}, "q0": 1, "D2": "2",
                     "child_hit": 3}], "terminal": {}}, "'chain': 'D2' must be an integer"),
        ({"root": {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": "100"},
          "chain": [], "terminal": {"kind": "found-n", "n": True, "dists": ["0"]}},
         "'terminal': 'n' must be an integer"),
        ({"root": {"d": 1, "polys": [[True]], "eps": ["0.01"], "x": "100"},
          "chain": [], "terminal": {"kind": "found-n", "n": 2, "dists": ["0"]}},
         "'root': field 'polys[0]'"),
        ({"root": {"d": 1, "polys": [["1/2"]], "eps": [0.01], "x": "100"},
          "chain": [], "terminal": {"kind": "found-n", "n": 2, "dists": ["0"]}},
         "'root': field 'eps'"),
        ({"root": {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": 100.0},
          "chain": [], "terminal": {"kind": "found-n", "n": 2, "dists": ["0"]}},
         "'root': field 'x'"),
        ({"root": {"d": 7, "polys": [["1/2"]], "eps": ["0.01"], "x": "100"},
          "chain": [], "terminal": {"kind": "found-n", "n": 2, "dists": ["0"]}},
         "'root': field 'polys[0]'"),
    ])
    def test_malformed_cert_exit_1(self, tmp_path, data, field, capsys):
        path = write(tmp_path, "c.json", data)
        assert main(["verify-cert", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_usage_error(self):
        assert main(["no-such-command"]) == EXIT_ERROR
