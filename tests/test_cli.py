import json

import pytest

from conftest import MALFORMED, MALFORMED_POLICIES, UNPARSABLE, ZERO_MASS_DEAD_END, ZERO_MASS_TRAP
from scalarplan.cli import main
from scalarplan.domains import (
    GeneratorSpec,
    coord_interesting_document,
    coord_pathological_document,
    generate,
    getting_to_work_document,
)
from scalarplan.model import model_to_document


@pytest.fixture()
def commute_file(tmp_path):
    path = tmp_path / "commute.json"
    path.write_text(json.dumps(getting_to_work_document()))
    return str(path)


@pytest.fixture()
def pathological_file(tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps(coord_pathological_document()))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSolve:
    def test_commute(self, commute_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", commute_file, "--out", str(out)]) == 0
        report = read_json(out)
        assert report["primary_cost"] == pytest.approx(1.0, abs=1e-6)
        assert report["lambda"] == [0.0, 0.0]
        assert report["gap"] <= 10 * report["epsilon"]
        assert report["policy"]["s0"] == [["run", 0.5], ["taxi", 0.5]]
        assert report["counts"]["lp_pivots"] > 0
        assert report["counts"]["master_pivots"] > 0
        assert report["dual_bracket"] == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_pathological_optimum(self, pathological_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", pathological_file, "--out", str(out)]) == 0
        report = read_json(out)
        assert report["primary_cost"] == pytest.approx(10.0, abs=1e-6)
        assert report["policy"]["s0"] == [["a0", 1.0]]

    def test_infeasible_bounds_exit_2(self, tmp_path, capsys):
        doc = getting_to_work_document()
        doc["bounds"] = [15.0, 0.0]
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--eta", "0.01"]) == 2

    def test_malformed_model_exit_1(self, tmp_path, capsys):
        doc = getting_to_work_document()
        doc["actions"][0]["outcomes"][0]["prob"] = "half"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", MALFORMED)
    def test_malformed_documents_exit_1(self, mutate, tmp_path, capsys):
        doc = getting_to_work_document()
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", UNPARSABLE)
    def test_unparsable_documents_exit_1(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: not valid JSON" in err and "Traceback" not in err

    def test_model_file_not_utf8_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, solver, counts, bracket, lam, tol", [
        ("solve", "scalarise", (3, 16, 1, 3, 4), [1.0, 1.0], [0.0, 0.0], 1e-4),
        ("oracle", "exact-lp", (0, 0, 0, 5, 0), [], [], None),   # the exact LP has no tolerances
    ], ids=["solve", "oracle"])
    def test_report_is_pinned_on_the_golden(self, command, solver, counts, bracket, lam, tol,
                                            commute_file, capsys):
        # every key of the report and every value but the wall time
        assert main([command, commute_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("wall_time") >= 0.0
        names = ("lambda_ssps", "backups", "expansions", "lp_pivots", "master_pivots")
        assert report == {
            "solver": solver, "primary_cost": 1.0, "secondary_costs": [15.0, 10.0],
            "bounds": [15.0, 10.0], "gap": 0.0, "lambda": lam, "dual_bracket": bracket,
            "counts": dict(zip(names, counts)), "epsilon": tol, "eta": tol,
            "policy": {"s0": [["run", 0.5], ["taxi", 0.5]]},
        }

    def test_budget_exhaustion_exit_3(self, commute_file):
        assert main(["solve", commute_file, "--backup-budget", "2"]) == 3

    @pytest.mark.parametrize("flag", ["--epsilon", "--eta"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_bad_tolerance_exit_1(self, flag, value, pathological_file, capsys):
        assert main(["solve", pathological_file, flag, value]) == 1
        err = capsys.readouterr().err
        assert f"error: {flag[2:]} must be finite and positive" in err
        assert "Traceback" not in err

    def test_zero_backup_budget_exit_1(self, commute_file, capsys):
        assert main(["solve", commute_file, "--backup-budget", "0"]) == 1
        assert "error: backup budget must be at least 1" in capsys.readouterr().err

    def test_deterministic_reports(self, commute_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", commute_file, "--out", str(a)])
        main(["solve", commute_file, "--out", str(b)])
        ra, rb = read_json(a), read_json(b)
        ra.pop("wall_time"), rb.pop("wall_time")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


class TestUsage:
    # argparse's own exit code for bad usage is 2, which means "infeasible"
    def test_unparsable_value_exit_1(self, commute_file, capsys):
        assert main(["solve", commute_file, "--epsilon", "abc"]) == 1
        assert "invalid float value" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, commute_file, capsys):
        assert main(["solve", commute_file, "--no-such-flag"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_oracle_takes_no_search_flags(self, commute_file, capsys):
        assert main(["oracle", commute_file, "--epsilon", "1"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestPenalty:
    @pytest.fixture()
    def tireworld_file(self, tmp_path):
        path = tmp_path / "tw.json"
        assert main(["gen", "--kind", "tireworld", "--tw-n", "4", "--tw-d", "3",
                     "--tw-c", "2", "--out", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("command", ["solve", "oracle", "compare"])
    @pytest.mark.parametrize("penalty", ["nan,1,1", "inf,1,1", "200,1,-inf", "0,1,1"])
    def test_bad_penalty_exit_1(self, command, penalty, tireworld_file, capsys):
        assert main([command, tireworld_file, "--penalty", penalty]) == 1
        err = capsys.readouterr().err
        assert "error: penalty entries must be finite and strictly positive" in err

    def test_penalty_solves(self, tireworld_file, capsys):
        assert main(["oracle", tireworld_file, "--penalty", "200,1,1"]) == 0
        assert json.loads(capsys.readouterr().out)["primary_cost"] > 0


class TestOracleAndCompare:
    def test_oracle(self, commute_file, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle", commute_file, "--out", str(out)]) == 0
        report = read_json(out)
        assert report["solver"] == "exact-lp"
        assert report["primary_cost"] == pytest.approx(1.0, abs=1e-7)
        assert report["counts"]["lp_pivots"] > 0

    def test_oracle_infeasible_exit_2(self, tmp_path):
        doc = getting_to_work_document()
        doc["bounds"] = [15.0, 0.0]
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 2

    def test_compare_agrees(self, commute_file, tmp_path, capsys):
        assert main(["compare", commute_file]) == 0
        text = capsys.readouterr().out
        assert "|delta|" in text and "scalarise" in text

    def test_compare_random_batch(self, tmp_path):
        for seed in (3, 11):
            model = generate(GeneratorSpec("random", states=15, actions_per_state=3,
                                           secondary=2, seed=seed))
            path = tmp_path / f"r{seed}.json"
            path.write_text(json.dumps(model_to_document(model)))
            assert main(["compare", str(path)]) == 0


class TestZeroMassOutcomes:
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_trap_policy_passes_eval(self, command, tmp_path, capsys):
        model = tmp_path / "trap.json"
        model.write_text(json.dumps(ZERO_MASS_TRAP))
        out = tmp_path / "report.json"
        assert main([command, str(model), "--out", str(out)]) == 0
        report = read_json(out)
        assert report["primary_cost"] == 1.0
        assert report["policy"]["u"] == [["exit", 1.0]]
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps(report["policy"]))
        assert main(["eval", str(model), str(pol)]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] == [1.0]

    def test_dead_end_exits_1(self, tmp_path, capsys):
        # at the default budget: the search no longer runs at all
        model = tmp_path / "dead.json"
        model.write_text(json.dumps(ZERO_MASS_DEAD_END))
        assert main(["solve", str(model)]) == 1
        assert "cannot reach a goal" in capsys.readouterr().err


class TestEval:
    def test_run_policy_infeasible_effort(self, commute_file, tmp_path, capsys):
        pol = tmp_path / "run.json"
        pol.write_text(json.dumps({"s0": [["run", 1.0]]}))
        assert main(["eval", commute_file, str(pol)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] == [1.0, 0.0, 20.0]
        assert doc["feasible"] is False

    def test_optimal_policy_feasible(self, commute_file, tmp_path, capsys):
        pol = tmp_path / "mix.json"
        pol.write_text(json.dumps({"s0": [["run", 0.5], ["taxi", 0.5]]}))
        main(["eval", commute_file, str(pol)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert doc["cost"] == [1.0, 15.0, 10.0]

    @pytest.mark.parametrize("policy", MALFORMED_POLICIES)
    def test_malformed_policies_exit_1(self, policy, commute_file, tmp_path, capsys):
        pol = tmp_path / "bad.json"
        pol.write_text(json.dumps(policy))
        assert main(["eval", commute_file, str(pol)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", UNPARSABLE)
    def test_unparsable_policies_exit_1(self, text, commute_file, tmp_path, capsys):
        pol = tmp_path / "bad.json"
        pol.write_text(text)
        assert main(["eval", commute_file, str(pol)]) == 1
        err = capsys.readouterr().err
        assert "error: not valid JSON" in err and "Traceback" not in err


class TestSurface:
    def test_pathological_grid_csv(self, pathological_file, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["surface", pathological_file, "--grid", "0:3:0.5",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "lambda_1,lambda_2,L"
        table = {tuple(float(x) for x in r.split(",")[:2]): float(r.split(",")[2])
                 for r in rows[1:]}
        assert len(table) == 49
        assert table[(0.0, 0.0)] == pytest.approx(1.0, abs=1e-6)
        assert table[(1.0, 0.0)] == pytest.approx(0.0, abs=1e-6)
        assert table[(2.0, 2.0)] == pytest.approx(10.0, abs=1e-6)

    def test_lambda_heuristic_is_built_for_each_grid_point(self, tmp_path, monkeypatch):
        # each lambda-SSP of the grid gets the lambda heuristic of its own point
        from scalarplan import scalarise
        solve_lambda_ssp, seen = scalarise.solve_lambda_ssp, []

        def logged_solve(model, lam, V_init, h, **kwargs):
            seen.append((h.kind, h.lam.tolist(), lam.tolist()))
            return solve_lambda_ssp(model, lam, V_init, h, **kwargs)

        monkeypatch.setattr(scalarise, "solve_lambda_ssp", logged_solve)
        path = tmp_path / "staircase.json"
        path.write_text(json.dumps(coord_interesting_document()))
        assert main(["surface", str(path), "--grid", "0:0.5:0.25", "--heuristic", "lambda",
                     "--out", str(tmp_path / "surface.csv")]) == 0
        assert len(seen) == 9
        assert all(kind == "lambda" and h_lam == lam for kind, h_lam, lam in seen), seen

    def test_bad_epsilon_exit_1(self, pathological_file, capsys):
        assert main(["surface", pathological_file, "--epsilon", "-1"]) == 1
        assert "error: epsilon must be finite and positive" in capsys.readouterr().err

    def test_backup_budget_exhaustion_exit_3(self, pathological_file):
        assert main(["surface", pathological_file, "--grid", "0:1:0.5",
                     "--backup-budget", "1"]) == 3

    def test_huge_grid_refused_before_allocating(self, commute_file, capsys):
        # 10^7 points per axis over two multipliers: 10^14 points
        assert main(["surface", commute_file, "--grid", "0:1e7:1"]) == 1
        err = capsys.readouterr().err
        assert "error: grid '0:1e7:1' over 2 multipliers has more than" in err

    @pytest.mark.parametrize("grid", ["0:2", "0:2:x", "0:inf:1", "nan:1:1", "2:1:1"])
    def test_bad_grid_spec_exit_1(self, grid, commute_file, capsys):
        assert main(["surface", commute_file, "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert f"error: bad grid spec {grid!r}" in err and "Traceback" not in err


class TestGen:
    def test_gen_then_solve_round_trip(self, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["gen", "--kind", "random", "--states", "12",
                     "--actions-per-state", "3", "--n-secondary", "1",
                     "--seed", "1", "--out", str(model_path)]) == 0
        assert main(["solve", str(model_path), "--out",
                     str(tmp_path / "out.json")]) == 0

    def test_gen_fixed_instances(self, tmp_path, capsys):
        for kind in ("getting-to-work", "coord-interesting",
                     "coord-pathological", "strong-eps-example"):
            assert main(["gen", "--kind", kind, "--out",
                         str(tmp_path / f"{kind}.json")]) == 0
            doc = read_json(tmp_path / f"{kind}.json")
            assert doc["states"] and doc["actions"]

    def test_gen_tireworld(self, tmp_path):
        out = tmp_path / "tw.json"
        assert main(["gen", "--kind", "tireworld", "--tw-n", "3", "--tw-d", "2",
                     "--tw-c", "2", "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["n"] == 2

    def test_gen_bad_spec_exit_1(self, capsys):
        assert main(["gen", "--kind", "tireworld", "--tw-n", "1", "--tw-d", "1",
                     "--tw-c", "1"]) == 1
