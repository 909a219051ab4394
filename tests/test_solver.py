import dataclasses
import json

import numpy as np
import pytest

import scalarplan.solver
from conftest import ZERO_MASS_DEAD_BRANCH, ZERO_MASS_DEAD_END, ZERO_MASS_TRAP, wide_outcome_model
from scalarplan.cli import main
from scalarplan.domains import GeneratorSpec, generate, getting_to_work_document
from scalarplan.errors import ExtractionInfeasible, Infeasible, Nonconvergence, UnreachableGoal
from scalarplan.extract import flat_dual_solve, mix_policies
from scalarplan.model import (
    evaluate_policy,
    feasibility_check,
    finite_penalty_transform,
    load_model,
    policy_to_names,
    reachable_states,
)
from scalarplan.scalarise import MULTIPLIER_CAP
from scalarplan.solver import oracle_solve, solve_cssp


def test_unconstrained_model(two_optima):
    out = solve_cssp(two_optima)
    assert out.cost[0] == pytest.approx(4.0, abs=1e-5)
    assert out.report.lam == []
    # one solve: the master certifies the origin from that solve's own cut
    assert out.report.lambda_ssps == 1


def test_goal_initial_model():
    model = load_model({"states": ["g"], "initial": "g", "goals": ["g"],
                        "n": 1, "bounds": [1.0], "actions": []})
    out = solve_cssp(model)
    assert not out.policy.distribution
    assert not out.cost.any()


def test_infeasible_instance_raises(commute):
    tight = dataclasses.replace(commute, bounds=np.array([15.0, 0.0]))
    with pytest.raises(Infeasible):
        solve_cssp(tight, eta=1e-2)


def test_infeasible_instance_at_the_multiplier_cap_raises_infeasible():
    # the master's cut rows reach about 1e7 at the cap, so its simplex point
    # misses them by 3.6e-4 in rounding; that must not read as a breakdown
    with pytest.raises(Infeasible):
        solve_cssp(wide_outcome_model(385))


def test_lambda_heuristic_pipeline(staircase):
    out = solve_cssp(staircase, heuristic="lambda")
    assert np.allclose(out.cost, [4, 15, 15], atol=1e-3)
    assert np.allclose(out.report.lam, [0.2, 0.2], atol=2e-4)


def test_zero_heuristic_pipeline(commute):
    out = solve_cssp(commute, heuristic="zero")
    assert np.allclose(out.cost, [1, 15, 10], atol=1e-4)


def check_dual_bracket(model, report):
    """The report's ``[L(lam), ub]`` is eta-tight and brackets the exact optimum."""
    tol = 10 * report.epsilon + 1e-5
    low, ub = report.dual_bracket
    _, lp_cost, _ = flat_dual_solve(model)
    assert low <= ub
    assert ub - low <= report.eta
    assert low - tol <= float(lp_cost[0]) <= ub + tol


def check_mixture(model, out):
    """The master's weights are a distribution, and the policy costs their blend.

    The blend is the reported cost, so this is also the check of that cost,
    and of the report's, against an independent evaluation of the policy.
    """
    mix = out.mixture
    assert (mix.weights >= 0).all()
    assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)
    cost = evaluate_policy(model, out.policy)
    reported = np.array([out.report.primary_cost] + out.report.secondary_costs)
    for blend in (mix.weights @ mix.costs, out.cost, reported):
        assert np.abs(cost - blend).max() <= 1e-9


@pytest.mark.parametrize("name", ["commute", "staircase", "pathological",
                                  "two_optima"])
def test_dual_bracket_on_goldens(name, request):
    model = request.getfixturevalue(name)
    check_dual_bracket(model, solve_cssp(model).report)


@pytest.mark.parametrize("name", ["commute", "staircase", "pathological",
                                  "two_optima"])
def test_mixture_on_goldens(name, request):
    model = request.getfixturevalue(name)
    check_mixture(model, solve_cssp(model))


def test_report_gap_bound_on_random_batch():
    for seed in range(15):
        model = generate(GeneratorSpec("random", states=14, actions_per_state=3,
                                       secondary=2, seed=seed))
        out = solve_cssp(model)
        assert out.report.gap >= -(10 * 1e-4 + 1e-6)
        check_dual_bracket(model, out.report)
        check_mixture(model, out)


def test_reported_cost_is_the_policy_cost():
    # solve_cssp reports the mixture's price, sum mu_k C_k; the decoded
    # policy must cost exactly that when evaluated independently.  The
    # random instance's optimal policy visits some states fewer than 1e-9
    # times; decoding must keep them, or closing the policy there moves its
    # cost by 1.3e-8
    from scalarplan.model import finite_penalty_transform
    tireworld = generate(GeneratorSpec("tireworld", n=20, d=15, c=3))
    for model in (finite_penalty_transform(tireworld, np.array([500.0, 1.0, 1.0, 1.0])),
                  generate(GeneratorSpec("random", states=400, actions_per_state=3,
                                         secondary=2, seed=1))):
        check_mixture(model, solve_cssp(model))


@pytest.mark.parametrize("seed", [407, 879, 580, 905])
def test_kinked_instances_reach_exact_optimum(seed):
    # acceptance-family instances whose maximiser sits on a kink that no
    # single-coordinate move reaches (407, 879), on a zero-slack bound (580),
    # or behind a warm-solve livelock at an axis probe (905); the cutting
    # plane must land on the LP optimum in a handful of subproblem solves
    states = 6 + (seed * 7) % 35
    model = generate(GeneratorSpec("random", states=states,
                                   actions_per_state=2 + seed % 2,
                                   secondary=1 + seed % 2, seed=seed))
    out = solve_cssp(model, budget=100_000)
    _, lp_cost, _ = flat_dual_solve(model)
    assert abs(out.report.primary_cost - float(lp_cost[0])) <= 10 * 1e-4 + 1e-5
    assert out.report.lambda_ssps <= 10


@pytest.mark.parametrize("seed", range(30))
def test_wide_outcome_lists_match_exact_lp(seed):
    # outcome lists of 4-6 successors, with self-loops and repeated targets,
    # can round differently from the per-action form and flip exact ties, so
    # only the answers are checked: the exact LP's verdict and, where the
    # instance is feasible, its primary cost and a feasible policy
    model = wide_outcome_model(seed)
    try:
        _, lp_cost, _ = flat_dual_solve(model)
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_cssp(model)
        return
    out = solve_cssp(model)
    assert abs(out.report.primary_cost - float(lp_cost[0])) <= 10 * 1e-4 + 1e-5
    assert feasibility_check(model, evaluate_policy(model, out.policy))


@pytest.mark.parametrize("seed", [486, 915])
def test_warm_solves_do_not_livelock(seed):
    # acceptance-family instances on which a self-loop at a kink used to flip
    # V(s0) between tied Q vectors in the warm repair pass until the budget
    states = 6 + (7 * seed) % 35
    model = generate(GeneratorSpec("random", states=states,
                                   actions_per_state=2 + seed % 2,
                                   secondary=1 + seed % 2, seed=seed))
    out = solve_cssp(model, budget=100_000)
    _, lp_cost, _ = flat_dual_solve(model)
    assert abs(out.report.primary_cost - float(lp_cost[0])) <= 10 * 1e-4 + 1e-5


def test_oracle_solve_report(commute):
    out = oracle_solve(commute)
    assert out.report.solver == "exact-lp"
    assert out.report.lp_pivots > 0
    assert out.report.gap == 0.0


def test_penalty_transformed_tireworld_end_to_end():
    from scalarplan.model import finite_penalty_transform
    model = generate(GeneratorSpec("tireworld", n=3, d=2, c=2))
    fixed = finite_penalty_transform(model, np.array([200.0, 1.0, 1.0]))
    out = solve_cssp(fixed)
    exact = oracle_solve(fixed)
    assert out.cost[0] == pytest.approx(exact.cost[0], abs=1e-3)
    # the optimum is one deterministic policy
    assert all(len(dist) == 1 for dist in out.policy.distribution.values())


@pytest.mark.parametrize("spec, penalty, counts, lam, primary", [
    (GeneratorSpec("tireworld", n=20, d=15, c=3), (500.0, 1.0, 1.0, 1.0), (1, 571, 99),
     [0.0] * 3, 44.5),
    (GeneratorSpec("random", states=200, actions_per_state=3, secondary=2, seed=1),
     None, (1, 5928, 199), [0.0] * 2, 37.11808039323734),
    (GeneratorSpec("random", states=1000, actions_per_state=3, secondary=2, seed=0),
     None, (1, 16579, 921), [0.0] * 2, 27.72927149939929),
], ids=["tireworld-20-15-3", "random-200", "random-1000"])
def test_search_counters_are_pinned(spec, penalty, counts, lam, primary):
    # lambda-SSP solves, backups (one per state backup and one per pair the
    # repair pass or a certificate screens) and expansions of the pipeline; a
    # change meant to leave the search's choices alone must reproduce them
    # exactly, since one flipped tie moves the counts.  The multiplier and the
    # primary cost are pinned too, the cost to 1e-12
    from scalarplan.model import finite_penalty_transform
    model = generate(spec)
    if penalty is not None:
        model = finite_penalty_transform(model, np.array(penalty))
    report = solve_cssp(model).report
    assert (report.lambda_ssps, report.backups, report.expansions) == counts
    assert report.lam == pytest.approx(lam, abs=1e-12)
    assert report.primary_cost == pytest.approx(primary, abs=1e-12)


def test_solving_leaves_the_model_as_loaded(staircase):
    # the layout is built at load time; no solve hangs a cache on the model
    tyres = finite_penalty_transform(generate(GeneratorSpec("tireworld", n=4, d=3, c=2)),
                                     np.array([100.0, 1.0, 1.0]))
    for model in (staircase, tyres):
        layout = model.layout
        solve_cssp(model)
        assert model.layout is layout
        assert set(vars(model)) == {f.name for f in dataclasses.fields(model)}
        assert set(vars(layout)) == {f.name for f in dataclasses.fields(layout)}


def test_outcomes_of_probability_0_close_no_trap():
    # "t" and "u" are reached with probability 0 only, so the policy needs
    # no entry there, and none closes it into the trap "t -> u -> t"
    model = load_model(ZERO_MASS_TRAP)
    out = solve_cssp(model)
    exact_policy, exact_cost, _ = flat_dual_solve(model)
    for policy, cost in ((out.policy, out.cost), (exact_policy, exact_cost)):
        assert cost.tolist() == [1.0]
        assert evaluate_policy(model, policy).tolist() == [1.0]
        assert policy_to_names(model, policy) == {"s0": [["go", 1.0]]}


def test_dead_branch_reached_with_probability_0_is_no_dead_end():
    # "a0" reaches "s3" and "s4", from which no goal is reachable, with
    # probability 0 only: they are unreachable, and the optimum is "a0"
    model = load_model(ZERO_MASS_DEAD_BRANCH)
    assert {model.state_names[s] for s in reachable_states(model)} == {"s0", "s5"}
    out = solve_cssp(model)
    exact_policy, exact_cost, _ = flat_dual_solve(model)
    for policy, cost in ((out.policy, out.cost), (exact_policy, exact_cost)):
        assert cost.tolist() == [2.0]
        assert policy_to_names(model, policy) == {"s0": [["a0", 1.0]]}


def test_goal_reached_with_probability_0_only_is_unreachable():
    # every state reaches the goal with probability 0 only, so no search runs
    model = load_model(ZERO_MASS_DEAD_END)
    with pytest.raises(UnreachableGoal, match=r"\['s0', 's1'\]"):
        solve_cssp(model, budget=10 ** 4)
    with pytest.raises(Infeasible):
        flat_dual_solve(model)


def _stop_at_zero(oracle, eta):
    """A multiplier search that stops at its first cut."""
    return oracle.eval(np.zeros(oracle.model.n)), 0.0, 0


def _stop_on_cap(oracle, eta):
    """A multiplier search that certifies a multiplier on the cap."""
    sample = oracle.eval(np.full(oracle.model.n, MULTIPLIER_CAP))
    return sample, sample.L, 0


SHORT = "no mixture of the cut policies meets the bounds"


def _no_mixture(model, policies):
    raise ExtractionInfeasible(SHORT)


CAP = ("the maximiser of L lies on the multiplier cap 1000000.0; "
       "the instance admits no feasible policy")
FEASIBLE_CAP = ("multiplier search exceeded its cap on a feasible instance "
                "(dual maximiser beyond the cap)")


@pytest.mark.parametrize("bounds, search, mix, want, message, code", [
    ([15.0, 10.0], _stop_on_cap, mix_policies, Nonconvergence, FEASIBLE_CAP, 3),
    ([15.0, 10.0], _stop_at_zero, _no_mixture, Nonconvergence, SHORT, 3),
    ([15.0, 0.0], _stop_on_cap, mix_policies, Infeasible, CAP, 2),
    ([15.0, 0.0], _stop_at_zero, _no_mixture, Infeasible, "no feasible policy exists", 2),
], ids=["feasible-cap", "feasible-no-mixture", "infeasible-cap", "infeasible-no-mixture"])
def test_exact_lp_decides_a_stopped_search(monkeypatch, tmp_path, capsys, bounds, search,
                                           mix, want, message, code):
    # the commute golden is feasible at its own bounds and not at [15, 0]
    monkeypatch.setattr(scalarplan.solver, "cutting_plane", search)
    monkeypatch.setattr(scalarplan.solver, "mix_policies", mix)
    doc = dict(getting_to_work_document(), bounds=bounds)
    with pytest.raises(want) as got:
        solve_cssp(load_model(doc))
    assert type(got.value) is want and str(got.value) == message
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == code
    assert message in capsys.readouterr().err


def test_loose_eta_certifies_the_cap_on_a_feasible_instance(commute, staircase, tmp_path,
                                                            capsys):
    # the first master goes to a corner of the box, and so loose an eta
    # certifies it there; the exact LP finds both goldens feasible
    for model in (commute, staircase):
        with pytest.raises(Nonconvergence) as got:
            solve_cssp(model, eta=1e300)
        assert str(got.value) == FEASIBLE_CAP
    path = tmp_path / "commute.json"
    path.write_text(json.dumps(getting_to_work_document()))
    assert main(["solve", str(path), "--eta", "1e300"]) == 3
    assert FEASIBLE_CAP in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["epsilon", "eta", "budget"])
@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_boolean_setting_is_rejected(commute, setting, flag):
    # a boolean is no number, as in a model file: it must not run as 1
    with pytest.raises(ValueError, match="must be"):
        solve_cssp(commute, **{setting: flag})
