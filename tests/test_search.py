import numpy as np
import pytest

from conftest import (
    random_model,
    random_outcome_document,
    random_outcome_model,
    wide_outcome_model,
)
from oracles import (
    action_table,
    bellman_residual,
    reference_envelope,
    reference_mark,
    scalarised_vi,
    search_residual,
)
from scalarplan.domains import GeneratorSpec, generate
from scalarplan.errors import Infeasible, NoApplicableAction, Nonconvergence, SingularMatrix
from scalarplan.extract import build_om_lp, flat_dual_solve
from scalarplan.heuristics import (
    IDEAL_POINT,
    LAMBDA_SCALARISED,
    ZERO,
    ideal_point_heuristic,
    make_heuristic,
    zero_heuristic,
)
from scalarplan.linalg import solve_linear_system
from scalarplan.model import (
    DeterministicPolicy,
    evaluate_policy,
    finite_penalty_transform,
    load_model,
    reachable_states,
)
from scalarplan import search
from scalarplan.scalarise import LambdaOracle
from scalarplan.search import (
    DEFAULT_BUDGET,
    _greedy,
    _Solve,
    _state_q,
    _TIE_WINDOW,
    as_scalarisation,
    fresh_vvf,
    scalar_weights,
    solve_lambda_ssp,
    warm_restart,
)
from scalarplan.solver import oracle_solve, solve_cssp


def printed_vvf(model):
    """The two-optima instance's hand-written value function (admissible)."""
    V = fresh_vvf(model)
    V.values[:] = [[4.0], [3.0], [1.0], [2.0], [0.0]]
    V.touched[:] = True
    return V


def goal_only_model():
    return load_model({"states": ["g"], "initial": "g", "goals": ["g"],
                       "n": 0, "bounds": [], "actions": []})


def greedy_backup(model, lam, V, s, epsilon=1e-4):
    """The backup the search makes at ``s`` over all its actions: (Q, action id)."""
    w = scalar_weights(as_scalarisation(lam, model.n))
    q, scal = _state_q(model, V.values, w, s)
    a = _greedy(q, scal, range(len(scal)), epsilon)
    return q[a], a


def greedy_envelope(model, choice):
    """The states reachable under ``choice``, a state -> action id map that
    holds every non-goal state it reaches."""
    return reference_envelope(model, DeterministicPolicy(choice).to_stochastic())


def envelope_of(res):
    """The envelope of a ``SearchResult``'s greedy policy."""
    return greedy_envelope(res.model, res.choice)


def traverse(model, V, lam, epsilon=1e-4):
    """One pass of the search's traversal: (states it expanded, states it reached)."""
    solve = _Solve(model, as_scalarisation(lam, model.n), V, zero_heuristic(model),
                   epsilon, DEFAULT_BUDGET)
    _, expanded, choice, _ = solve._dfs()
    return expanded, greedy_envelope(model, choice)


def with_all_actions(model, V):
    """``V`` with every pair in the partial problem (goals have none)."""
    V.included[:] = True
    return V


class TestLambdaBellmanBackup:
    def test_commute_tie_breaks_to_lexicographic_minimum(self, commute):
        V = fresh_vvf(commute)   # all-zero values = zero heuristic
        q, a = greedy_backup(commute, np.zeros(2), V, 0)
        # run, taxi, walk all have scalarised Q = 1; walk's vector is smallest
        assert a == commute.action_id(0, "walk")
        assert np.allclose(q, [1, 0, 1])
        assert np.abs(V.values[0] - q).max() == pytest.approx(1.0)

    def test_goal_is_noop(self, commute):
        # the search never backs up a goal: it stays at zero whatever it held
        V = fresh_vvf(commute)
        g = commute.state_names.index("g")
        V.values[g], V.touched[g] = 7.0, True
        res = solve_lambda_ssp(commute, np.zeros(2), V, ideal_point_heuristic(commute))
        assert g in envelope_of(res) and not res.V.values[g].any()

    def test_pathological_at_2_2(self, pathological):
        V = fresh_vvf(pathological)
        q, a = greedy_backup(pathological, np.array([2.0, 2.0]), V, 0)
        assert a == pathological.action_id(0, "a0")
        assert np.allclose(q, [10, 1, 1])

    def test_dead_end_raises(self):
        model = load_model({
            "states": ["s", "d", "g"], "initial": "s", "goals": ["g"], "n": 0,
            "bounds": [],
            "actions": [{"name": "x", "source": "s", "cost": [1],
                         "outcomes": [{"target": "d", "prob": 1.0}]}]})
        with pytest.raises(NoApplicableAction):
            solve_lambda_ssp(model, np.zeros(0), None, zero_heuristic(model))

    def test_projection_coherence(self):
        rng = np.random.default_rng(17)
        for seed in range(25):
            model = random_model(seed, states=12)
            V = fresh_vvf(model)
            V.values[:] = rng.uniform(0, 5, size=V.values.shape)
            lam = rng.uniform(0, 2, size=model.n)
            w = scalar_weights(lam)
            s = int(rng.integers(0, model.num_states))
            if model.is_goal(s):
                continue
            q, a = greedy_backup(model, lam, V, s)
            scal = [float(w @ (act.cost + act.probs @ V.values[act.successors]))
                    for act in action_table(model)[s]]
            # chosen projection ties the scalar minimum to machine precision
            assert float(w @ q) <= min(scal) + 1e-9 * (1 + abs(min(scal)))
            assert float(w @ q) == scal[a]


class TestSolveLambdaSsp:
    def test_plain_mode_can_stop_on_one_optimal_policy(self, two_optima):
        res = solve_lambda_ssp(two_optima, np.zeros(0), printed_vvf(two_optima),
                               zero_heuristic(two_optima))
        assert envelope_of(res) == frozenset({0, 4})
        assert scalar_weights(res.lam) @ res.V.values[0] == pytest.approx(4.0, abs=1e-9)
        # the hidden suboptimal branch keeps its stale value off-envelope
        assert bellman_residual(two_optima, res.V.values, np.zeros(0), 2) > 1e-4

    def test_unconstrained_matches_vi(self):
        for seed in range(40):
            model = random_model(seed, states=20)
            lam = np.zeros(model.n)
            res = solve_lambda_ssp(model, lam, None, ideal_point_heuristic(model))
            vstar = scalarised_vi(model, lam)
            v0 = scalar_weights(res.lam) @ res.V.values[model.initial]
            assert abs(v0 - vstar[model.initial]) <= 1e-4 + 1e-7

    def test_plain_mode_optimality_on_random_instances(self):
        rng = np.random.default_rng(100)
        for seed in range(100):
            model = random_model(seed, states=int(rng.integers(5, 61)))
            lam = rng.uniform(0, 3, size=model.n)
            res = solve_lambda_ssp(model, lam, None, ideal_point_heuristic(model))
            vstar = scalarised_vi(model, lam)
            v0 = scalar_weights(res.lam) @ res.V.values[model.initial]
            assert abs(v0 - vstar[model.initial]) <= 1e-4 + 1e-7, f"seed {seed}"

    def test_goal_only_model(self):
        model = goal_only_model()
        res = solve_lambda_ssp(model, np.zeros(0), None, zero_heuristic(model))
        assert res.choice == {} and envelope_of(res) == frozenset({0})
        assert res.stats.expansions == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_multiplier_is_rejected(self, commute, bad):
        with pytest.raises(ValueError, match="finite"):
            solve_lambda_ssp(commute, [bad, 0.0], None, zero_heuristic(commute))
        with pytest.raises(ValueError, match="finite"):
            as_scalarisation([0.0, bad], 2)

    def test_budget_exhaustion_raises(self):
        model = random_model(3, states=25)
        with pytest.raises(Nonconvergence):
            solve_lambda_ssp(model, np.zeros(model.n), None,
                             ideal_point_heuristic(model), budget=3)

    @pytest.mark.parametrize("epsilon, budget, message", [
        (-1.0, DEFAULT_BUDGET, "epsilon must be finite and positive"),
        (np.nan, DEFAULT_BUDGET, "epsilon must be finite and positive"),
        (0.0, DEFAULT_BUDGET, "epsilon must be finite and positive"),
        (1e-4, 0, "backup budget must be at least 1"),
        (1e-4, -5, "backup budget must be at least 1"),
        (1e-4, 2.5, "backup budget must be at least 1 and whole"),
        (True, DEFAULT_BUDGET, "epsilon must be finite and positive"),
        (np.True_, DEFAULT_BUDGET, "epsilon must be finite and positive"),
        (1e-4, True, "backup budget must be at least 1"),
        (1e-4, np.True_, "backup budget must be at least 1"),
    ])
    def test_bad_epsilon_or_budget_is_rejected_at_entry(self, epsilon, budget, message):
        # the multiplier oracle's rule: without it a negative or NaN epsilon
        # ends deep in the tie-break, a zero one runs without a tie window
        # and a bad budget reads as an exhausted one
        model = finite_penalty_transform(generate(GeneratorSpec("tireworld", n=4, d=3, c=2)),
                                         np.array([100.0, 1.0, 1.0]))
        h = ideal_point_heuristic(model)
        with pytest.raises(ValueError, match=message):
            solve_lambda_ssp(model, np.zeros(model.n), None, h, epsilon=epsilon, budget=budget)
        with pytest.raises(ValueError, match=message):
            LambdaOracle(model, h, epsilon=epsilon, budget=budget)

    def test_budget_boundary_is_the_cold_backup_count(self, request):
        # a sweep is charged in one step, before it runs: a budget of exactly
        # a solve's backup count still returns its result, one less raises
        models = [request.getfixturevalue(name)
                  for name in ("commute", "staircase", "pathological", "two_optima")]
        models.append(finite_penalty_transform(
            generate(GeneratorSpec("tireworld", n=20, d=15, c=3)),
            np.array([500.0, 1.0, 1.0, 1.0])))
        for model in models:
            for lam in (np.zeros(model.n), np.ones(model.n)):
                h = ideal_point_heuristic(model)
                res = solve_lambda_ssp(model, lam, None, h)
                b = res.stats.backups
                again = solve_lambda_ssp(model, lam, None, h, budget=b)
                assert again.V.values.tobytes() == res.V.values.tobytes()
                assert (again.choice, again.stats) == (res.choice, res.stats)
                with pytest.raises(Nonconvergence, match=f"^backup budget {b - 1} exceeded$"):
                    solve_lambda_ssp(model, lam, None, h, budget=b - 1)


class TestWarmRestart:
    def test_same_lambda_empty_gamma_and_no_expansions(self, commute):
        h = ideal_point_heuristic(commute)
        lam = np.array([0.5, 0.5])
        res = solve_lambda_ssp(commute, lam, None, h)
        V = warm_restart(res, lam)
        assert not V.dirty.any()
        res2 = solve_lambda_ssp(commute, lam, V, h)
        assert res2.stats.expansions == 0
        w = scalar_weights(lam)
        assert w @ res2.V.values[0] == pytest.approx(w @ res.V.values[0], abs=1e-12)

    def test_commute_warm_matches_cold(self, commute):
        h = ideal_point_heuristic(commute)
        res0 = solve_lambda_ssp(commute, np.zeros(2), None, h)
        lam = np.array([0.1, 0.0])
        warm = solve_lambda_ssp(commute, lam, warm_restart(res0, lam), h)
        cold = solve_lambda_ssp(commute, lam, None, h)
        assert abs(scalar_weights(lam) @ (warm.V.values[0] - cold.V.values[0])) <= 1e-4

    def test_pathological_warm_matches_cold(self, pathological):
        h = zero_heuristic(pathological)
        res0 = solve_lambda_ssp(pathological, np.zeros(2), None, h)
        lam = np.array([2.0, 2.0])
        warm = solve_lambda_ssp(pathological, lam, warm_restart(res0, lam), h)
        assert scalar_weights(warm.lam) @ warm.V.values[0] == pytest.approx(14.0, abs=1e-9)

    def test_warm_equals_cold_on_random_instances(self):
        rng = np.random.default_rng(300)
        for seed in range(100):
            model = random_model(seed, states=int(rng.integers(5, 26)))
            h = ideal_point_heuristic(model)
            lam_a = rng.uniform(0, 2, size=model.n)
            lam_b = rng.uniform(0, 2, size=model.n)
            res_a = solve_lambda_ssp(model, lam_a, None, h)
            warm = solve_lambda_ssp(model, lam_b, warm_restart(res_a, lam_b), h)
            cold = solve_lambda_ssp(model, lam_b, None, h)
            w = scalar_weights(lam_b)
            assert abs(w @ warm.V.values[model.initial]
                       - w @ cold.V.values[model.initial]) <= 2e-4, f"seed {seed}"

    @pytest.mark.xfail(strict=True, raises=Nonconvergence,
                       reason="_greedy's lexicographic tie-break flips in _Solve.run")
    def test_warm_chain_on_seed_905_does_not_livelock(self):
        # acceptance-family instance 905 (6 states, n=2), evaluated warm along
        # the multipliers an axis-wise line search once visited.  In the last
        # solve, state 1 has actions whose scalarised Q values tie exactly but
        # whose cost vectors differ, and the tie-break flips between them every
        # few sweeps, so the residual never settles and the budget runs out.
        # A cold solve at the last multiplier, or a warm one from (0, 1)
        # alone, converges.
        chain = [("0x0.0p+0", "0x0.0p+0")] * 3 + [
            ("0x0.0p+0", "0x1.0p+0"),
            ("0x0.0p+0", "0x1.ae18f0db37c9bp-2"),
            ("0x0.0p+0", "0x1.ae18f0db37c9bp-2"),
            ("0x0.0p+0", "0x0.0p+0"),
            ("0x0.0p+0", "0x1.0p+0"),
            ("0x0.0p+0", "0x1.ae190dc7c980ep-2"),
        ]
        model = generate(GeneratorSpec("random", states=6 + (7 * 905) % 35,
                                       actions_per_state=3, secondary=2, seed=905))
        orc = LambdaOracle(model, ideal_point_heuristic(model), budget=50_000)
        for lam in chain:
            orc.eval(np.array([float.fromhex(x) for x in lam]))


class TestRepair:
    def test_warm_solve_leaves_no_improving_pair(self):
        # the repair pass's fixed point, checked over every pair at once: no
        # pair of an expanded state undercuts its state's scalarised value by
        # more than the tie window.  Costs are integers, so multipliers on a
        # half-integer grid make exact ties
        rng = np.random.default_rng(41)
        eps = 1e-4
        for seed in range(40):
            model = wide_outcome_model(seed) if seed % 2 else random_model(seed)
            h = ideal_point_heuristic(model)
            lam_a = rng.uniform(0, 2, size=model.n)
            lam_b = rng.choice([0.0, 0.5, 1.0], size=model.n)
            res_a = solve_lambda_ssp(model, lam_a, None, h)
            res = solve_lambda_ssp(model, lam_b, warm_restart(res_a, lam_b),
                                   h, epsilon=eps)
            V, pairs, w = res.V, model.layout, scalar_weights(lam_b)
            scal_q = np.vecdot(pairs.q(V.values), w)
            scal_v = np.vecdot(V.values[pairs.state], w)
            window = np.minimum(eps, _TIE_WINDOW * (1.0 + np.abs(scal_v)))
            expanded = np.isin(pairs.state, pairs.state[V.included])
            assert not (expanded & (scal_q < scal_v - window)).any(), seed

    def test_repair_drops_dirty_pairs_of_unexpanded_states(self):
        # the same warm value function with two dirty sets: the pairs of its
        # expanded states only, and every pair.  The screen drops the pairs
        # of unexpanded states, so the repair pass neither reads nor counts
        # them: values, partial problem and backups come out the same
        rng = np.random.default_rng(42)
        unexpanded = 0
        for seed in range(30):
            model = wide_outcome_model(seed) if seed % 2 else random_model(seed)
            h = ideal_point_heuristic(model)
            lam_a, lam_b = rng.uniform(0, 2, size=(2, model.n))
            V = warm_restart(solve_lambda_ssp(model, lam_a, None, h), lam_b)
            state = model.layout.state
            expanded = np.isin(state, state[V.included])
            unexpanded += not expanded.all()
            out = []
            for dirty in (expanded, np.ones_like(expanded)):
                W = V.copy()
                W.dirty[:] = dirty
                solve = _Solve(model, lam_b, W, h, 1e-4, DEFAULT_BUDGET)
                solve._repair()
                out.append((W.values.tobytes(), W.included.tobytes(),
                            solve.stats.backups))
            assert out[0] == out[1], seed
        assert unexpanded > 10


class TestGreedyEnvelope:
    def test_printed_v_plain_follows_direct(self, two_optima):
        V = with_all_actions(two_optima, printed_vvf(two_optima))
        expanded, seen = traverse(two_optima, V, np.zeros(0))
        assert seen == {0, 4} and not expanded

    def test_goal_only(self):
        model = goal_only_model()
        expanded, seen = traverse(model, fresh_vvf(model), np.zeros(0))
        assert seen == {0} and not expanded

    def test_untouched_states_reported_open(self, commute):
        # only the initial state is expanded; the states its greedy action
        # reaches have no action in the partial problem, so the pass expands
        # them and reports them
        V = fresh_vvf(commute)
        offsets = commute.layout.offsets
        V.included[offsets[0]:offsets[1]] = True
        expanded, seen = traverse(commute, V, np.zeros(2))
        assert expanded and 0 not in expanded and set(expanded) < seen


def acceptance_model(seed):
    """Instance ``seed`` of the acceptance-suite family."""
    return generate(GeneratorSpec("random", states=6 + (7 * seed) % 35,
                                  actions_per_state=2 + seed % 2,
                                  secondary=1 + seed % 2, seed=seed))


def benchmark_tireworld():
    """The benchmark's tireworld: n=100, d=80, c=4, with its give-up penalty."""
    return finite_penalty_transform(generate(GeneratorSpec("tireworld", n=100, d=80, c=4)),
                                    np.array([1000.0, 1.0, 1.0, 1.0, 1.0]))


class TestExpandingPass:
    def test_repair_after_an_expanding_pass_changes_no_value(self, monkeypatch):
        # the premise under which expanding tips inside the traversal picks
        # what stopping at the fringe and repairing level by level would:
        # with a heuristic that is consistent after scalarisation, the repair
        # after a pass that expanded finds no improving pair
        log = []
        dfs, repair = _Solve._dfs, _Solve._repair

        def logged_dfs(self):
            out = dfs(self)
            log.append("expanded" if out[1] else "swept")
            return out

        def logged_repair(self):
            changed = repair(self)
            if log and log[-1] == "expanded":
                log[-1] = "changed" if changed else "unchanged"
            return changed

        monkeypatch.setattr(_Solve, "_dfs", logged_dfs)
        monkeypatch.setattr(_Solve, "_repair", logged_repair)
        rng = np.random.default_rng(11)
        checked = {"cold": 0, "warm": 0}
        for seed in range(0, 800, 10):
            model = acceptance_model(seed)
            # the cutting plane's first cut is at lam = 0, its next ones warm
            lam = rng.choice([1.0, 3.0, 10.0], size=model.n)
            for kind in (ZERO, IDEAL_POINT, LAMBDA_SCALARISED):
                first = None
                for start, lam_b in (("cold", np.zeros(model.n)), ("cold", lam),
                                     ("warm", lam)):
                    V = warm_restart(first, lam_b) if start == "warm" else None
                    log.clear()
                    res = solve_lambda_ssp(model, lam_b, V,
                                           make_heuristic(model, kind, lam_b))
                    assert "changed" not in log, (seed, kind, start, lam_b)
                    checked[start] += log.count("unchanged")
                    first = first or res
        assert checked["cold"] >= 400 and checked["warm"] >= 30, checked

    def test_cold_tireworld_takes_three_traversals(self, monkeypatch):
        # the benchmark's tireworld: one pass expands every tip of the greedy
        # policy, one backup sweep follows and the third pass confirms it
        # (85 passes when each one stopped at the fringe)
        passes = []
        dfs = _Solve._dfs
        monkeypatch.setattr(_Solve, "_dfs", lambda self: passes.append(1) or dfs(self))
        model = benchmark_tireworld()
        res = solve_lambda_ssp(model, np.zeros(model.n), None,
                               ideal_point_heuristic(model))
        assert len(passes) == 3
        assert (res.stats.backups, res.stats.expansions) == (3236, 554)

    def test_cold_tireworld_sweeps_once_and_reads_tips_off_the_pass(self, monkeypatch):
        # the stop rule reads the traversal's own residual, so no sweep runs
        # only to confirm the last one: each of the 554 envelope states is
        # backed up once.  A tip's greedy pair comes from the pass's Q too,
        # so one state's Q vectors are computed only inside a backup
        backed_up, stray, inside = [], [], []
        backup, state_q = _Solve._backup, search._state_q

        def logged_backup(self, s):
            backed_up.append(s)
            inside.append(s)
            backup(self, s)
            inside.pop()

        def logged_state_q(model, values, w, s):
            if not inside:
                stray.append(s)
            return state_q(model, values, w, s)

        monkeypatch.setattr(_Solve, "_backup", logged_backup)
        monkeypatch.setattr(search, "_state_q", logged_state_q)
        model = benchmark_tireworld()
        solve_lambda_ssp(model, np.zeros(model.n), None, ideal_point_heuristic(model))
        assert len(backed_up) == len(set(backed_up)) == 554
        assert not stray


def log_solves(monkeypatch):
    """Patch the search to log every finished solve as (result, ended
    certified, its residual threshold at the end)."""
    log = []
    certify, run = _Solve._certify, _Solve.run

    def logged_certify(self, choice):
        self.certified = certify(self, choice)
        return self.certified

    def logged_run(self):
        res = run(self)
        log.append((res, getattr(self, "certified", False), self._termination_residual()))
        return res

    monkeypatch.setattr(_Solve, "_certify", logged_certify)
    monkeypatch.setattr(_Solve, "run", logged_run)
    return log


class TestCertificate:
    def test_certified_value_is_the_policys_exact_price(self, monkeypatch):
        # a certified solve leaves the greedy policy's own evaluation at s0,
        # bit for bit, over cold and warm solves of the cutting plane
        log = log_solves(monkeypatch)
        certified = 0
        for seed in range(0, 200, 2):
            model = acceptance_model(seed)
            log.clear()
            solve_cssp(model)
            for res, ok, _ in log:
                if ok:
                    exact = evaluate_policy(model, DeterministicPolicy(res.choice).to_stochastic())
                    assert res.V.values[model.initial].tobytes() == exact.tobytes(), seed
                    certified += 1
        assert certified >= 30, certified

    def test_improper_greedy_policy_is_rejected(self, monkeypatch):
        # from the zero heuristic, the greedy policy at s0 walks the cycle
        # s0 -> s1 -> s0 while the values climb towards the exit's cost, so
        # the certificate meets a singular system and the sweeps go on
        raised = []

        def logged_solve(a, b):
            try:
                return solve_linear_system(a, b)
            except SingularMatrix:
                raised.append(len(a))
                raise

        monkeypatch.setattr("scalarplan.model.solve_linear_system", logged_solve)
        model = load_model({
            "states": ["s0", "s1", "g"], "initial": "s0", "goals": ["g"],
            "n": 1, "bounds": [5.0],
            "actions": [
                {"name": "wait", "source": "s0", "cost": [1, 0],
                 "outcomes": [{"target": "s1", "prob": 1.0}]},
                {"name": "back", "source": "s1", "cost": [1, 0],
                 "outcomes": [{"target": "s0", "prob": 1.0}]},
                {"name": "exit", "source": "s0", "cost": [100, 1],
                 "outcomes": [{"target": "g", "prob": 1.0}]}]})
        out = solve_cssp(model, heuristic=ZERO)
        assert raised == [2]
        _, exact, _ = flat_dual_solve(model)
        assert out.cost.tolist() == exact.tolist() == [100.0, 1.0]

    def test_seed_174_stops_on_its_held_policy_within_budget(self):
        # at lam = 0 its greedy policy alternates between two 13-state
        # policies from sweep to sweep; each one that holds over a sweep gets
        # the stop test, so the solve ends inside this budget
        model = acceptance_model(174)
        out = solve_cssp(model, budget=3_000)
        assert out.report.lambda_ssps == 1
        assert out.cost[0] == pytest.approx(oracle_solve(model).cost[0], abs=1e-9)

    def test_certified_final_cut_matches_highs(self, monkeypatch):
        # the certified scalarised value of the last cut against HiGHS on
        # the scalarised occupation-measure LP (flow and sink rows only)
        optimize = pytest.importorskip("scipy.optimize")
        log = log_solves(monkeypatch)
        checked = 0
        for seed in range(200, 400, 2):
            model = acceptance_model(seed)
            log.clear()
            solve_cssp(model)
            res, ok, _ = log[-1]
            if not ok:
                continue
            lp, cols = build_om_lp(model, reachable_states(model))
            w = scalar_weights(res.lam)
            out = optimize.linprog(model.layout.cost[cols] @ w,
                                   A_eq=lp.rows[lp.equal], b_eq=lp.rhs[lp.equal],
                                   bounds=(0, None), method="highs")
            assert out.status == 0, seed
            assert w @ res.V.values[model.initial] == pytest.approx(out.fun, abs=1e-9), seed
            checked += 1
        assert checked >= 20, checked

    def test_uncertified_solves_meet_their_residual_threshold(self, monkeypatch, request):
        # a solve that ends without a certificate stopped on the traversal's
        # residual; recomputed state by state over the returned envelope, it
        # meets the threshold the search stopped on
        log = log_solves(monkeypatch)
        models = [request.getfixturevalue(name)
                  for name in ("commute", "staircase", "pathological", "two_optima")]
        models.append(finite_penalty_transform(
            generate(GeneratorSpec("tireworld", n=20, d=15, c=3)),
            np.array([500.0, 1.0, 1.0, 1.0])))
        models += [random_model(seed) for seed in range(60)]
        models += [wide_outcome_model(seed) for seed in range(60)]
        for model in models:
            try:
                solve_cssp(model)
            except Infeasible:
                pass   # the solves before the multiplier cap are logged
        residuals = [(search_residual(res), bound) for res, ok, bound in log if not ok]
        assert all(r <= bound for r, bound in residuals), residuals
        # most stop at a zero residual; enough of them do not
        assert len(residuals) >= 80 and sum(r > 0 for r, _ in residuals) >= 30

    def test_seed_905_dual_bracket_is_not_inverted(self):
        # its last cut was only epsilon-consistent and put L(lam) 1.97e-8
        # above the master's bound; certified, the cut is exact
        low, ub = solve_cssp(acceptance_model(905)).report.dual_bracket
        assert low <= ub + 1e-12 * (1 + abs(ub))


class TestPairLayout:
    def test_flat_q_is_bit_identical_to_per_action_form(self):
        # the search compares Q values for exact ties, so the flat forms must
        # reproduce cost + probs @ values[successors] and float(w @ q) bit for bit
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = trial % 5
            model = random_outcome_model(rng, int(rng.integers(2, 12)), n)
            pairs = model.layout
            for _ in range(4):
                scale = rng.choice([1.0, 10.0, 1e3])
                values = rng.random((model.num_states, n + 1)) * scale
                w = np.concatenate(([1.0], rng.random(n) * rng.choice([0.0, 1.0, 100.0])))
                flat = pairs.q(values)
                scal = np.vecdot(flat, w)
                # the repair pass's screen gathers its dirty pairs by id, as
                # _Solve._improving does
                idx = rng.permutation(len(pairs.state))
                gathered = pairs.cost.take(idx, axis=0) + np.matmul(
                    pairs.probs.take(idx, axis=0),
                    values.take(pairs.succ.take(idx, axis=0), axis=0))[:, 0, :]
                assert gathered.tobytes() == flat[idx].tobytes()
                for s, acts in enumerate(action_table(model)):
                    lo = pairs.offset_list[s]
                    per_state = pairs.q(values, lo, pairs.offset_list[s + 1])
                    for a, act in enumerate(acts):
                        want = act.cost + act.probs @ values[act.successors]
                        for got in (flat[lo + a], per_state[a], pairs.pair_q(values, lo + a)):
                            assert got.tobytes() == want.tobytes()
                        assert scal[lo + a] == float(w @ want)
                        assert np.vecdot(per_state, w)[a] == float(w @ want)

    def test_one_pair_q_matches_padded_rows_on_wide_outcome_lists(self):
        # with up to 6 outcome slots the per-action form may round otherwise,
        # but a backup or re-check of one pair must agree with the padded
        # rows every other choice and screen reads, or exact ties flip
        rng = np.random.default_rng(9)
        widest = 0
        for seed in range(30):
            model = wide_outcome_model(seed)
            pairs = model.layout
            widest = max(widest, pairs.succ.shape[1])
            for scale in (1.0, 1e3):
                values = rng.random((model.num_states, model.n + 1)) * scale
                flat = pairs.q(values)
                for i in range(len(pairs.state)):
                    assert pairs.pair_q(values, i).tobytes() == flat[i].tobytes(), (seed, i)
        assert widest == 6

    def test_mark_matches_per_state_marks(self):
        # the sweep's batched marks against the per-state ones they replace,
        # on random partial problems and random lists of moved states
        rng = np.random.default_rng(17)
        no_preds = no_actions = 0
        for trial in range(120):
            model = random_outcome_model(rng, int(rng.integers(2, 15)), trial % 3)
            pairs = model.layout
            solve = _Solve(model, np.zeros(model.n), fresh_vvf(model),
                           zero_heuristic(model), 1e-4, DEFAULT_BUDGET)
            V = solve.V
            V.included[:] = rng.random(len(V.included)) < 0.4
            V.dirty[:] = rng.random(len(V.dirty)) < 0.2
            V.touched[:] = rng.random(len(V.touched)) < 0.3
            moved = rng.permutation(model.num_states)[:int(rng.integers(0, model.num_states + 1))]
            want = V.copy()
            reference_mark(model, want, moved.tolist())
            solve._mark(moved.astype(np.intp))
            assert np.array_equal(V.dirty, want.dirty), trial
            assert np.array_equal(V.touched, want.touched), trial
            assert np.array_equal(V.included, want.included)
            counts = np.diff(pairs.pred_ptr)[moved]
            no_preds += int((counts == 0).sum())
            no_actions += int((np.diff(pairs.offsets)[moved] == 0).sum())
        assert no_preds > 20 and no_actions > 20, (no_preds, no_actions)

    def test_traversal_choices_match_per_state_choice(self):
        # reference: the traversal's choice made state by state, as before it
        # was vectorised, over the included actions, or over all actions at
        # a state with none included (a tip, which the pass expands).  Every
        # action has a twin with its two secondary costs swapped, so at
        # lam_1 == lam_2 twins tie and the lexicographic tie-break decides.
        from scalarplan.domains import random_cssp_document

        def twin_model(seed, states):
            doc = random_cssp_document(states, 2, 2, seed)
            doc["actions"] += [{**rec, "name": rec["name"] + "-twin",
                                "cost": [rec["cost"][0], rec["cost"][2], rec["cost"][1]]}
                               for rec in doc["actions"]]
            return load_model(doc)

        def reference(model, V, w, eps):
            choice, tips, tied_states = {}, [], set()
            offsets = model.layout.offset_list
            table = action_table(model)
            for s in range(model.num_states):
                if model.is_goal(s):
                    continue
                acts = V.included[offsets[s]:offsets[s + 1]].nonzero()[0].tolist()
                if not acts:
                    tips.append(s)
                    acts = list(range(len(table[s])))
                qs = [table[s][a].cost + table[s][a].probs @ V.values[table[s][a].successors]
                      for a in acts]
                scal = [float(w @ q) for q in qs]
                m = min(scal)
                window = min(eps, _TIE_WINDOW * (1.0 + abs(m)))
                tied = [(tuple(q), a) for q, a, v in zip(qs, acts, scal) if v <= m + window]
                choice[s] = min(tied)[1]
                if len(tied) > 1:
                    tied_states.add(s)
            return choice, tips, tied_states

        def check(model, V, lam):
            solve = _Solve(model, lam, V, h, 1e-4, 10 ** 8)
            offsets = model.layout.offset_list
            if not V.included[offsets[model.initial]:offsets[model.initial + 1]].any():
                # a partial problem: the initial state's greedy pair, then tips
                _, a = greedy_backup(model, lam, V, model.initial)
                V.included[offsets[model.initial] + a] = True
            want, tips, tied = reference(model, V, scalar_weights(lam), 1e-4)
            included = V.included.copy()
            V.dirty[:] = False   # so that what is dirty after the pass, it marked
            _, expanded, choice, _ = solve._dfs()
            seen = greedy_envelope(model, choice)   # raises if the choice is open
            assert choice == {s: want[s] for s in choice}
            assert set(choice) == {s for s in seen if not model.is_goal(s)}
            # every tip the pass reached, and nothing else, came back expanded:
            # exactly its chosen pair became included, and its pairs are dirty
            assert expanded == [s for s in tips if s in seen]
            newly, dirty = included.copy(), np.zeros_like(V.dirty)
            for s in expanded:
                newly[offsets[s] + choice[s]] = True
                dirty[offsets[s]:offsets[s + 1]] = True
            assert np.array_equal(V.included, newly)
            assert np.array_equal(V.dirty, dirty)
            return len(tied & set(choice)), len(expanded)

        rng = np.random.default_rng(21)
        ties = expanded_count = 0
        for seed in range(24):
            model = twin_model(seed, int(rng.integers(5, 30)))
            h = ideal_point_heuristic(model)
            lam = np.full(2, rng.choice([0.0, 0.5, 1.0]))
            res = solve_lambda_ssp(model, lam, None, h)
            lam2 = rng.choice([0.0, 0.5, 2.0], size=2)
            # with every action in the partial problem, twins tie wherever
            # lam_1 == lam_2
            t, _ = check(model, with_all_actions(model, warm_restart(res, lam)), lam)
            ties += t
            check(model, warm_restart(res, lam2), lam2)
            _, e = check(model, fresh_vvf(model), lam2)
            expanded_count += e
        assert ties > 50 and expanded_count > 20

    def test_layout_indexes_pairs_state_by_state(self):
        # the document's records, shuffled: the loader groups them state by
        # state and keeps each state's records in document order
        rng = np.random.default_rng(8)
        doc = random_outcome_document(rng, 9, 2)
        doc["actions"] = [doc["actions"][k] for k in rng.permutation(len(doc["actions"]))]
        model = load_model(doc)
        pairs = model.layout
        i = 0
        for s, name in enumerate(doc["states"]):
            assert pairs.offset_list[s] == pairs.offsets[s] == i
            assert pairs.goal_mask[s] == model.is_goal(s)
            for rec in doc["actions"]:
                if rec["source"] != name:
                    continue
                succ = [model.state_names.index(out["target"]) for out in rec["outcomes"]]
                probs = [out["prob"] for out in rec["outcomes"]]
                k = len(succ)
                assert model.action_names[i] == rec["name"]
                assert pairs.state[i] == s
                assert pairs.successors[i] == tuple(succ)
                assert pairs.succ[i, :k].tolist() == succ
                assert not pairs.succ[i, k:].any()
                assert pairs.probs[i, 0, :k].tolist() == probs
                assert not pairs.probs[i, 0, k:].any()
                assert pairs.target[i, :k].tolist() == succ
                assert (pairs.target[i, k:] == model.num_states).all()
                assert pairs.cost[i].tolist() == rec["cost"]
                i += 1
        assert pairs.offsets[-1] == i == len(pairs.state) == len(model.action_names)
        assert i > 9 and pairs.succ.shape[1] == 3
        for t in range(model.num_states):
            lo, hi = pairs.pred_ptr[t], pairs.pred_ptr[t + 1]
            assert pairs.pred_ids[lo:hi].tolist() == [
                j for j, succ in enumerate(pairs.successors) if t in succ]
        assert pairs.pred_ptr[-1] == len(pairs.pred_ids)
