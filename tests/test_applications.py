import json
import tracemalloc

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (
    MarketModel,
    PortfolioData,
    ProblemError,
    SolverConfig,
    SvmDataset,
    bcv_solve,
    build_market,
    build_portfolio,
    build_svm_dual,
    check_stationarity,
    load_market_json,
    load_svm_csv,
    market_from_document,
    split_market_point,
    svm_cap_binding,
    svm_primal,
    to_document,
    verify_market_equilibrium,
)
from bicoord.objectives import smooth_plus


def solve_to(problem, accuracy, max_iter=5000):
    cfg = SolverConfig(target_accuracy=accuracy, max_inner_iterations=max_iter)
    return bcv_solve(problem, cfg)


# ---------------------------------------------------------------- SVM dual


class TestSvmDataset:
    def test_rejects_1d_features(self):
        with pytest.raises(ProblemError, match="2-d"):
            SvmDataset(features=np.ones(3), labels=np.array([1.0, -1.0, 1.0]))

    def test_rejects_non_sign_labels(self):
        with pytest.raises(ProblemError, match=r"\+-1"):
            SvmDataset(features=np.ones((2, 1)), labels=np.array([1.0, 0.0]))

    def test_rejects_single_class(self):
        with pytest.raises(ProblemError, match="both classes"):
            SvmDataset(features=np.ones((2, 1)), labels=np.array([1.0, 1.0]))

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(ProblemError, match="number of rows"):
            SvmDataset(features=np.ones((3, 2)), labels=np.array([1.0, -1.0]))

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ProblemError, match="finite"):
            SvmDataset(features=np.array([[np.inf], [0.0]]),
                       labels=np.array([1.0, -1.0]))


class TestSvmDual:
    def two_point_data(self):
        return SvmDataset(features=np.array([[1.0], [-1.0]]),
                          labels=np.array([1.0, -1.0]))

    def test_two_point_instance_shape(self):
        # the dual's own coordinates: weights in [0, cap], a = labels
        p = build_svm_dual(self.two_point_data(), upper_cap=10.0)
        assert p.n == 2
        assert p.equality.beta == 0.0
        assert_allclose(p.equality.a, [1.0, -1.0])
        assert_allclose(p.bounds.lower, [0.0, 0.0])
        assert_allclose(p.bounds.upper, [10.0, 10.0])

    def test_two_point_solution_balances(self):
        p = build_svm_dual(self.two_point_data(), tau=10.0, upper_cap=10.0)
        res = solve_to(p, 1e-6)
        assert res.stop_reason == "converged"
        assert abs(p.equality.a @ res.point) <= 1e-10
        assert res.point.min() >= 0.0

    def test_value_at_zero_p2(self):
        # all hinge arguments are -1 at y = 0, so only -sum y survives
        p = build_svm_dual(self.two_point_data(), tau=10.0, p=2)
        assert p.objective.value(np.zeros(2)) == pytest.approx(0.0)

    def test_value_at_zero_p1_smoothed(self):
        rng = np.random.default_rng(7)
        data = SvmDataset(features=rng.normal(size=(10, 3)),
                          labels=np.array([1.0, -1.0] * 5))
        eps = 1e-3
        p = build_svm_dual(data, tau=10.0, p=1, smooth_eps=eps)
        # at y = 0 every one-sided term is (+-0 - 1)_+ smoothed at -1
        expect = 10.0 * 3 * 2 * smooth_plus(np.array([-1.0]), eps)[0]
        assert p.objective.value(np.zeros(10)) == pytest.approx(expect, rel=1e-12)

    def test_separable_points_classified(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(loc=(2.0, 2.0), scale=0.4, size=(10, 2))
        neg = rng.normal(loc=(-2.0, -2.0), scale=0.4, size=(10, 2))
        data = SvmDataset(features=np.vstack([pos, neg]),
                          labels=np.concatenate([np.ones(10), -np.ones(10)]))
        p = build_svm_dual(data, tau=10.0, p=2, upper_cap=1e3)
        res = solve_to(p, 1e-4, max_iter=20000)
        assert res.stop_reason == "converged"
        w, bias, support = svm_primal(data, res.point)
        pred = np.sign(data.features @ w + bias)
        assert np.array_equal(pred, data.labels)
        assert support >= 2
        assert svm_cap_binding(res.point, 1e3).size == 0

    def test_primal_recovery_formula(self):
        data = self.two_point_data()
        # w = features^T (labels * y)
        y = np.array([0.5, 0.5])
        w, bias, support = svm_primal(data, y)
        assert_allclose(w, [1.0])
        # rows give 1 - 0.5*... symmetric, bias averages to zero
        assert bias == pytest.approx(0.0)
        assert support == 2

    def test_primal_zero_point(self):
        w, bias, support = svm_primal(self.two_point_data(), np.zeros(2))
        assert_allclose(w, [0.0])
        assert bias == 0.0
        assert support == 0

    def test_cap_binding_detection(self):
        y = np.array([0.0, 999.9999999, 1e3, 4.0])
        hits = svm_cap_binding(y, 1e3)
        assert hits.tolist() == [1, 2]

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ProblemError, match="upper_cap"):
            build_svm_dual(self.two_point_data(), upper_cap=0.0)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("1,0.5,2.0\n-1,-0.5,1.0\n")
        data = load_svm_csv(path)
        assert data.n_rows == 2
        assert_allclose(data.labels, [1.0, -1.0])
        assert_allclose(data.features, [[0.5, 2.0], [-0.5, 1.0]])

    def test_csv_rejects_label_only_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("1\n-1\n")
        with pytest.raises(ProblemError, match="feature column"):
            load_svm_csv(path)


# --------------------------------------------------------------- portfolio


class TestPortfolio:
    def test_rejects_asymmetric_covariance(self):
        C = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ProblemError, match="symmetric"):
            PortfolioData(covariance=C, means=np.ones(2), target=1.0)

    @pytest.mark.parametrize("C", [
        [[np.inf, 0.0], [0.0, 1.0]], [[1.0, -np.inf], [-np.inf, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]])
    def test_rejects_non_finite_covariance(self, C):
        # a NaN entry once read as "covariance must be symmetric"
        with pytest.raises(ProblemError, match="covariance must be finite"):
            PortfolioData(covariance=np.array(C), means=np.ones(2), target=1.0)

    def test_rejects_indefinite_covariance(self):
        C = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ProblemError, match="semidefinite"):
            PortfolioData(covariance=C, means=np.ones(2), target=1.0)

    @pytest.mark.parametrize("means, target, name", [
        ([np.nan, 1.0, 2.0], 1.0, "means"), ([0.0, np.inf, 2.0], 1.0, "means"),
        ([0.0, 1.0, 2.0], np.nan, "target"), ([0.0, 1.0, 2.0], -np.inf, "target")])
    def test_rejects_non_finite_returns(self, means, target, name):
        # a NaN mean once gave a converged solve with error bound 0
        with pytest.raises(ProblemError, match=f"{name} must be finite"):
            PortfolioData(covariance=np.eye(3), means=means, target=target)

    def test_rejects_mean_shape_mismatch(self):
        with pytest.raises(ProblemError, match="means"):
            PortfolioData(covariance=np.eye(2), means=np.ones(3), target=1.0)

    def test_simplex_instance(self):
        data = PortfolioData(covariance=np.eye(3), means=np.ones(3), target=0.5)
        p = build_portfolio(data)
        assert_allclose(p.equality.a, np.ones(3))
        assert p.equality.beta == 1.0
        assert_allclose(p.bounds.lower, np.zeros(3))
        assert_allclose(p.bounds.upper, np.ones(3))

    def test_symmetric_assets_split_evenly(self):
        # identical assets meeting the target: pure risk, minimized at 1/n
        data = PortfolioData(covariance=np.eye(2), means=np.array([1.0, 1.0]),
                             target=0.5)
        res = solve_to(build_portfolio(data, tau=10.0, p=2), 1e-8)
        assert res.stop_reason == "converged"
        assert_allclose(res.point, [0.5, 0.5], atol=1e-6)

    def test_shortfall_penalty_closed_form(self):
        # C = diag(2, 2), means (2, 0), target 2, weight t on asset 1:
        # f(t) = 2 t^2 + 2 (1-t)^2 + (tau/2) (2 - 2t)_+^2, minimum at (1+tau)/(2+tau)
        tau = 1000.0
        data = PortfolioData(covariance=2.0 * np.eye(2),
                             means=np.array([2.0, 0.0]), target=2.0)
        p = build_portfolio(data, tau=tau, p=2)
        t_star = (1.0 + tau) / (2.0 + tau)

        grid = np.linspace(0.0, 1.0, 2001)
        vals = [p.objective.value(np.array([t, 1.0 - t])) for t in grid]
        assert grid[int(np.argmin(vals))] == pytest.approx(t_star, abs=1e-3)

        res = solve_to(p, 1e-6, max_iter=20000)
        assert res.stop_reason == "converged"
        assert res.point[0] == pytest.approx(t_star, abs=1e-4)


# -------------------------------------------------- smoothed penalties (p = 1)


def svm_instance(p, smooth_eps=1e-4):
    rng = np.random.default_rng(7)
    data = SvmDataset(features=rng.normal(size=(10, 3)),
                      labels=np.array([1.0, -1.0] * 5))
    return build_svm_dual(data, tau=10.0, p=p, smooth_eps=smooth_eps,
                          upper_cap=1.0)


def portfolio_instance(p, smooth_eps=1e-4):
    data = PortfolioData(covariance=np.diag([1.0, 2.0, 3.0]),
                         means=np.array([2.0, 1.0, 0.0]), target=1.5)
    return build_portfolio(data, tau=10.0, p=p, smooth_eps=smooth_eps)


@pytest.mark.parametrize("build", [svm_instance, portfolio_instance])
def test_p1_penalty_walks_the_smoothing_ladder(build):
    # smooth_eps 1.6 is above the accuracy, so the stages rebuild the
    # objective through with_smoothing at 0.8, 0.4, 0.2 and 0.1
    problem = build(1, smooth_eps=1.6)
    res = solve_to(problem, 0.1)
    assert res.stop_reason == "converged"
    assert res.stages_completed == 5
    assert res.smoothing == 0.1
    obj = problem.objective.with_smoothing(0.4)
    assert type(obj) is type(problem.objective)
    assert (obj.smoothing, obj.tau, obj.p) == (0.4, 10.0, 1)
    assert obj.value(res.point) == build(1, smooth_eps=0.4).objective.value(res.point)


@pytest.mark.parametrize("build", [svm_instance, portfolio_instance])
def test_p2_penalty_has_no_smoothing_to_tighten(build):
    obj = build(2).objective
    assert obj.smoothing is None
    with pytest.raises(ValueError, match="no smoothing parameter"):
        obj.with_smoothing(0.1)


def kept_by(build, *args):
    """(result of build(*args), bytes it still holds once built)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build(*args)
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_builders_keep_no_copy_of_their_data():
    # the SVM dual holds A = labels * features and two n-vectors of bounds;
    # the portfolio shares the covariance and adds three n-vectors
    rng = np.random.default_rng(3)
    labels = np.where(np.arange(20_000) % 2 == 0, 1.0, -1.0)
    svm = SvmDataset(rng.standard_normal((20_000, 10)), labels)
    p, kept = kept_by(build_svm_dual, svm)
    assert kept < 1.5 * p.objective.A.nbytes
    B = rng.standard_normal((500, 500))
    data = PortfolioData(B @ B.T / 500.0, rng.uniform(0.0, 0.2, 500), 0.1)
    p, kept = kept_by(build_portfolio, data)
    assert p.objective.C is data.covariance
    assert kept < 0.1 * data.covariance.nbytes


# ------------------------------------------------------------------ market


class TestMarketModel:
    def test_rejects_single_agent(self):
        with pytest.raises(ProblemError, match="two agents"):
            MarketModel(traders=[(1.0, 1.0, 1.0)], buyers=[])

    def test_rejects_decreasing_trader_price(self):
        with pytest.raises(ProblemError, match="trader"):
            MarketModel(traders=[(1.0, -1.0, 1.0)], buyers=[(3.0, -1.0, 1.0)])

    def test_rejects_increasing_buyer_price(self):
        with pytest.raises(ProblemError, match="buyer"):
            MarketModel(traders=[(1.0, 1.0, 1.0)], buyers=[(3.0, 1.0, 1.0)])

    def test_rejects_unreachable_net_supply(self):
        with pytest.raises(ProblemError, match="net supply"):
            MarketModel(traders=[(1.0, 1.0, 1.0)], buyers=[(3.0, -1.0, 1.0)],
                        b=2.0)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ProblemError, match="cap must be positive"):
            MarketModel(traders=[(1.0, 1.0, 0.0)], buyers=[(3.0, -1.0, 1.0)])

    @pytest.mark.parametrize("side, column, name", [
        ("traders", 0, "'p'"), ("buyers", 1, "'q'"), ("traders", 2, "'cap'")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_quote(self, side, column, name, value):
        quotes = {"traders": [[1.0, 1.0, 4.0]], "buyers": [[3.0, -1.0, 2.0]]}
        quotes[side][0][column] = value
        with pytest.raises(ProblemError, match=f"{side[:-1]} quote field {name}"):
            MarketModel(**quotes)

    def test_rejects_rows_of_the_wrong_width(self):
        with pytest.raises(ProblemError, match=r"rows \(p, q, cap\)"):
            MarketModel(traders=[(1.0, 1.0)], buyers=[(3.0, -1.0, 2.0)])

    def test_columns_are_read_only_copies(self):
        traders = np.array([[1.0, 2.0, 1.0]])
        m = MarketModel(traders=traders, buyers=[(3.0, -1.0, 2.0)])
        assert m.traders.dtype == float and m.buyers.shape == (1, 3)
        assert not m.traders.flags.writeable
        traders[0, 0] = 9.0
        assert m.traders[0, 0] == 1.0

    def test_coerces_dict_quotes(self):
        m = market_from_document(
            {"traders": [{"p": 1.0, "q": 2.0, "cap": 1.0}],
             "buyers": [{"p": 3, "q": -1, "cap": 2}]})
        assert m.traders.tolist() == [[1.0, 2.0, 1.0]]
        assert m.buyers.tolist() == [[3.0, -1.0, 2.0]]
        assert m.b == 0.0

    @pytest.mark.parametrize("row, match", [
        ({"p": 1.0, "cap": 4.0}, "lacks field 'q'"),
        ({"p": "x", "q": 1.0, "cap": 4.0}, "field 'p' is not numeric"),
        ({"p": 1.0, "q": [1.0], "cap": 4.0}, "field 'q' is not numeric"),
        ({"p": 1.0, "q": 1.0, "cap": {}}, "field 'cap' is not numeric"),
        ({"p": 1.0, "q": 1.0, "cap": None}, "field 'cap' must be finite"),
        ({"p": float("nan"), "q": 1.0, "cap": 4.0}, "field 'p' must be finite"),
        ({"p": 1.0, "q": 1.0, "cap": 4.0, "c": 1.0}, "unknown field 'c'"),
        ([1.0, 1.0, 4.0], "must be a list of objects"),
    ])
    def test_document_row_errors_name_the_field(self, row, match):
        doc = {"traders": [{"p": 1.0, "q": 1.0, "cap": 4.0}, row],
               "buyers": [{"p": 3.0, "q": -1.0, "cap": 2.0}]}
        with pytest.raises(ProblemError, match=f"trader quote.*{match}"):
            market_from_document(doc)

    @pytest.mark.parametrize("traders", [5, "pqc", {"p": 1.0, "q": 1.0, "cap": 4.0}])
    def test_quotes_that_are_not_a_list_say_so(self, traders):
        doc = {"traders": traders, "buyers": [{"p": 3.0, "q": -1.0, "cap": 2.0}]}
        with pytest.raises(ProblemError,
                           match="trader quotes must be a list of objects"):
            market_from_document(doc)

    @pytest.mark.parametrize("doc", [[], "market", 1.0, None])
    def test_document_that_is_not_an_object_names_it(self, doc):
        with pytest.raises(ProblemError,
                           match="market document is not a JSON object"):
            market_from_document(doc)

    @pytest.mark.parametrize("b", [None, "x", [0.0]])
    def test_non_numeric_b_names_the_field(self, b):
        doc = {"traders": [{"p": 1.0, "q": 1.0, "cap": 4.0}],
               "buyers": [{"p": 3.0, "q": -1.0, "cap": 2.0}], "b": b}
        with pytest.raises(ProblemError, match="market field 'b' is not numeric"):
            market_from_document(doc)

    def test_json_round_trip(self, tmp_path):
        doc = {"traders": [{"p": 1.0, "q": 2.0, "cap": 1.5}],
               "buyers": [{"p": 3.0, "q": -1.0, "cap": 2.0}], "b": 0.25}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        m = load_market_json(path)
        assert m.b == 0.25
        assert m.traders[0, 2] == 1.5
        assert m.buyers[0, 1] == -1.0
        assert to_document(build_market(m)[0])["objective"] == {
            "kind": "market", "params": doc}


def one_trader_one_buyer():
    # marginal cost 1 + t, marginal value 3 - s: clears at t = s = 1, price 2
    return MarketModel(traders=[(1.0, 1.0, 4.0)], buyers=[(3.0, -1.0, 2.0)],
                       b=0.0)


class TestMarketBuild:
    def test_normalized_coordinates(self):
        p, sign_map = build_market(one_trader_one_buyer())
        assert_allclose(p.equality.a, np.ones(2))
        assert p.equality.beta == 0.0
        assert_allclose(p.bounds.lower, [0.0, -2.0])
        assert_allclose(p.bounds.upper, [4.0, 0.0])
        assert_allclose(sign_map.signs, [1.0, -1.0])

    def test_traders_only_supply_split(self):
        m = MarketModel(traders=[(1.0, 1.0, 3.0), (1.0, 1.0, 3.0)],
                        buyers=[], b=2.0)
        p, sign_map = build_market(m)
        assert_allclose(p.equality.a, np.ones(2))
        assert p.equality.beta == 2.0
        assert_allclose(sign_map.signs, np.ones(2))
        res = solve_to(p, 1e-8)
        x, y = split_market_point(m, res.point, sign_map)
        assert y.size == 0
        assert_allclose(x, [1.0, 1.0], atol=1e-6)

    def test_scaled_gradient_is_own_price(self):
        m = one_trader_one_buyer()
        p, sign_map = build_market(m)
        point = np.array([1.5, -0.75])
        x, y = split_market_point(m, point, sign_map)
        h = p.objective.gradient(point) / p.equality.a
        (tp, tq, _), (bp, bq, _) = m.traders[0], m.buyers[0]
        assert h[0] == tp + tq * x[0]
        assert h[1] == bp + bq * y[0]

    def test_split_lengths(self):
        m = MarketModel(traders=[(1.0, 0.5, 1.0), (2.0, 0.0, 1.0)],
                        buyers=[(5.0, -1.0, 1.0)])
        p, sign_map = build_market(m)
        x, y = split_market_point(m, np.zeros(3), sign_map)
        assert x.shape == (2,)
        assert y.shape == (1,)

    def test_document_round_trip_keeps_the_columns(self):
        m = MarketModel(traders=[(1.0, 0.0, 1.0)], buyers=[(0.0, -0.0, 2.0)],
                        b=-0.5)
        p, _ = build_market(m)
        back = market_from_document(to_document(p)["objective"]["params"])
        assert back.traders.tobytes() == m.traders.tobytes()
        assert back.buyers.tobytes() == m.buyers.tobytes()
        assert back.b == m.b


class TestMarketEquilibrium:
    def test_one_trader_one_buyer_clears(self):
        m = one_trader_one_buyer()
        p, sign_map = build_market(m)
        res = solve_to(p, 1e-4)
        assert res.stop_reason == "converged"
        x, y = split_market_point(m, res.point, sign_map)
        assert x[0] == pytest.approx(1.0, abs=1e-2)
        assert y[0] == pytest.approx(1.0, abs=1e-2)
        report = verify_market_equilibrium(m, x, y, tol=1e-2)
        assert report.equilibrium
        assert report.price == pytest.approx(2.0, abs=1e-2)
        assert abs(report.balance_residual) <= 1e-10

    def test_priced_out_market(self):
        # cheapest ask 3 meets highest bid 3 only at zero volume
        m = MarketModel(traders=[(3.0, 1.0, 0.5)], buyers=[(3.0, -1.0, 2.0)],
                        b=0.0)
        report = verify_market_equilibrium(m, [0.0], [0.0], tol=1e-6)
        assert report.equilibrium
        assert report.price == pytest.approx(3.0)

        # forcing volume 0.5 through leaves ask 3.5 above bid 2.5
        report = verify_market_equilibrium(m, [0.5], [0.5], tol=1e-6)
        assert not report.equilibrium
        assert report.max_violation == pytest.approx(1.0)

    def test_imbalance_fails(self):
        m = one_trader_one_buyer()
        report = verify_market_equilibrium(m, [1.5], [1.0], tol=1e-2)
        assert not report.equilibrium
        assert report.balance_residual == pytest.approx(0.5)

    def test_allocation_outside_box_raises(self):
        m = one_trader_one_buyer()
        with pytest.raises(ValueError, match="trader"):
            verify_market_equilibrium(m, [5.0], [1.0])
        with pytest.raises(ValueError, match="buyer"):
            verify_market_equilibrium(m, [1.0], [-1.0])
        with pytest.raises(ValueError, match="buyer"):
            verify_market_equilibrium(m, [1.0], [np.nan])

    def test_allocation_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="lengths"):
            verify_market_equilibrium(one_trader_one_buyer(), [1.0, 2.0], [1.0])

    def test_unlimited_price_is_zero(self):
        # caps within 2 boundary_tol pin both agents at both bounds, so no
        # agent limits the price
        m = MarketModel(traders=[(1.0, 1.0, 1e-3)], buyers=[(3.0, -1.0, 1e-3)])
        report = verify_market_equilibrium(m, [5e-4], [5e-4], tol=1e-2)
        assert report.equilibrium
        assert report.price == 0.0
        assert report.max_violation == 0.0

    def test_random_markets_clear_and_match_stationarity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n_t = int(rng.integers(1, 4))
            n_b = int(rng.integers(1, 4))
            traders = [(rng.uniform(1.0, 5.0), rng.uniform(0.0, 2.0),
                        rng.uniform(0.5, 2.0)) for _ in range(n_t)]
            buyers = [(rng.uniform(1.0, 5.0), rng.uniform(-2.0, 0.0),
                       rng.uniform(0.5, 2.0)) for _ in range(n_b)]
            m = MarketModel(traders=traders, buyers=buyers, b=0.0)
            p, sign_map = build_market(m)
            res = solve_to(p, 1e-4, max_iter=10000)
            assert res.stop_reason == "converged"
            x, y = split_market_point(m, res.point, sign_map)

            report = verify_market_equilibrium(m, x, y, tol=1e-2)
            assert report.equilibrium
            # single-price clearing is exactly multiplier stationarity of the
            # potential in normalized coordinates, at the same tolerance
            stat = check_stationarity(p, res.point, tol=1e-2)
            assert stat.stationary
            assert report.max_violation == pytest.approx(
                stat.worst_violation, abs=1e-12)


def per_agent_equilibrium(model, x, y, tol, boundary_tol=None):
    """verify_market_equilibrium as a loop over agents, the way it was
    written before it called check_stationarity; the reference for the
    property test below. Returns (equilibrium, price, max_violation,
    balance_residual)."""
    if boundary_tol is None:
        boundary_tol = tol
    lam_lo, lam_hi = -np.inf, np.inf
    for (p, q, cap), t in zip(model.traders.tolist(), x.tolist()):
        price = p + q * t
        if t > boundary_tol:            # selling: marginal cost at most lam
            lam_lo = max(lam_lo, price)
        if t < cap - boundary_tol:      # spare capacity: would sell above lam
            lam_hi = min(lam_hi, price)
    for (p, q, cap), t in zip(model.buyers.tolist(), y.tolist()):
        price = p + q * t
        if t < cap - boundary_tol:      # remaining demand: values extras below lam
            lam_lo = max(lam_lo, price)
        if t > boundary_tol:            # buying: marginal value at least lam
            lam_hi = min(lam_hi, price)
    violation = max(0.0, lam_lo - lam_hi)
    if np.isfinite(lam_lo) and np.isfinite(lam_hi):
        price = 0.5 * (lam_lo + lam_hi)
    elif np.isfinite(lam_lo):
        price = lam_lo
    elif np.isfinite(lam_hi):
        price = lam_hi
    else:
        price = 0.0
    residual = float(x.sum() - y.sum()) - model.b
    equilibrium = (violation <= tol
                   and abs(residual) <= tol * max(1.0, abs(model.b)))
    return equilibrium, price, violation, residual


@st.composite
def market_allocations(draw):
    """A market of 2 to 40 agents, a tolerance, and an allocation in the box
    with some agents exactly at 0 or at cap and some within 2 tol of one.

    Prices are either drawn freely or placed within a few tol of one
    clearing price at the allocation, where every agent's bound status can
    move the verdict and the price."""
    tol = draw(st.sampled_from([1e-2, 1e-6]))
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, n))
    near_clearing = draw(st.booleans())
    lam = draw(st.floats(-5.0, 5.0))
    # 0.5 puts "near" agents exactly tol from their bound
    unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    quotes, alloc = [], []
    for i in range(n):
        q = draw(st.floats(0.0, 2.0)) * (1.0 if i < m else -1.0)
        cap = draw(st.floats(1e-3, 10.0))
        kind = draw(st.sampled_from(["zero", "cap", "inside", "near zero",
                                     "near cap"]))
        u = draw(unit)
        t = {"zero": 0.0, "cap": cap, "inside": u * cap,
             "near zero": min(cap, 2.0 * tol * u),
             "near cap": max(0.0, cap - 2.0 * tol * u)}[kind]
        # excluded: within rounding of cap - tol, t < cap - tol (the loop)
        # and cap - t <= tol (check_stationarity) may disagree
        assume(abs(t - (cap - tol)) > 4.0 * np.spacing(cap))
        if near_clearing:
            p = lam - q * t + tol * draw(st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0]))
        else:
            p = draw(st.floats(-5.0, 5.0))
        quotes.append((p, q, cap))
        alloc.append(t)
    balanced = float(sum(alloc[:m]) - sum(alloc[m:]))
    model = MarketModel(traders=quotes[:m], buyers=quotes[m:],
                        b=draw(st.sampled_from([balanced, 0.0])))
    return model, np.array(alloc[:m]), np.array(alloc[m:]), tol


@settings(max_examples=300, deadline=None)
@given(case=market_allocations())
def test_equilibrium_report_matches_the_per_agent_loop(case):
    model, x, y, tol = case
    rep = verify_market_equilibrium(model, x, y, tol=tol)
    assert (rep.equilibrium, rep.price, rep.max_violation,
            rep.balance_residual) == per_agent_equilibrium(model, x, y, tol)


@pytest.mark.parametrize("side, bound", [("trader", "zero"), ("trader", "cap"),
                                         ("buyer", "zero"), ("buyer", "cap")])
def test_agent_exactly_boundary_tol_from_a_bound_counts_as_at_it(side, bound):
    # dyadic data, so cap - tol and cap - t are exact and both tests agree;
    # the agent under test asks or bids 3.5, every other agent 2
    tol, cap = 0.25, 4.0
    t = tol if bound == "zero" else cap - tol
    quotes = {"trader": [(2.0, 0.0, cap), (2.0, 0.0, cap)],
              "buyer": [(2.0, 0.0, cap), (2.0, 0.0, cap)]}
    quotes[side][0] = (3.5, 0.0, cap)
    model = MarketModel(traders=quotes["trader"], buyers=quotes["buyer"])
    x = np.array([t if side == "trader" else 1.0, 1.0])
    y = np.array([t if side == "buyer" else 1.0, 1.0])
    rep = verify_market_equilibrium(model, x, y, tol=tol)
    expected = per_agent_equilibrium(model, x, y, tol)
    assert (rep.equilibrium, rep.price, rep.max_violation,
            rep.balance_residual) == expected
    # the agent is out of the price limits that would flag it: a trader
    # at 0 or a buyer at cap sets no lower limit, the others no upper one
    assert rep.max_violation == (0.0 if (side, bound) in (("trader", "zero"),
                                                          ("buyer", "cap"))
                                 else 1.5)
