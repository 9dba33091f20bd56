import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bicoord.serialization
from bicoord import (
    GeometricSchedule,
    MarketModel,
    PortfolioData,
    ProblemError,
    SvmDataset,
    build_market,
    build_portfolio,
    build_svm_dual,
    from_document,
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    load_problem,
    project,
    save_problem,
    to_document,
)
from bicoord.objectives import (PortfolioObjective, QuadraticObjective,
                                SeparableQuadraticObjective, SvmDualObjective)
from bicoord.problem import (BoxBounds, LinearEquality, ProblemInstance,
                             build_problem)


def shipped_instances(penalty_p=2, smooth_eps=1e-4):
    """One instance of each kind; the SVM dual and the portfolio take their
    penalty's p and smooth_eps from the arguments."""
    svm_data = SvmDataset(features=np.array([[1.0, 0.2], [-0.5, 1.0],
                                             [0.3, -1.0], [-1.0, -0.4]]),
                          labels=np.array([1.0, 1.0, -1.0, -1.0]))
    market = MarketModel(traders=[(1.0, 1.0, 4.0), (2.0, 0.5, 2.0)],
                         buyers=[(5.0, -1.0, 3.0)], b=0.5)
    portfolio = PortfolioData(covariance=np.array([[2.0, 0.3], [0.3, 1.0]]),
                              means=np.array([1.0, 0.5]), target=0.8)
    return {
        "quadratic": gen_quadratic(6, 3.0),
        "quadratic_log": gen_convex_log(6, 3.0),
        "quadratic_log_l1": gen_nonsmooth_l1(6, 3.0, tau=1.6),
        "svm_dual": build_svm_dual(svm_data, tau=10.0, p=penalty_p,
                                   smooth_eps=smooth_eps, upper_cap=50.0),
        "portfolio": build_portfolio(portfolio, tau=10.0, p=penalty_p,
                                     smooth_eps=smooth_eps),
        "market": build_market(market)[0],
    }


@pytest.mark.parametrize("kind", ["quadratic", "quadratic_log",
                                  "quadratic_log_l1", "svm_dual",
                                  "portfolio", "market"])
def test_round_trip_preserves_instance(kind):
    p = shipped_instances()[kind]
    q = from_document(to_document(p))
    assert q.n == p.n
    assert_allclose(q.equality.a, p.equality.a)
    assert q.equality.beta == pytest.approx(p.equality.beta, abs=1e-12)
    assert_allclose(q.bounds.lower, p.bounds.lower)
    assert_allclose(q.bounds.upper, p.bounds.upper)

    rng = np.random.default_rng(41)
    for _ in range(5):
        x = project(rng.uniform(-1.0, 2.0, size=p.n), p)
        assert q.objective.value(x) == pytest.approx(p.objective.value(x),
                                                     rel=1e-12, abs=1e-12)
        assert_allclose(q.objective.gradient(x), p.objective.gradient(x),
                        rtol=1e-12, atol=1e-12)


def test_document_field_names():
    doc = to_document(gen_quadratic(4, 2.0))
    assert set(doc) == {"n", "a", "beta", "lower", "upper", "objective"}
    assert set(doc["objective"]) == {"kind", "params"}
    assert doc["n"] == 4
    assert doc["objective"]["kind"] == "quadratic"
    assert json.dumps(doc)  # plain JSON types only


def test_save_load_round_trip(tmp_path):
    p = gen_nonsmooth_l1(5, 2.0)
    path = tmp_path / "problem.json"
    save_problem(p, path)
    q = load_problem(path)
    x = project(np.full(5, 0.4), p)
    assert q.objective.value(x) == pytest.approx(p.objective.value(x), rel=1e-12)
    assert q.objective.smoothing == p.objective.smoothing


def test_objective_without_spec_rejected():
    p = build_problem(BoxBounds(np.zeros(2), np.ones(2)),
                      LinearEquality(np.ones(2), 1.0),
                      SeparableQuadraticObjective(np.zeros(2), np.ones(2)))
    with pytest.raises(ProblemError, match="serialization spec"):
        to_document(p)


def test_family_objective_built_by_hand_saves():
    p = build_problem(BoxBounds(np.zeros(2), np.ones(2)),
                      LinearEquality(np.ones(2), 1.0),
                      QuadraticObjective(np.eye(2)))
    doc = to_document(p)
    assert doc["objective"] == {"kind": "quadratic",
                                "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}
    q = from_document(doc)
    assert_allclose(q.objective.P, np.eye(2))


@pytest.mark.parametrize("kind", ["svm_dual", "portfolio"])
def test_tightened_penalty_saves_its_smoothing(kind, tmp_path):
    p = shipped_instances(penalty_p=1, smooth_eps=1.6)[kind]
    tight = ProblemInstance(bounds=p.bounds, equality=p.equality,
                            objective=p.objective.with_smoothing(0.4))
    path = tmp_path / "tight.json"
    save_problem(tight, path)
    assert json.loads(path.read_text())["objective"]["params"]["smooth_eps"] == 0.4
    q = load_problem(path)
    assert q.objective.smoothing == 0.4
    x = project(np.full(p.n, 0.3), p)
    assert q.objective.value(x) == tight.objective.value(x)


def test_p2_penalties_write_no_smooth_eps():
    shipped = shipped_instances()
    for kind in ("svm_dual", "portfolio"):
        params = to_document(shipped[kind])["objective"]["params"]
        assert params["p"] == 2
        assert "smooth_eps" not in params


def test_schedule_stage_writes_its_tau():
    p = gen_nonsmooth_l1(6, 3.0, tau=1.6)
    stage = GeometricSchedule(p, 1e-3).stage(2)
    assert stage.problem.objective.smoothing == 0.4
    assert to_document(stage.problem)["objective"]["params"]["tau"] == 0.4
    assert to_document(p)["objective"]["params"]["tau"] == 1.6


def test_hand_built_portfolio_saves_as_the_generic_kind():
    obj = PortfolioObjective(np.array([[2.0, 0.3], [0.3, 1.0]]),
                             np.array([1.0, 0.5]), 0.8, tau=10.0, p=2)
    p = build_problem(BoxBounds(np.zeros(2), np.full(2, 2.0)),
                      LinearEquality(np.array([1.0, 2.0]), 1.5), obj)
    doc = to_document(p)
    assert doc["objective"] == {"kind": "portfolio", "params": {
        "covariance": [[2.0, 0.3], [0.3, 1.0]], "means": [1.0, 0.5],
        "target": 0.8, "tau": 10.0, "p": 2}}
    q = from_document(doc)
    assert_allclose(q.bounds.upper, p.bounds.upper)
    assert_allclose(q.equality.a, p.equality.a)


def test_loaded_portfolio_converts_its_covariance_once(monkeypatch):
    checked = []

    class Recorded(PortfolioData):
        def __post_init__(self):
            super().__post_init__()
            checked.append(self.covariance)

    monkeypatch.setattr(bicoord.serialization, "PortfolioData", Recorded)
    q = from_document(to_document(shipped_instances()["portfolio"]))
    assert len(checked) == 1 and q.objective.C is checked[0]


def test_portfolio_document_with_an_asymmetric_covariance_is_refused():
    doc = to_document(shipped_instances()["portfolio"])
    doc["objective"]["params"]["covariance"] = [[2.0, 0.3], [0.2, 1.0]]
    with pytest.raises(ProblemError, match="covariance must be symmetric"):
        from_document(doc)


@pytest.mark.parametrize("lower, upper, beta", [
    ([1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0], 0.0),
    ([0.0, 0.0, 0.0, 0.0], [2.0, 3.0, 2.0, 2.0], 0.0),
    ([0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0], 1.0),
], ids=["lower_one", "unequal_caps", "beta_one"])
def test_svm_dual_built_by_hand_is_refused(lower, upper, beta):
    labels = np.array([1.0, 1.0, -1.0, -1.0])
    A = labels[:, None] * np.array([[1.0, 0.2], [-0.5, 1.0],
                                    [0.3, -1.0], [-1.0, -0.4]])
    p = build_problem(BoxBounds(np.array(lower), np.array(upper)),
                      LinearEquality(labels, beta),
                      SvmDualObjective(A, tau=10.0, p=2))
    with pytest.raises(ProblemError, match="serialization spec"):
        to_document(p)


def test_unknown_kind_rejected():
    doc = to_document(gen_quadratic(3, 1.5))
    doc["objective"]["kind"] = "mystery"
    with pytest.raises(ProblemError, match="unknown objective kind"):
        from_document(doc)


def test_missing_field_rejected():
    doc = to_document(gen_quadratic(3, 1.5))
    del doc["beta"]
    with pytest.raises(ProblemError, match="malformed"):
        from_document(doc)


@pytest.mark.parametrize("kind,path", [("quadratic_log", ("c",)),
                                       ("market", ("traders", 0, "q")),
                                       ("market", ("traders",)),
                                       ("svm_dual", ("features",))])
def test_missing_objective_param_names_the_field(kind, path):
    doc = to_document(shipped_instances()[kind])
    node = doc["objective"]["params"]
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    with pytest.raises(ProblemError, match=repr(path[-1])):
        from_document(doc)


@pytest.mark.parametrize("field, value, match", [
    ("xi", None, "'xi'"),
    ("kind", ["x"], "kind"),
    ("params", None, "params"),
])
def test_wrongly_typed_field_names_the_field(field, value, match):
    doc = to_document(gen_convex_log(4, 2.0))
    if field == "xi":
        doc["objective"]["params"]["xi"] = value
    else:
        doc["objective"][field] = value
    with pytest.raises(ProblemError, match=match):
        from_document(doc)


@pytest.mark.parametrize("kind, field, value", [
    ("quadratic_log", "c", None),
    ("quadratic_log", "matrix", {"a": 1}),
    ("quadratic_log_l1", "tau", "x"),
    ("svm_dual", "upper_cap", None),
    ("market", "b", [1]),
])
def test_wrongly_typed_param_is_a_problem_error(kind, field, value):
    doc = to_document(shipped_instances()[kind])
    doc["objective"]["params"][field] = value
    with pytest.raises(ProblemError, match=repr(field)):
        from_document(doc)


@pytest.mark.parametrize("field, value", [
    ("n", "x"),
    ("a", ["x", 1, 1]),
    ("beta", "x"),
    ("lower", "abc"),
    ("upper", [1.0, None, {}]),
    ("n", 3.9),
])
def test_non_numeric_field_names_the_field(field, value):
    doc = to_document(gen_quadratic(3, 1.5))
    doc[field] = value
    # n is a count, so a fractional n is rejected too
    what = "an integer" if field == "n" else "numeric"
    with pytest.raises(ProblemError, match=f"field {field!r} is not {what}"):
        from_document(doc)


def test_shape_mismatch_rejected():
    doc = to_document(gen_quadratic(3, 1.5))
    doc["n"] = 4
    with pytest.raises(ProblemError, match="disagree"):
        from_document(doc)


@pytest.mark.parametrize("kind,field", [("svm_dual", "upper"),
                                        ("market", "beta")])
def test_builder_kinds_check_feasible_set(kind, field):
    doc = to_document(shipped_instances()[kind])
    if field == "upper":
        doc["upper"] = [v + 1.0 for v in doc["upper"]]
    else:
        doc["beta"] = doc["beta"] + 1.0
    with pytest.raises(ProblemError, match="disagrees"):
        from_document(doc)


def test_svm_document_in_sign_normalized_coordinates_is_rejected():
    # the dual written in the coordinates label_i * y_i: a = 1, and the box
    # [-cap, 0] for a negative label
    doc = to_document(shipped_instances()["svm_dual"])
    labels = np.array(doc["objective"]["params"]["labels"])
    doc["a"] = [1.0] * len(labels)
    doc["lower"] = np.where(labels > 0, 0.0, -50.0).tolist()
    doc["upper"] = np.where(labels > 0, 50.0, 0.0).tolist()
    with pytest.raises(ProblemError, match="disagrees"):
        from_document(doc)


def test_market_round_trip_via_json_text(tmp_path):
    p = shipped_instances()["market"]
    path = tmp_path / "market.json"
    save_problem(p, path)
    doc = json.loads(path.read_text())
    assert doc["objective"]["kind"] == "market"
    q = from_document(doc)
    assert_allclose(q.bounds.upper, p.bounds.upper)
