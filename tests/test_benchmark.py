import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (
    BenchmarkSpec,
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    interaction_matrix,
    project,
    protocol_start,
    reference_cell,
    render_csv,
    render_markdown,
    run_benchmark,
    run_cell_detailed,
)


# ----------------------------------------------------------- instance grid


class TestInstanceFamilies:
    def test_coupling_entries(self):
        P = interaction_matrix(5)
        assert P[0, 1] == pytest.approx(np.sin(1.0) * np.cos(2.0))
        assert P[3, 1] == pytest.approx(np.sin(2.0) * np.cos(4.0))
        assert_allclose(P, P.T)

    @pytest.mark.parametrize("n", [2, 3, 100, 1000, 1500])
    def test_coupling_matches_dense_formula(self, n):
        # the formula over full n x n grids, bit for bit; at n = 1000 and
        # 1500 the row blocks (65 and 43 rows) do not divide n
        idx = np.arange(1, n + 1, dtype=float)
        s, c = np.sin(idx), np.cos(idx)
        ref = np.where(idx[:, None] < idx[None, :], s[:, None] * c[None, :],
                       s[None, :] * c[:, None])
        np.fill_diagonal(ref, 0.0)
        np.fill_diagonal(ref, np.abs(ref).sum(axis=0) + 1.0)
        assert np.array_equal(interaction_matrix(n), ref)

    def test_dense_build_allocates_no_second_matrix(self):
        # P takes 8 n^2 bytes; the rest is the fill's row block of absolute
        # values, numpy's ufunc buffers and the O(n) vectors, well below the
        # 2^17 doubles (1 MiB) allowed here, while an n x n temporary would
        # add 32 MB (a boolean one 4 MB)
        n = 2000
        gen_convex_log(10, 10.0)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            gen_convex_log(n, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * n * n + 8 * (1 << 17)

    def test_coupling_diagonal_dominance(self):
        P = interaction_matrix(12)
        off = np.abs(P).sum(axis=0) - np.abs(np.diag(P))
        assert np.all(np.diag(P) == pytest.approx(off + 1.0))
        # Gershgorin: every eigenvalue at least 1
        assert np.linalg.eigvalsh(P).min() >= 1.0 - 1e-9

    def test_feasible_set_profile(self):
        p = gen_quadratic(10, 5.0)
        idx = np.arange(1, 11, dtype=float)
        assert_allclose(p.bounds.upper, 1.0 + 0.5 + 0.5 * np.sin(idx))
        assert_allclose(p.bounds.lower, np.zeros(10))
        assert_allclose(p.equality.a, np.ones(10))
        assert p.equality.beta == 5.0

    def test_start_point_interior(self):
        for beta in (5.0, 10.0, 20.0):
            p = gen_quadratic(10, beta)
            z0 = protocol_start(p)
            assert_allclose(z0, np.full(10, beta / 10.0))
            assert np.all(z0 > p.bounds.lower)
            assert np.all(z0 < p.bounds.upper)
            assert p.equality.a @ z0 == pytest.approx(beta)

    def test_log_term_values(self):
        p = gen_convex_log(10, 5.0)
        assert p.objective.c[2] == pytest.approx(2.0 + np.sin(3.0))
        assert p.objective.value(np.zeros(10)) == pytest.approx(-np.log(5.0))

    def test_smoothed_l1_offset_at_zero(self):
        n, tau = 10, 1.6
        p2 = gen_convex_log(n, 5.0)
        p3 = gen_nonsmooth_l1(n, 5.0, tau)
        gap = p3.objective.value(np.zeros(n)) - p2.objective.value(np.zeros(n))
        assert gap == pytest.approx(n * tau)

    def test_surrogate_gap_bounded(self):
        n, tau = 8, 0.3
        p2 = gen_convex_log(n, 4.0)
        p3 = gen_nonsmooth_l1(n, 4.0, tau)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(0.0, 1.0, size=n)
            exact = p2.objective.value(x) + np.abs(x).sum()
            gap = p3.objective.value(x) - exact
            assert 0.0 < gap <= n * tau + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 60), beta=st.floats(0.01, 100.0),
           spread=st.sampled_from([0.1, 1.0, 100.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_l1_term_is_constant_on_family_3s_feasible_set(self, n, beta,
                                                           spread, seed):
        # 0 <= x and sum x = beta there, so ||x||_1 = beta: the l1 term adds a
        # constant, and family 3's converged cells certify the smoothed
        # surrogate, not the unsmoothed problem
        p = gen_nonsmooth_l1(n, beta)
        z = np.random.default_rng(seed).normal(beta / n, spread * beta, n)
        x = project(z, p)
        assert (x >= 0.0).all()
        assert abs(np.abs(x).sum() - beta) <= n * 2.0**-52 * beta

    def test_generator_guards(self):
        with pytest.raises(ValueError, match="n >= 2"):
            gen_quadratic(1, 5.0)
        with pytest.raises(ValueError, match="beta"):
            gen_quadratic(10, 0.0)


# ----------------------------------------------------------------- running


class TestRunCell:
    def test_quadratic_small_cell(self):
        cell = run_cell_detailed(1, 5.0, 10, "bcv").cell
        assert cell.converged
        assert 0 < cell.iterations <= 500
        assert cell.delta <= 0.1
        assert cell.tau is None
        assert cell.seconds >= 0.0

    def test_smoothed_cell_reaches_target_tau(self):
        cell = run_cell_detailed(3, 5.0, 10, "bcv").cell
        assert cell.converged
        # 1.6 halves four times to exactly the 0.1 floor
        assert cell.tau == 0.1

    def test_unknown_series_rejected(self):
        with pytest.raises(ValueError, match="series"):
            run_cell_detailed(7, 5.0, 10, "bcv")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            run_cell_detailed(1, 5.0, 10, "newton")


class TestReferenceTable:
    def test_family1_lookup(self):
        assert reference_cell(1, 5.0, 10, "cgm").iterations == 66
        assert reference_cell(1, 5.0, 10, "bcv").iterations == 30
        mbc = reference_cell(1, 5.0, 10, "mbc")
        assert not mbc.converged
        assert mbc.delta == pytest.approx(1.28)

    def test_exceeds_one_marker(self):
        ref = reference_cell(1, 10.0, 20, "mbc")
        assert not ref.converged
        assert ref.exceeds_one

    def test_missing_cell_is_none(self):
        assert reference_cell(1, 7.0, 10, "bcv") is None
        assert reference_cell(9, 5.0, 10, "bcv") is None

    def test_smoothed_family_has_no_mbc(self):
        spec = BenchmarkSpec()
        assert spec.methods_for(3) == ("cgm", "bcv")
        assert spec.methods_for(1) == ("cgm", "bcv", "mbc")


@pytest.fixture(scope="module")
def small_report():
    spec = BenchmarkSpec(betas=(5.0,), sizes=(10,))
    return spec, run_benchmark(spec)


class TestReportAndRendering:
    def test_grid_completeness(self, small_report):
        spec, report = small_report
        keys = {(c.series, c.beta, c.n, c.method) for c in report.cells}
        assert len(keys) == len(report.cells) == 8
        assert (3, 5.0, 10, "mbc") not in keys
        assert (1, 5.0, 10, "mbc") in keys

    def test_cell_invariants(self, small_report):
        spec, report = small_report
        for c in report.cells:
            assert c.iterations <= spec.cap
            if c.converged:
                assert c.delta <= spec.accuracy
                if c.series == 3:
                    assert c.tau is not None and c.tau <= spec.accuracy
        assert report.total_seconds > 0.0

    def test_markdown_shape(self, small_report):
        spec, report = small_report
        text = render_markdown(report)
        assert "| beta | n | CGM | BCV | MBC |" in text
        assert "| beta | n | CGM | BCV |" in text
        assert "(ref 30)" in text          # published family-1 cell
        # every cell converges, so only a reference quotes a bound
        assert "Δ_500 ≈" in text
        assert "(ref Δ_500 ≈ 1.28)" in text

    def test_markdown_unconverged_cells(self):
        # at a cap of 2 steps no cell converges, so each quotes its bound,
        # family 3 with its tau; mbc's published cell is "above 1"
        spec = BenchmarkSpec(series=(1, 3), betas=(10.0,), sizes=(20,), cap=2)
        report = run_benchmark(spec)
        assert not any(c.converged for c in report.cells)
        text = render_markdown(report)
        assert text.count("Δ_2 ≈") == len(report.cells) == 5
        cgm3 = next(c for c in report.cells if (c.series, c.method) == (3, "cgm"))
        assert f"| Δ_2 ≈ {cgm3.delta:.3g}, τ = 1.6 (ref 123) |" in text
        assert "(ref Δ_2 > 1)" in text

    def test_csv_schema_and_reference_columns(self, small_report):
        spec, report = small_report
        text = render_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == ("series,beta,n,method,converged,iterations,delta,"
                            "tau,ref_iterations,ref_delta,ref_tau")
        assert len(lines) == 1 + len(report.cells)
        by_method = {line.split(",")[3]: line for line in lines[1:4]}
        assert by_method["bcv"].split(",")[8] == "30"
        assert by_method["mbc"].split(",")[9] == "1.28"

    def test_csv_stable_across_runs(self, small_report):
        spec, report = small_report
        again = run_benchmark(spec)
        assert render_csv(again) == render_csv(report)
        assert render_markdown(again) == render_markdown(report)
