"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The twin/measurement criteria are desk-scale analogues on the
synthetic tidal model with pinned seeds, so every run is deterministic.
"""
import time

import numpy as np

from romda import toymodel
from romda.assimilate import (
    AssimilationProblem,
    podpce_cost,
    podpce_gradient,
    solve_poden3dvar,
)
from romda.experiments import (
    MeasurementConfig,
    TwinConfig,
    inject_noise,
    run_covariance_grid,
    run_measurement,
    run_twin,
)
from romda.io import report_csv_text
from romda.optimize import OptimizerConfig
from romda.pce import PceConfig, design_matrix, fit_lars, make_basis, select_degree
from romda.pod import PodBasis, evr, fit_pod, truncate
from romda.rng import substream, substream_seed
from romda.surrogate import (
    Standardizer,
    build_poden,
    build_podpce,
    metamodel_error_covariance,
)

_SUITE_START = time.perf_counter()


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _standardized_twin_pieces(seed, n, modes=None, evr_threshold=None, noise=0.10,
                              pce_degree=3):
    """Toy ensemble, surrogate and standardized problem shared by criteria 3/5."""
    params = toymodel.sample_parameters(n, seed)
    states = toymodel.propagate(params)
    state_std = Standardizer.fit(states)
    param_std = Standardizer.of_box(toymodel.PARAMETER_BOUNDS)
    z_states = state_std.transform(states)
    z_params = param_std.transform(params.T)
    bounds_std = np.column_stack(
        [
            param_std.transform(toymodel.PARAMETER_BOUNDS[:, 0]),
            param_std.transform(toymodel.PARAMETER_BOUNDS[:, 1]),
        ]
    )
    surrogate = build_podpce(
        z_params,
        z_states,
        PceConfig(bounds_std, pce_degree),
        split_seed=substream_seed(seed, f"split/{n}"),
        modes=modes,
        evr_threshold=evr_threshold,
    )
    rng = substream(seed, "truth")
    low, high = toymodel.PARAMETER_BOUNDS[:, 0], toymodel.PARAMETER_BOUNDS[:, 1]
    x_t = low + rng.random(4) * (high - low)
    y_t = toymodel.simulate(x_t)
    y_o, r_diag = inject_noise(y_t, noise, substream_seed(seed, "noise"))
    problem = AssimilationProblem(
        x_b=np.zeros(4),
        background_cov=np.eye(4),
        y_o=state_std.transform(y_o),
        observation_cov=np.diag(state_std.variance_diag(r_diag)),
        bounds=bounds_std,
    )
    return surrogate, problem, bounds_std


def test_criterion_1_pod_correctness() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    ok = True
    details = []
    for trial in range(3):
        data = rng.standard_normal((200, 100)) * rng.uniform(0.5, 2.0)
        basis = fit_pod(data)
        e = basis.n_modes
        orth_phi = np.max(np.abs(basis.modes.T @ basis.modes - np.eye(e)))
        coeff_block = basis.coefficients
        orth_n = np.max(np.abs(coeff_block.T @ coeff_block - np.eye(e)))
        evr_values = np.array([evr(basis, d) for d in range(1, e + 1)])
        monotone = np.all(np.diff(evr_values) >= -1e-14)
        last_is_one = abs(evr_values[-1] - 1.0) <= 1e-12
        recon = basis.mean[:, None] + basis.modes @ np.diag(basis.singular_values) @ basis.coefficients.T
        rel_frob = np.linalg.norm(recon - data) / np.linalg.norm(data)
        ok &= orth_phi <= 1e-10 and orth_n <= 1e-10 and monotone and last_is_one
        ok &= rel_frob <= 1e-8
        details.append(f"trial{trial}: orth {max(orth_phi, orth_n):.2e}, roundtrip {rel_frob:.2e}")

    data = rng.standard_normal((200, 100))
    centered = data - data.mean(axis=1, keepdims=True)
    basis = truncate(fit_pod(data), modes=10)
    phi = basis.modes[:, :basis.retained]
    err_pod = np.linalg.norm(centered - phi @ (phi.T @ centered))
    optimal = True
    for _ in range(20):
        q, r = np.linalg.qr(rng.standard_normal((200, 10)))
        err_q = np.linalg.norm(centered - q @ (q.T @ centered))
        optimal &= err_pod <= err_q + 1e-12
    ok &= optimal
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(
        "criterion 1 (POD correctness)",
        ok,
        f"{'; '.join(details)}; rank-10 optimal vs 20 random bases; {elapsed:.1f}s",
    )


def test_criterion_2_pce_exactness() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    bounds = np.array([[0.0, 1.0], [-2.0, 1.0], [3.0, 7.0], [0.5, 0.6]])
    degree = 3
    basis = make_basis(bounds, degree)
    truth = rng.standard_normal(basis.n_terms)
    n = 2 * basis.n_terms
    x_train = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, 4))
    x_val = rng.uniform(bounds[:, 0], bounds[:, 1], size=(40, 4))
    y_train = design_matrix(x_train, basis) @ truth
    y_val = design_matrix(x_val, basis) @ truth
    model = select_degree(
        x_train, y_train[:, None], x_val, y_val[:, None], PceConfig(bounds, degree)
    )
    coeff_err = float(np.max(np.abs(model.coefficients[0] - truth)))

    unit = make_basis(np.array([[-1.0, 1.0]]), 5)
    samples = rng.uniform(-1, 1, size=(200, 1))
    psi = design_matrix(samples, unit)
    planted = np.zeros(6)
    planted[0], planted[1], planted[3] = 1.0, 0.7, -1.2
    fit = fit_lars(psi, psi @ planted)
    support_ok = set(fit.active) == {1, 3}
    lars_err = float(np.max(np.abs(fit.coefficients - planted)))
    elapsed = time.perf_counter() - start
    ok = coeff_err <= 1e-8 and support_ok and lars_err <= 1e-6 and elapsed < 10.0
    _report(
        "criterion 2 (PCE exactness)",
        ok,
        f"coeff err {coeff_err:.2e} (n={n} >= 2x{basis.n_terms} terms), "
        f"LARS support {sorted(fit.active)} err {lars_err:.2e}; {elapsed:.1f}s",
    )


def test_criterion_3_gradient_fidelity() -> None:
    start = time.perf_counter()
    surrogate, problem, bounds_std = _standardized_twin_pieces(
        seed=1003, n=200, modes=4
    )
    rng = np.random.default_rng(1003)
    span = bounds_std[:, 1] - bounds_std[:, 0]
    lo = bounds_std[:, 0] + 0.1 * span
    hi = bounds_std[:, 1] - 0.1 * span
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(lo, hi)
        grad = podpce_gradient(surrogate, problem, x)
        for i in range(4):
            h = 1e-6 * span[i]
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (podpce_cost(surrogate, problem, xp) - podpce_cost(surrogate, problem, xm)) / (
                2 * h
            )
            worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(
        "criterion 3 (gradient fidelity)",
        ok,
        f"max relative gradient error {worst:.2e} over 20 interior points; {elapsed:.1f}s",
    )


def _criterion_4_instances():
    """Criterion 4's ten PODEn problems (seed 1004, d in 2..5), each with
    its surrogate."""
    rng = np.random.default_rng(1004)
    for trial in range(10):
        m_x, m_y, n = 3, 8, 30
        params = rng.standard_normal((m_x, n))
        g_mat = rng.standard_normal((m_y, m_x))
        states = g_mat @ params + 0.05 * rng.standard_normal((m_y, n))
        d = 2 + trial % 4  # d in 2..5
        s = build_poden(params, states, modes=d)
        a = rng.standard_normal((m_x, m_x))
        b_cov = a @ a.T + m_x * np.eye(m_x)
        c = rng.standard_normal((m_y, m_y))
        r_cov = 0.5 * (c @ c.T) + m_y * np.eye(m_y)
        problem = AssimilationProblem(
            x_b=params[:, 0],
            background_cov=b_cov,
            y_o=states[:, 1] + 0.05 * rng.standard_normal(m_y),
            observation_cov=r_cov,
            bounds=np.column_stack([np.full(m_x, -1e6), np.full(m_x, 1e6)]),
        )
        yield s, problem


# The iterative oracle runs to float-noise convergence; the default
# relative-decrease stop would quit ~1e-7 early on these quadratics.
_ORACLE = OptimizerConfig(tol=1e-13, f_rel_tol=0.0, max_iter=2000)


def test_criterion_4_closed_form_equivalence() -> None:
    start = time.perf_counter()
    worst = 0.0
    for s, problem in _criterion_4_instances():
        closed = solve_poden3dvar(s, problem)
        descent = solve_poden3dvar(s, problem, method="descent", optimizer_config=_ORACLE)
        worst = max(worst, float(np.max(np.abs(closed.nu_a - descent.nu_a))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(
        "criterion 4 (closed-form equivalence)",
        ok,
        f"max |nu_closed - nu_descent| {worst:.2e} over 10 instances (d<=5); {elapsed:.1f}s",
    )


def test_criterion_4_oracle_never_stops_on_a_decrease() -> None:
    # At f_rel_tol = 0 the decrease stop is off: no oracle descent may end
    # on a step that merely failed to lower the cost.
    reasons = [
        solve_poden3dvar(s, problem, method="descent", optimizer_config=_ORACLE).reason
        for s, problem in _criterion_4_instances()
    ]
    assert "f_decrease" not in reasons, reasons


def test_criterion_5_error_covariance_assembly() -> None:
    start = time.perf_counter()
    # Hand case: identity modes, eigenvalues (4, 1), d=1, n=5, delta=0.01, R=0.
    from romda.pce import PceModel
    from romda.surrogate import PodPceSurrogate

    coeffs, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2)))
    hand_basis = PodBasis(
        mean=np.zeros(2),
        modes=np.eye(2),
        singular_values=np.array([2.0, 1.0]),
        coefficients=coeffs,
        retained=1,
    )
    skeleton = make_basis(np.array([[0.0, 1.0]]), 0)
    hand = PodPceSurrogate(
        state_basis=hand_basis,
        pce=PceModel(
            basis=skeleton,
            coefficients=np.zeros((1, 1)),
            empirical_errors=np.array([0.01]),
            selected_degrees=(0,),
            validation_bias=np.zeros(1),
        ),
        n_members=5,
    )
    hand_cov = metamodel_error_covariance(hand, np.zeros((2, 2)))
    hand_ok = np.allclose(hand_cov.matrix, np.diag([0.04, 0.25]), atol=1e-14)

    # Trace identity and PSD on a toy-built surrogate.
    surrogate, problem, _ = _standardized_twin_pieces(seed=1005, n=120, modes=4)
    r_mat = problem.observation_cov
    cov = metamodel_error_covariance(surrogate, r_mat)
    lam = surrogate.state_basis.eigenvalues
    d, n = surrogate.d, surrogate.n_members
    expected = lam[d:].sum() / (n - 1) + float(np.sum(lam[:d] * surrogate.empirical_errors))
    gain = float(np.trace(cov.matrix) - np.trace(r_mat))
    trace_ok = abs(gain - expected) <= 1e-8 * max(expected, 1.0)
    eigs = np.linalg.eigvalsh(cov.matrix - r_mat)
    m_y = r_mat.shape[0]
    psd_ok = eigs.min() >= -1e-10 * np.trace(cov.matrix) / m_y
    elapsed = time.perf_counter() - start
    ok = hand_ok and trace_ok and psd_ok and elapsed < 2.0
    _report(
        "criterion 5 (R-tilde assembly)",
        ok,
        f"hand case diag(0.04, 0.25) {'exact' if hand_ok else 'WRONG'}, "
        f"trace gain err {abs(gain - expected):.2e}, min eig {eigs.min():.2e}; {elapsed:.1f}s",
    )


def test_criterion_6_twin_robustness() -> None:
    start = time.perf_counter()
    config = TwinConfig(
        seed=2026,
        training_sizes=(400,),
        evr_threshold=0.95,
        surrogates=("podpce",),
        covariance_kind="r_tilde",
    )
    report = run_twin(config)
    improvements = []
    values = {}
    for row in report.rows:
        improvements.append(row.rmse_truth < row.rmse_truth_background)
        values[row.noise] = row.rmse_truth
    spread = max(values.values()) - min(values.values())
    span = max(config.noise_levels) - min(config.noise_levels)
    elapsed = time.perf_counter() - start
    ok = all(improvements) and spread < span and elapsed < 60.0
    _report(
        "criterion 6 (twin robustness)",
        ok,
        f"analysis beats background at all {len(values)} noise levels, "
        f"RMSE spread {spread:.3f} < noise span {span:.2f}; {elapsed:.1f}s",
    )


def test_criterion_7_covariance_grid() -> None:
    start = time.perf_counter()
    config = TwinConfig(seed=2026, training_sizes=(400,), grid_noise=0.10, grid_modes=5)
    report = run_covariance_grid(config)
    size = len(config.alpha_grid)  # rows in grid order: alpha_b outer, alpha_r inner
    matrix = np.array([row.rmse_truth for row in report.rows]).reshape(size, size)
    diag_mean = float(np.mean(np.diag(matrix)))
    off_mean = float(np.mean(matrix[~np.eye(matrix.shape[0], dtype=bool)]))
    low_r = next(r for r in report.rows if r.alpha_b == 1.0 and r.alpha_r == 0.01)
    ref = next(r for r in report.rows if r.alpha_b == 1.0 and r.alpha_r == 1.0)
    elapsed = time.perf_counter() - start
    ok = diag_mean <= off_mean and low_r.rmse_truth >= ref.rmse_truth and elapsed < 90.0
    _report(
        "criterion 7 (covariance grid)",
        ok,
        f"diag mean {diag_mean:.4f} <= off-diag mean {off_mean:.4f}; "
        f"(aR=0.01, aB=1) {low_r.rmse_truth:.4f} >= (1, 1) {ref.rmse_truth:.4f}; {elapsed:.1f}s",
    )


def test_criterion_8_classical_confrontation() -> None:
    start = time.perf_counter()
    rng = substream(909, "hidden")
    low, high = toymodel.PARAMETER_BOUNDS[:, 0], toymodel.PARAMETER_BOUNDS[:, 1]
    x_hidden = low + rng.random(4) * (high - low)
    y_o = toymodel.simulate(x_hidden)
    config = MeasurementConfig(
        seed=909,
        assumed_noise=0.01,
        training_sizes=(400,),
        evr_threshold=0.999,  # d = 4 on this ensemble: all parameters observable
        surrogates=("podpce",),
        covariance_kinds=("r",),
    )
    report = run_measurement(config, y_o)
    classical = report.rows[0]
    pstd = Standardizer.of_box(toymodel.PARAMETER_BOUNDS)
    recovery = float(
        np.max(np.abs(pstd.transform(classical.x_a) - pstd.transform(x_hidden)))
    )
    iterations = report.extras["classical_iterations"]
    count_ok = classical.model_runs >= iterations * 2 * 4
    surrogate_rows = [r for r in report.rows if r.solver == "podpce"]
    gap = max(r.rmse_obs - classical.rmse_obs for r in surrogate_rows)
    calls_ok = all(r.model_runs == r.n == 400 for r in surrogate_rows)
    elapsed = time.perf_counter() - start
    ok = recovery <= 1e-3 and gap <= 0.02 and count_ok and calls_ok and elapsed < 120.0
    _report(
        "criterion 8 (classical confrontation)",
        ok,
        f"classical recovery {recovery:.2e} std (runs {classical.model_runs} >= "
        f"{iterations}x8), surrogate gap {gap:.4f} <= 0.02 with 400 ensemble calls; "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_rtilde_convergence_speed() -> None:
    start = time.perf_counter()
    rng = substream(909, "hidden")
    low, high = toymodel.PARAMETER_BOUNDS[:, 0], toymodel.PARAMETER_BOUNDS[:, 1]
    x_hidden = low + rng.random(4) * (high - low)
    y_o = toymodel.simulate(x_hidden)
    config = MeasurementConfig(
        seed=909,
        assumed_noise=0.01,
        training_sizes=(16, 24, 32, 48, 64, 128, 256, 400),
        mode_numbers=(4,),
        surrogates=("podpce",),
        covariance_kinds=("r", "r_tilde"),
    )
    report = run_measurement(config, y_o)
    classical_rmse = report.rows[0].rmse_obs
    n_star = {}
    for kind in ("r", "r_tilde"):
        rows = sorted(
            (r for r in report.rows[1:] if r.covariance == kind), key=lambda r: r.n
        )
        hits = [r.n for r in rows if r.rmse_obs <= classical_rmse + 0.05]
        n_star[kind] = min(hits) if hits else float("inf")
    elapsed = time.perf_counter() - start
    ok = n_star["r_tilde"] <= n_star["r"] and np.isfinite(n_star["r_tilde"]) and elapsed < 180.0
    _report(
        "criterion 9 (R-tilde convergence speed)",
        ok,
        f"n*(R_tilde)={n_star['r_tilde']} <= n*(R)={n_star['r']} at d=4, "
        f"tolerance 0.05 above classical; {elapsed:.1f}s",
    )


def test_criterion_10_full_twin_determinism() -> None:
    start = time.perf_counter()
    first = report_csv_text(run_twin(TwinConfig(seed=77)), seed=77, cfg_hash="default")
    second = report_csv_text(run_twin(TwinConfig(seed=77)), seed=77, cfg_hash="default")
    identical = first == second
    elapsed = time.perf_counter() - start
    suite_elapsed = time.perf_counter() - _SUITE_START
    ok = identical and suite_elapsed < 300.0
    _report(
        "criterion 10 (determinism)",
        ok,
        f"default twin sweep ({first.count(chr(10)) - 2} rows) rerun bit-identical: "
        f"{identical}; rerun {elapsed:.1f}s, whole suite {suite_elapsed:.1f}s < 300s",
    )
