"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Three clauses assert externally quoted target values that contradict exact
arithmetic on the very objects they refer to; those are marked strict-xfail
with the discrepancy explained, and each is paired with a regular test that
pins the arithmetically consistent value:

* the four-state chain's optimal coefficient: the quoted 1.5512 does not
  match the ergodicity coefficient of the chain's exact group inverse,
  which is 1368/1083 = 1.26316 (the printed inverse itself is reproduced
  entrywise to 1e-9);
* the climb/reset periodic chain's constant-profile drift vector violates
  the unit drift inequality at state 1 for any small offset, so no
  certificate-checked bound can return 2/p^2 from it; the minimal drift
  function (hitting times) gives 2 (2/p)^2;
* the single-server queue's weighted stationary mass: multiplying the
  drift equality by pi gives pi(V) = b pi(0) / lambda = 1.5 at these
  rates, not b / lambda = 2 (the taboo-state mass cannot be dropped).
"""

import time

import numpy as np
import pytest

from mcperturb import (
    DriftViolated,
    IntensityMatrix,
    UnitDriftCertificate,
    birth_death_hitting_times,
    ctmc_deviation_matrix,
    ctmc_ergodicity_coefficient,
    ctmc_stationary,
    batch_arrival_drift,
    ergodicity_coefficient,
    group_inverse,
    hitting_time_bound,
    hitting_times,
    mm1_coefficients,
    seneta_bound,
    seneta_best_bound,
    small_set_bound,
    stationary_matrix,
    unit_drift_bound,
    uniformize,
    value_iteration_hitting,
)
from mcperturb.errors import HypothesisFailed
from mcperturb.gallery import (
    batch_arrival,
    birth_death,
    funderlic8,
    geometric_return,
    hessenberg_gi_m_1,
    meyer4,
    mm1,
    odd_even,
)
from mcperturb.verify import deviation_matrix, fuzz_bounds, identity_residuals
from tests.test_hitting_times import (
    balanced_birth_death_vectors,
    drifted_birth_death_vectors,
)


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def gallery_instances():
    generic_a = np.array([-1.2, 1.0, 0.2])
    generic_b = np.array([3.0, -3.5, 0.3, 0.2])
    periodic_a = np.r_[0.0, np.full(19, 0.5), 1.0]
    periodic_b = np.r_[1.0, np.full(19, 0.5), 0.0]
    return [
        funderlic8(),
        meyer4(),
        hessenberg_gi_m_1(truncation=200),
        odd_even(truncation=200),
        odd_even(truncation=200, periodic=True),
        birth_death(n=20),
        birth_death(n=20, a=periodic_a, b=periodic_b, c=1 - periodic_a - periodic_b),
        geometric_return(truncation=200),
        mm1(truncation=200),
        batch_arrival(generic_a, generic_b, truncation=100),
    ]


class TestCriterion1:
    def test_funderlic_optimal_coefficient(self, funderlic):
        start = time.perf_counter()
        value = ergodicity_coefficient(group_inverse(funderlic.chain))
        elapsed = time.perf_counter() - start
        ok = abs(value - 11.3352) <= 1e-3 and elapsed < 1.0
        verdict("1", ok,
                f"funderlic8 Lambda1(A#) = {value:.6f} (target 11.3352 +/- 1e-3), "
                f"runtime {elapsed:.3f}s < 1s")
        assert abs(value - 11.3352) <= 1e-3
        assert elapsed < 1.0


class TestCriterion2:
    def test_funderlic_one_step_small_set(self, funderlic):
        rep, cert = small_set_bound(funderlic.chain, m_max=1)
        ok = cert.m == 1 and abs(rep.ell - 11.3636) <= 1e-3
        verdict("2", ok,
                f"funderlic8 small-set m=1 ell = {rep.ell:.6f} "
                f"(target 11.3636 +/- 1e-3, nu_1 = {cert.nu_mass:.3f})")
        assert cert.m == 1
        assert rep.ell == pytest.approx(11.3636, abs=1e-3)


class TestCriterion3:
    @pytest.mark.xfail(
        strict=True,
        reason="quoted coefficient 1.5512 is inconsistent with the printed "
               "group inverse: the row-pair scan of the exact (2/1083)-scaled "
               "matrix gives 1368/1083 = 1.263158, reproduced independently "
               "by brute force; no implementation can produce 1.5512 from "
               "this chain",
    )
    def test_meyer_quoted_optimal_coefficient(self, meyer):
        rep = seneta_best_bound(meyer.chain)
        verdict("3a", abs(rep.ell - 1.5512) <= 1e-3,
                f"meyer4 seneta_best ell = {rep.ell:.6f} vs quoted 1.5512 "
                "(known inconsistency: exact value is 1368/1083)")
        assert rep.ell == pytest.approx(1.5512, abs=1e-3)

    def test_meyer_optimal_coefficient_exact_value(self, meyer, meyer_group_inverse_exact):
        rep = seneta_best_bound(meyer.chain)
        exact = 1368.0 / 1083.0
        brute = max(
            0.5 * np.abs(meyer_group_inverse_exact[i] - meyer_group_inverse_exact[j]).sum()
            for i in range(4) for j in range(4)
        )
        ok = abs(rep.ell - exact) <= 1e-12 and abs(brute - exact) <= 1e-12
        verdict("3a'", ok,
                f"meyer4 seneta_best ell = {rep.ell:.12f} matches the exact "
                f"group-inverse coefficient 1368/1083 = {exact:.12f}")
        assert rep.ell == pytest.approx(exact, abs=1e-12)

    def test_meyer_small_set(self, meyer):
        rep, cert = small_set_bound(meyer.chain, m_max=2)
        ok = cert.m == 2 and abs(rep.ell - 3.2) <= 1e-12
        verdict("3b", ok, f"meyer4 small-set m=2 ell = {rep.ell!r} (target 3.2 exactly)")
        assert rep.ell == pytest.approx(3.2, abs=1e-12)

    def test_meyer_group_inverse_entrywise(self, meyer, meyer_group_inverse_exact):
        X = group_inverse(meyer.chain)
        err = np.abs(X - meyer_group_inverse_exact).max()
        verdict("3c", err <= 1e-9,
                f"meyer4 group inverse matches printed matrix, max error {err:.2e}")
        assert err <= 1e-9


class TestCriterion4:
    def test_small_set_two_step(self):
        model = odd_even(p=0.5, truncation=200)
        rep, cert = small_set_bound(model.chain, m_max=2)
        ok = cert.m == 2 and abs(rep.ell - 8.0) <= 1e-12
        verdict("4a", ok,
                f"climb/reset p=0.5 small-set m=2 ell = {rep.ell!r} (target 8 = 2/p^2)")
        assert rep.ell == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        raises=DriftViolated,
        reason="the constant-profile drift vector V = (0, s/p, (1+s)/p, ...) "
               "fails the unit drift inequality at state 1 for any small "
               "offset s: P V(1) = (1-p)(1+s)/p while V(1) - 1 = s/p - 1, "
               "and the gap (1 + s(1-p))/p - s/p stays near 1/p > 0 as s -> 0. "
               "A certificate-validating bound must reject it; the minimal "
               "valid drift function (hitting times) gives 2 (2/p)^2 = 32, "
               "not 2/p^2 = 8",
    )
    def test_periodic_constant_drift_profile(self):
        p = 0.5
        s = 1e-6
        model = odd_even(p=p, truncation=200, periodic=True)
        V = np.full(model.chain.n, (1 + s) / p)
        V[0] = 0.0
        V[1] = s / p
        try:
            rep = unit_drift_bound(model.chain, UnitDriftCertificate(0, V))
        except DriftViolated as exc:
            verdict("4b", False,
                    f"constant-profile drift vector rejected ({exc}); "
                    "the quoted 2/p^2 has no valid certificate behind it")
            raise
        verdict("4b", abs(rep.ell - 8.0) <= 1e-4 * 8.0,
                f"periodic variant drift ell = {rep.ell}")
        assert rep.ell == pytest.approx(8.0, rel=1e-4)

    def test_periodic_minimal_drift_value(self):
        # the valid route: hitting-time drift of the periodic chain
        p = 0.5
        model = odd_even(p=p, truncation=200, periodic=True)
        m = hitting_times(model.chain, 0)
        cert = UnitDriftCertificate(0, m)
        rep = unit_drift_bound(model.chain, cert)
        expected = 2.0 * (2.0 / p) ** 2
        ok = abs(rep.ell - expected) <= 1e-9
        verdict("4b'", ok,
                f"periodic variant minimal-drift ell = {rep.ell:.6f} "
                f"= 2 (sup m)^2 with sup m = {m.max():.6f} = 2/p")
        assert m.max() == pytest.approx(2.0 / p, abs=1e-9)
        assert rep.ell == pytest.approx(expected, abs=1e-9)


class TestCriterion5:
    def test_queue_drift_parameters(self):
        cert = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=200)
        z0 = cert.weights.values[1]
        ok = (abs(z0 - 2.0) <= 1e-9 and abs(cert.lam - 1.0) <= 1e-9
              and abs(cert.b - 2.0) <= 1e-9)
        verdict("5a", ok,
                f"queue drift: z0 = {z0:.12f}, lambda = {cert.lam:.12f}, "
                f"b = {cert.b:.12f} (targets 2, 1, 2 +/- 1e-9)")
        assert z0 == pytest.approx(2.0, abs=1e-9)
        assert cert.lam == pytest.approx(1.0, abs=1e-9)
        assert cert.b == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="the quoted identity pi(V) = b/lambda drops the taboo-state "
               "mass: multiplying the drift equality by pi gives "
               "pi(V) = b pi(0) / lambda exactly. At sigma=1, mu=4 the "
               "stationary tail is geometric with ratio 1/4 and pi(V) = "
               "(1 - 1/4) / (1 - 1/2) = 1.5, while b/lambda = 2; both the "
               "closed form and the componentwise solve confirm 1.5",
    )
    def test_queue_quoted_weighted_mass(self):
        model = mm1(sigma=1.0, mu=4.0, truncation=200)
        cert = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=200)
        pi = ctmc_stationary(model.chain, method="gth")
        pi_v = float(pi.values @ cert.weights.values)
        verdict("5b", abs(pi_v - 2.0) <= 1e-6,
                f"queue pi(V) = {pi_v:.9f} vs quoted b/lambda = 2 "
                "(known inconsistency: exact value is b pi(0)/lambda = 1.5)")
        assert pi_v == pytest.approx(2.0, abs=1e-6)

    def test_queue_weighted_mass_exact_identity(self):
        model = mm1(sigma=1.0, mu=4.0, truncation=200)
        cert = batch_arrival_drift(*mm1_coefficients(1.0, 4.0), n_states=200)
        pi = ctmc_stationary(model.chain, method="gth")
        pi_v = float(pi.values @ cert.weights.values)
        expected = cert.b * float(pi.values[0]) / cert.lam
        ok = abs(pi_v - expected) <= 1e-6 and abs(pi_v - 1.5) <= 1e-6
        verdict("5b'", ok,
                f"queue pi(V) = {pi_v:.9f} equals b pi(0)/lambda = {expected:.9f} "
                "(and the geometric closed form 1.5)")
        assert pi_v == pytest.approx(expected, abs=1e-6)
        assert pi_v == pytest.approx(1.5, abs=1e-6)
        # the drift consequence holds as an inequality, as it must
        assert pi_v <= cert.b / cert.lam + 1e-9


class TestCriterion6:
    def test_identity_suite(self):
        worst = {"perturbation_identity": 0.0, "taboo_inverse_identity": 0.0,
                 "deviation_identity": 0.0}
        for model in gallery_instances():
            res = identity_residuals(model, magnitude=0.01, seed=0)
            for key, val in res.items():
                worst[key] = max(worst[key], val)
                assert val <= 1e-8, f"{model.name}: {key} residual {val:.3e}"
        ok = all(v <= 1e-8 for v in worst.values())
        verdict("6", ok,
                "identity residuals over the gallery: "
                + ", ".join(f"{k} <= {v:.2e}" for k, v in worst.items()))
        assert ok


class TestCriterion7:
    def test_three_way_oracle_agreement(self):
        records = []
        # down-drifted chain, length 100, descent target
        a, b, c = drifted_birth_death_vectors(100, seed=3)
        chain = birth_death(n=100, a=a, b=b, c=c).chain
        solved = hitting_times(chain, 0)
        iterated = value_iteration_hitting(chain, 0, tol=1e-14)
        closed = birth_death_hitting_times(a, b, c, 0)
        records.append(("drifted n=100", np.abs(solved - iterated).max(),
                        np.abs(solved - closed).max()))
        # balanced chain, length 20, interior target
        a, b, c = balanced_birth_death_vectors(20, seed=5)
        chain = birth_death(n=20, a=a, b=b, c=c).chain
        solved = hitting_times(chain, 7)
        iterated = value_iteration_hitting(chain, 7, tol=1e-14)
        closed = birth_death_hitting_times(a, b, c, 7)
        records.append(("balanced n=20", np.abs(solved - iterated).max(),
                        np.abs(solved - closed).max()))
        # balanced chain, length 100: solve vs closed form at three targets
        a, b, c = balanced_birth_death_vectors(100, seed=3)
        chain = birth_death(n=100, a=a, b=b, c=c).chain
        for target in (0, 50, 100):
            solved = hitting_times(chain, target)
            closed = birth_death_hitting_times(a, b, c, target)
            records.append((f"balanced n=100 target {target}", 0.0,
                            np.abs(solved - closed).max()))
        ok = all(vi <= 1e-8 and cf <= 1e-8 for _, vi, cf in records)
        verdict("7a", ok,
                "; ".join(f"{name}: |solve-iterate| <= {vi:.1e}, "
                          f"|solve-closed| <= {cf:.1e}" for name, vi, cf in records))
        for name, vi, cf in records:
            assert vi <= 1e-8, name
            assert cf <= 1e-8, name

    def test_geometric_return_constant_times(self):
        model = geometric_return(p=0.5, truncation=200)
        solved = hitting_times(model.chain, 0)
        iterated = value_iteration_hitting(model.chain, 0, tol=1e-14)
        ok = (np.abs(solved[1:] - 2.0).max() <= 1e-9
              and np.abs(iterated[1:] - 2.0).max() <= 1e-9)
        verdict("7b", ok,
                f"geometric-return m(i->0) = 1/p for all i >= 1 "
                f"(max dev {np.abs(solved[1:] - 2.0).max():.2e}); the often-"
                "quoted closed form 1/(1-q) - 1/q^i disagrees and goes negative")
        np.testing.assert_allclose(solved[1:], 2.0, atol=1e-9)
        np.testing.assert_allclose(iterated[1:], 2.0, atol=1e-9)
        quoted = 1 / 0.5 - 1 / 0.5 ** np.arange(1, 8)
        assert quoted.min() < 0


class TestCriterion8:
    def test_fuzz_all_models_two_magnitudes(self):
        models = [
            funderlic8(),
            meyer4(),
            hessenberg_gi_m_1(truncation=200),
            odd_even(truncation=200),
            birth_death(n=20),
            geometric_return(truncation=200),
            mm1(truncation=200),
        ]
        start = time.perf_counter()
        total_cases = 0
        total_violations = 0
        lines = []
        for model in models:
            for magnitude in (0.001, 0.01):
                summary = fuzz_bounds(model, n_cases=1000, magnitude=magnitude,
                                      seed=20240601)
                total_cases += summary.n_cases
                total_violations += summary.n_violations
                lines.append(f"{model.name}@{magnitude}: {summary.n_cases} cases, "
                             f"{summary.n_violations} violations")
        elapsed = time.perf_counter() - start
        ok = total_violations == 0 and elapsed < 60.0
        verdict("8", ok,
                f"{total_cases} fuzz cases, {total_violations} violations, "
                f"runtime {elapsed:.1f}s < 60s")
        for line in lines:
            print("   ", line)
        assert total_violations == 0
        assert elapsed < 60.0


class TestCriterion9:
    def test_optimal_coefficient_dominates(self):
        models = [
            funderlic8(),
            meyer4(),
            hessenberg_gi_m_1(truncation=200),
            odd_even(truncation=200),
            birth_death(n=20),
            geometric_return(truncation=200),
        ]
        lines = []
        for model in models:
            P = model.chain
            best = seneta_best_bound(P).ell
            others = {}
            try:
                others["seneta"] = seneta_bound(P).ell
            except HypothesisFailed:
                pass
            try:
                others["small_set"] = small_set_bound(P, m_max=8)[0].ell
            except HypothesisFailed:
                pass
            others["hitting_drift"] = hitting_time_bound(P).ell
            for name, ell in others.items():
                assert best <= ell + 1e-9, f"{model.name}: {name} = {ell} < {best}"
            lines.append(f"{model.name}: Lambda1(A#) = {best:.4f} <= "
                         + ", ".join(f"{k} = {v:.4f}" for k, v in others.items()))
        verdict("9", True, "optimal coefficient is smallest on every model")
        for line in lines:
            print("   ", line)


class TestCriterion10:
    def test_transfer_identities(self):
        two_state = IntensityMatrix([[-1.0, 1.0], [1.0, -1.0]])
        queue = mm1(truncation=60).chain
        cases = [(two_state, (0.2, 0.3, 0.45)), (queue, (0.02, 0.05, 0.1))]
        worst_lam = 0.0
        worst_dev = 0.0
        for Q, steps in cases:
            lam_q = ctmc_ergodicity_coefficient(Q)
            D = ctmc_deviation_matrix(Q)
            pi = ctmc_stationary(Q)
            Pi = stationary_matrix(pi)
            # independent algebraic route: (Pi - Q)^{-1} - Pi
            D_direct = np.linalg.solve(Pi - Q.entries, np.eye(Q.n)) - Pi
            worst_dev = max(worst_dev, float(np.abs(D - D_direct).max()))
            for h in steps:
                chain = uniformize(Q, h).matrix
                lam_h = ergodicity_coefficient(chain.entries)
                worst_lam = max(worst_lam, abs(lam_h - (1 - h * lam_q)))
                D_h = deviation_matrix(chain)
                worst_dev = max(worst_dev, float(np.abs(h * D_h - D).max()))
        ok = worst_lam <= 1e-8 and worst_dev <= 1e-8
        verdict("10", ok,
                f"skeleton transfer: max |Lambda1(P_h) - (1 - h Lambda1(Q))| = "
                f"{worst_lam:.2e}, max deviation-transfer error = {worst_dev:.2e} "
                "(continuous deviation equals h times the skeleton's, h-free)")
        assert worst_lam <= 1e-8
        assert worst_dev <= 1e-8
