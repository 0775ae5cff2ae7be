"""The weighted-norm drift bounds of both chain kinds share one body per bound.

Reference copies of the separate transition-matrix and generator forms are
kept here, and the shared forms must reproduce them exactly: the same
``to_dict()`` where the hypothesis holds (each report gains the ``norm``
tag of its own info, which makes it never ``useless``, and the generator
report with ``pi(V)`` the ``margin`` key the discrete one has), and the
same exception and message where it fails.
"""

import io
import json

import numpy as np
import pytest

from mcperturb import (
    HypothesisFailed,
    IntensityMatrix,
    OutOfRadius,
    StochasticMatrix,
    WeightFunction,
    batch_arrival_drift,
    bound_catalog,
    ctmc_deviation_matrix,
    ctmc_stationary,
    ctmc_v_bound_drift_only,
    ctmc_v_bound_with_stationary,
    fit_ctmc_geometric_drift,
    fit_geometric_drift,
    hitting_times,
    stationary_distribution,
    stationary_series_expansion,
    v_bound_drift_only,
    v_bound_with_stationary,
    v_norm_matrix,
    v_norm_measure,
    verify,
)
from mcperturb.chainfile import save_chain_file
from mcperturb.chains import Distribution
from mcperturb.cli import main
from mcperturb.errors import NoPositiveLambda
from mcperturb.gallery import GalleryModel
from mcperturb.reports import BoundReport, Hypothesis
from mcperturb.verify import canonical_pair, exact_gap, fuzz_bounds
from tests.conftest import gallery_model

# ---------------------------------------------------------------------------
# reference copies of the separate forms


def ref_v_bound_with_stationary(P, cert, pi, delta_v_norm):
    cert.validate(P)
    V = cert.weights.values
    pi_v = v_norm_measure(pi.values, V)
    c = 1.0 + float(1.0 / V.min()) * pi_v
    threshold = (1.0 - cert.lam) / c
    if not delta_v_norm < threshold:
        raise HypothesisFailed(
            "||Delta||_V < (1 - lambda) / c",
            f"||Delta||_V = {delta_v_norm:.6g}, threshold = {threshold:.6g}",
        )
    value = c * pi_v * delta_v_norm / (1.0 - cert.lam - c * delta_v_norm)
    return BoundReport(
        bound_name="v_norm_with_stationary",
        hypotheses=[
            Hypothesis("geometric drift certificate", True,
                       f"lambda = {cert.lam:.6g}, b = {cert.b:.6g}"),
            Hypothesis("||Delta||_V below threshold", True,
                       f"{delta_v_norm:.6g} < {threshold:.6g}"),
            Hypothesis("perturbed chain positive recurrent", True,
                       "implied by the drift margin"),
        ],
        direct_value=value,
        delta_norm=delta_v_norm,
        info={"c": c, "pi_v": pi_v, "threshold": threshold,
              "margin": threshold - delta_v_norm},
    )


def ref_v_bound_drift_only(cert, delta_v_norm):
    V = cert.weights.values
    if V.min() < 1.0 - 1e-12:
        raise HypothesisFailed("V >= 1", f"min V = {V.min():.6g}")
    one_minus = 1.0 - cert.lam
    threshold = one_minus**2 / (cert.b + one_minus)
    if not delta_v_norm < threshold:
        raise HypothesisFailed(
            "||Delta||_V < (1 - lambda)^2 / (b + 1 - lambda)",
            f"||Delta||_V = {delta_v_norm:.6g}, threshold = {threshold:.6g}",
        )
    num = cert.b * (cert.b + one_minus) * delta_v_norm
    den = one_minus**3 - one_minus * (cert.b + one_minus) * delta_v_norm
    return BoundReport(
        bound_name="v_norm_drift_only",
        hypotheses=[
            Hypothesis("geometric drift certificate", True,
                       f"lambda = {cert.lam:.6g}, b = {cert.b:.6g}"),
            Hypothesis("V >= 1", True, f"min V = {V.min():.6g}"),
            Hypothesis("||Delta||_V below threshold", True,
                       f"{delta_v_norm:.6g} < {threshold:.6g}"),
        ],
        direct_value=num / den,
        delta_norm=delta_v_norm,
        info={"threshold": threshold, "margin": threshold - delta_v_norm},
    )


def ref_ctmc_v_bound_with_stationary(Q, cert, pi, delta_v_norm):
    cert.validate(Q)
    V = cert.weights.values
    pi_v = v_norm_measure(pi.values, V)
    c = 1.0 + (1.0 / V.min()) * pi_v
    threshold = cert.lam / c
    if not delta_v_norm < threshold:
        raise HypothesisFailed(
            "||Delta||_V < lambda / c",
            f"||Delta||_V = {delta_v_norm:.6g}, threshold = {threshold:.6g}",
        )
    value = c * pi_v * delta_v_norm / (cert.lam - c * delta_v_norm)
    return BoundReport(
        bound_name="ctmc_v_norm_with_stationary",
        hypotheses=[
            Hypothesis("generator drift certificate", True,
                       f"lambda = {cert.lam:.6g}, b = {cert.b:.6g}"),
            Hypothesis("||Delta||_V below threshold", True,
                       f"{delta_v_norm:.6g} < {threshold:.6g}"),
            Hypothesis("perturbed chain positive recurrent", True,
                       "implied by the drift margin"),
        ],
        direct_value=value,
        delta_norm=delta_v_norm,
        info={"c": c, "pi_v": pi_v, "threshold": threshold},
    )


def ref_ctmc_v_bound_drift_only(cert, delta_v_norm):
    V = cert.weights.values
    if V.min() < 1.0 - 1e-12:
        raise HypothesisFailed("V >= 1", f"min V = {V.min():.6g}")
    lam, b = cert.lam, cert.b
    threshold = lam**2 / (b + lam)
    if not delta_v_norm < threshold:
        raise HypothesisFailed(
            "||Delta||_V < lambda^2 / (b + lambda)",
            f"||Delta||_V = {delta_v_norm:.6g}, threshold = {threshold:.6g}",
        )
    num = b * (b + lam) * delta_v_norm
    den = lam**3 - lam * (b + lam) * delta_v_norm
    return BoundReport(
        bound_name="ctmc_v_norm_drift_only",
        hypotheses=[
            Hypothesis("generator drift certificate", True,
                       f"lambda = {lam:.6g}, b = {b:.6g}"),
            Hypothesis("V >= 1", True, f"min V = {V.min():.6g}"),
            Hypothesis("||Delta||_V below threshold", True,
                       f"{delta_v_norm:.6g} < {threshold:.6g}"),
        ],
        direct_value=num / den,
        delta_norm=delta_v_norm,
        info={"threshold": threshold, "margin": threshold - delta_v_norm},
    )


def ref_stationary_series_expansion(Q, G, eps, n_terms=50, cert=None):
    Gm = np.asarray(G, dtype=float)
    pi = ctmc_stationary(Q)
    D = ctmc_deviation_matrix(Q)
    if eps != 0.0:
        if cert is not None:
            V = cert.weights.values
            g1 = v_norm_matrix(Gm, V)
            radii = [cert.lam**2 / ((cert.b + cert.lam) * g1)]
            # the radius constant reads the GTH pi, the series terms the plain pi
            pi_v = v_norm_measure(ctmc_stationary(Q, method="gth").values, V)
            c = 1.0 + (1.0 / V.min()) * pi_v
            radii.append(cert.lam / (c * g1))
            if not any(abs(eps) < r for r in radii):
                raise OutOfRadius(
                    f"|eps| = {abs(eps):.6g} outside admissible radii "
                    + ", ".join(f"{r:.6g}" for r in radii)
                )
        else:
            spec = float(np.abs(np.linalg.eigvals(eps * (Gm @ D))).max())
            if spec >= 1.0 - 1e-9:
                raise OutOfRadius(f"spectral radius {spec:.6g} of eps G D not below 1")
    M = eps * (Gm @ D)
    term = pi.values.copy()
    total = pi.values.copy()
    for _ in range(n_terms):
        term = term @ M
        total = total + term
    return Distribution(total, settings=Q.settings)


# ---------------------------------------------------------------------------


def _result(fn):
    try:
        return "holds", fn().to_dict()
    except HypothesisFailed as exc:
        return "fails", (type(exc), str(exc))


DTMC_MODELS = ["birth-death", "funderlic8", "geometric-return", "hessenberg-gi-m-1",
               "meyer4", "odd-even-p"]
CTMC_MODELS = ["mm1", "batch-arrival"]
MAGNITUDES = (1e-4, 1e-3, 1e-2)
# multiples of each bound's own threshold: both sides of every hypothesis
THRESHOLD_MULTIPLES = (0.0, 0.5, 0.999, 1.0, 2.0)


def _setup(spec, n):
    """Model, drift certificate and the pi the pair is given."""
    model = gallery_model(spec, n)
    chain = model.chain
    if model.kind == "dtmc":
        cert = fit_geometric_drift(chain, 1.0 + hitting_times(chain, 0), 0)
    else:
        cert = batch_arrival_drift(model.extras["a"], model.extras["b"], n_states=chain.n)
    return model, cert, stationary_distribution(chain, method="gth")


def _pairs(model):
    if model.kind == "dtmc":
        return ((v_bound_with_stationary, ref_v_bound_with_stationary),
                (v_bound_drift_only, ref_v_bound_drift_only))
    return ((ctmc_v_bound_with_stationary, ref_ctmc_v_bound_with_stationary),
            (ctmc_v_bound_drift_only, ref_ctmc_v_bound_drift_only))


def _distances(model, cert, seed):
    """||Delta||_V of canonical perturbations at every magnitude."""
    W = cert.weights.values
    out = []
    for mag in MAGNITUDES:
        pair = canonical_pair(model, magnitude=mag, seed=seed)
        out.append(v_norm_matrix(pair.perturbed.entries - model.chain.entries, W))
    return out


@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize("n", [24, 200])
@pytest.mark.parametrize("spec", DTMC_MODELS + CTMC_MODELS)
def test_shared_bodies_match_the_separate_forms(spec, n, seed):
    model, cert, pi = _setup(spec, n)
    (with_pi, ref_with_pi), (drift_only, ref_drift_only) = _pairs(model)
    chain = model.chain
    thresholds = [ref_with_pi(chain, cert, pi, 0.0).info["threshold"],
                  ref_drift_only(cert, 0.0).info["threshold"]]
    ds = _distances(model, cert, seed)
    ds += [k * t for t in thresholds for k in THRESHOLD_MULTIPLES]
    verdicts = {"with_stationary": set(), "drift_only": set()}
    for d in ds:
        for name, new, ref in (
            ("with_stationary", lambda: with_pi(chain, cert, pi, d),
             lambda: ref_with_pi(chain, cert, pi, d)),
            ("drift_only", lambda: drift_only(cert, d), lambda: ref_drift_only(cert, d)),
        ):
            got, want = _result(new), _result(ref)
            assert got[0] == want[0], (name, d)
            if got[0] == "holds":
                # the shared bodies tag their own norm, so their values are
                # never useless; the untagged reference copies read as
                # total variation
                assert got[1]["info"].pop("norm") == "v"
                assert got[1].pop("useless") is False
                want[1].pop("useless")
            if got[0] == "holds" and model.kind == "ctmc" and name == "with_stationary":
                # the generator report gains the discrete report's margin
                assert got[1]["info"].pop("margin") == want[1]["info"]["threshold"] - d
            assert got[1] == want[1], (name, d)
            verdicts[name].add(got[0])
    assert verdicts == {"with_stationary": {"holds", "fails"},
                        "drift_only": {"holds", "fails"}}


@pytest.mark.parametrize("spec", CTMC_MODELS)
def test_generator_pair_reads_the_state_reduction_solve(spec):
    # growing weights need the componentwise-accurate pi on both sides
    model, cert, pi = _setup(spec, 200)
    perturbed = canonical_pair(model, magnitude=1e-3, seed=0).perturbed
    reports = bound_catalog(model.chain, perturbed=perturbed, weights=cert.weights)
    rep = next(r for r in reports if r.bound_name == "ctmc_v_norm_with_stationary")
    W = cert.weights.values
    nu = ctmc_stationary(perturbed, method="gth")
    assert rep.info["pi_v"] == v_norm_measure(pi.values, W)
    assert rep.exact_gap == v_norm_measure(nu.values - pi.values, W)
    assert ctmc_stationary(perturbed).values.tobytes() != nu.values.tobytes()


def test_transition_matrix_pair_reads_the_gap_of_exact_gap():
    # one gap rule for both chain kinds: the catalog judges a transition
    # matrix's weighted pair by exact_gap's state-reduction gap
    model = gallery_model("geometric-return", 60)
    pair = canonical_pair(model, magnitude=0.01, seed=0)
    W = WeightFunction(1.0 + hitting_times(model.chain, 0))
    reports = bound_catalog(model.chain, perturbed=pair.perturbed, weights=W)
    weighted = [r for r in reports if r.info["norm"] == "v"]
    assert [r.bound_name for r in weighted] == ["v_norm_with_stationary", "v_norm_drift_only"]
    for rep in weighted:
        assert rep.exact_gap == exact_gap(pair, weights=W)
    pi = stationary_distribution(model.chain, method="gth")
    assert weighted[0].info["pi_v"] == v_norm_measure(pi.values, W)
    assert fit_geometric_drift(model.chain, W, 0).pi_value == float(pi.values @ W.values)


def _direction(n, seed):
    rng = np.random.default_rng(seed)
    G = np.zeros((n, n))
    for i in range(n - 1):
        G[i, i + 1] = rng.random()
        G[i + 1, i] = rng.random()
    return G - np.diag(G.sum(axis=1))


@pytest.mark.parametrize("spec", CTMC_MODELS)
@pytest.mark.parametrize("n", [24, 60])
def test_series_expansion_matches_the_reference(spec, n):
    model = gallery_model(spec, n)
    Q = model.chain
    cert = batch_arrival_drift(model.extras["a"], model.extras["b"], n_states=n)
    G = _direction(n, n)
    outcomes = set()
    for eps in (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0):
        for c in (cert, None):
            try:
                want = ref_stationary_series_expansion(Q, G, eps, cert=c).values
            except OutOfRadius as exc:
                with pytest.raises(OutOfRadius) as got:
                    stationary_series_expansion(Q, G, eps, cert=c)
                assert str(got.value) == str(exc)
                outcomes.add((c is None, "out"))
                continue
            got = stationary_series_expansion(Q, G, eps, cert=c).values
            assert np.array_equal(got, want), eps
            outcomes.add((c is None, "in"))
    assert outcomes == {(True, "in"), (True, "out"), (False, "in"), (False, "out")}


# ---------------------------------------------------------------------------
# the 1-state weighted catalog


class TestOneStateWeightedCatalog:
    @pytest.mark.parametrize("chain,name", [
        (lambda: StochasticMatrix([[1.0]]), "v_norm_drift_fit"),
        (lambda: IntensityMatrix([[0.0]]), "ctmc_v_norm_drift_fit"),
    ], ids=["dtmc", "ctmc"])
    def test_drift_fit_failure_is_rendered_inline(self, chain, name):
        for perturbed in (None, chain()):
            reports = bound_catalog(chain(), perturbed=perturbed,
                                    weights=WeightFunction([1.0]))
            fit = reports[-1]
            assert fit.bound_name == name
            assert not fit.hypotheses_hold
            assert fit.hypotheses[0].detail == (
                "no state off the taboo state to fit a decay rate")
            assert all(r.hypotheses_hold for r in reports[:-1])

    def test_both_fits_raise_no_positive_lambda(self):
        with pytest.raises(NoPositiveLambda,
                           match="^no state off the taboo state to fit a decay rate$"):
            fit_geometric_drift(StochasticMatrix([[1.0]]), WeightFunction([1.0]), 0)
        with pytest.raises(NoPositiveLambda,
                           match="^no state off the taboo state to fit a decay rate$"):
            fit_ctmc_geometric_drift(IntensityMatrix([[0.0]]), WeightFunction([1.0]), 0)

    @pytest.mark.parametrize("kind,matrix", [("dtmc", [[1.0]]), ("ctmc", [[0.0]])],
                             ids=["dtmc", "ctmc"])
    def test_cli_bounds_exits_with_a_warning(self, tmp_path, kind, matrix):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"kind": kind, "states": 1, "matrix": matrix,
                                    "weight_function": [1.0]}))
        out = io.StringIO()
        code = main(["bounds", str(path), "--v-norm", "--format", "json"], out=out)
        assert code == 1
        names = [r["bound_name"] for r in json.loads(out.getvalue())["reports"]]
        assert names[-1].endswith("v_norm_drift_fit")


class TestFuzzDriftSetup:
    """The fuzz fits its weighted certificate as ``bound_catalog`` does, and
    names a certificate it cannot fit in ``skipped_bounds``."""

    def test_generator_rate_is_fitted_to_the_batch_arrival_weights(self):
        model = gallery_model("batch-arrival", 200)
        analytic = batch_arrival_drift(model.extras["a"], model.extras["b"],
                                       n_states=model.chain.n)
        skipped = {}
        cert = verify._v_norm_setup(model, skipped)
        assert skipped == {}
        assert cert.lam == fit_ctmc_geometric_drift(model.chain, analytic.weights, 0).lam
        # the analytic rate exceeds every rate the truncated chain has
        assert cert.lam < analytic.lam

    @pytest.mark.parametrize("model,name,reason", [
        (GalleryModel("one-state", "dtmc", StochasticMatrix([[1.0]])),
         "v_norm_drift_fit", "no state off the taboo state to fit a decay rate"),
        (GalleryModel("one-state", "ctmc", IntensityMatrix([[0.0]]),
                      extras={"a": [-1.0, 1.0], "b": [4.0, -5.0, 1.0]}),
         "ctmc_v_norm_drift_fit", "need at least two states"),
        (GalleryModel("two-state", "ctmc", IntensityMatrix([[-1.0, 1.0], [2.0, -2.0]])),
         "ctmc_v_norm_drift_fit", "no band coefficients to build drift weights from"),
    ], ids=["dtmc-one-state", "ctmc-one-state", "ctmc-no-band"])
    def test_setup_failures_are_named(self, model, name, reason):
        summary = fuzz_bounds(model, n_cases=2, include_v_norm=True)
        assert summary.skipped_bounds[name] == reason


def test_cli_verify_refuses_a_truncation_for_a_chain_file(tmp_path):
    # a chain file has its own size: a truncation for it is an error, not ignored
    model = gallery_model("meyer4", None)
    path = tmp_path / "meyer4.json"
    save_chain_file(model, str(path))
    runs = []
    for extra in ([], ["--truncation", "10"]):
        out = io.StringIO()
        code = main(["verify", str(path), "--cases", "3", "--format", "json", *extra], out=out)
        runs.append((code, out.getvalue()))
    assert runs[0][0] in (0, 1)
    assert json.loads(runs[0][1])["results"][0]["model"] == str(path)
    assert runs[1] == (2, "")
