import numpy as np
import pytest

from mcperturb import McPerturbError, gallery

# integer-matrix form of meyer4's known exact group inverse, scaled by 2/1083
MEYER_GROUP_INVERSE_NUMERATORS = [
    [265, -61, -96, -108],
    [-96, 300, -96, -108],
    [-115, -137, 246, 6],
    [-210, -156, -210, 576],
]


@pytest.fixture(scope="session")
def meyer():
    return gallery.meyer4()


@pytest.fixture(scope="session")
def funderlic():
    return gallery.funderlic8()


@pytest.fixture(scope="session")
def meyer_group_inverse_exact():
    return (2.0 / 1083.0) * np.array(MEYER_GROUP_INVERSE_NUMERATORS, dtype=float)


@pytest.fixture(scope="session")
def exact_chains():
    """The exact oracle's chains by name; each exact value is computed at
    most once per session."""
    from tests.exact import ORACLE_CHAINS, ExactChain

    return {name: ExactChain(build()) for name, build in ORACLE_CHAINS.items()}


def random_irreducible_chain(rng, n, sparsity=0.0):
    """Random row-stochastic matrix, made irreducible by a uniform floor."""
    P = rng.random((n, n))
    if sparsity > 0:
        P = P * (rng.random((n, n)) > sparsity)
    P = P + 0.05
    return P / P.sum(axis=1, keepdims=True)


def sparse_irreducible_chain(rng, n, density):
    """A random cycle through every state plus random sparse extra edges."""
    order = rng.permutation(n)
    P = np.zeros((n, n))
    P[order, np.roll(order, -1)] = rng.random(n) + 0.05
    P += rng.random((n, n)) * (rng.random((n, n)) < density)
    return P / P.sum(axis=1, keepdims=True)


def gallery_model(spec, truncation):
    try:
        return gallery.build_model(spec, truncation=truncation)
    except McPerturbError:
        return gallery.build_model(spec)      # fixed-size models keep their own size


def count_scanned_rows(monkeypatch, module):
    """Record every row index the module's Lambda1 scan reaches: each row of
    a block that ``norms._pair_blocks`` yields to it."""
    rows = []
    scan = module._pair_blocks

    def counted(M):
        for a, block in scan(M):
            rows.extend(range(a, a + len(block)))
            yield a, block

    monkeypatch.setattr(module, "_pair_blocks", counted)
    return rows


def shrink_coefficient(monkeypatch, bound_name, factor):
    """Scale one catalog coefficient that ``fuzz_bounds`` checks, so its bound can fail."""
    from mcperturb import verify

    catalog = verify.bound_catalog

    def shrunk(chain, **kwargs):
        reports = catalog(chain, **kwargs)
        for rep in reports:
            if rep.bound_name == bound_name:
                rep.ell *= factor
        return reports

    monkeypatch.setattr(verify, "bound_catalog", shrunk)
