"""The benchmark's tracer binds library functions by module and name; each
of those names must still resolve, or a traced run fails to install."""

import importlib.util
from pathlib import Path

import pytest

import mcperturb.verify

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

TRACED = sorted({
    *(target for targets in tracing.SPAN_LAYERS.values() for target in targets),
    *tracing.METHOD_LAYERS,
    *tracing.SAMPLERS,
    tracing.HITTING,
})


@pytest.mark.parametrize("module,qualname", TRACED, ids=[f"{m}:{q}" for m, q in TRACED])
def test_traced_name_resolves(module, qualname):
    owner, attr = tracing._resolve(module, qualname)
    assert callable(getattr(owner, attr, None))


def test_traced_fuzz_attributes_its_catalog_and_bounds():
    # the fuzz must reach the catalog and the bounds through their module
    # attributes, so that the tracer's wrappers see every call
    from mcperturb.gallery import mm1

    tracer = tracing.Tracer()
    tracer.install()
    try:
        summary = mcperturb.verify.fuzz_bounds(mm1(truncation=12), n_cases=2,
                                               include_v_norm=True)
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert summary.n_cases == 2
    assert tracer.calls["verify.fuzz"] == 1
    assert tracer.calls["catalog.self"] == 1
    assert tracer.calls["verify.fuzz_case"] == 2
    # four catalog bounds, then the weighted-norm pair in each case
    assert tracer.calls["ctmc.bounds"] == 4 + 2 * 2
