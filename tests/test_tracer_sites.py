"""The benchmark tracer (``perfbench/spans.py``) wraps cmcal functions by name.

Renaming or removing one of them makes ``Tracer.install`` raise, which would
only show when the benchmark runs with ``--trace 1``; this test makes it fail
the unit suite instead.
"""

import importlib.util
import inspect
from pathlib import Path

from cmcal import strategies
from cmcal.noise import NoiseModel, NoiseSpec, ideal_ghz
from cmcal.topology import generate_architecture

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_site_and_uninstalls():
    spans = _load_spans()
    sites = [(spans._resolve(path), attr) for path, attr, _ in spans.SITES]
    originals = [inspect.getattr_static(owner, attr) for owner, attr in sites]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), raw in zip(sites, originals):
            assert inspect.getattr_static(owner, attr) is not raw, attr
        cmap = generate_architecture("grid", rows=2, cols=2)
        noise = NoiseModel.from_spec(4, NoiseSpec.random(4, seed=1))
        strategies.run_cmc(ideal_ghz(4), noise, strategies.ShotBudget(4000), cmap, seed=2)
    finally:
        tracer.uninstall()
    for (owner, attr), raw in zip(sites, originals):
        assert inspect.getattr_static(owner, attr) is raw, attr
    names = {span.name for span in tracer.spans}
    assert {"strategies.cmc", "noise.marginal", "noise.sample", "calibration.apply"} <= names
