"""The benchmark tracer (``perfbench/spans.py``) wraps cmcal functions by name.

Renaming or removing one of them makes ``Tracer.install`` raise, which would
only show when the benchmark runs with ``--trace 1``; this test makes it fail
the unit suite instead.  It also checks that every mitigation path still
calls the join, the inversion and the application through a wrapped name,
and, with no linter at hand, that every name a ``src/cmcal`` module imports
is used there unless the tracer wraps it in that module.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from cmcal import strategies
from cmcal.bench import CalibrationStore
from cmcal.noise import NoiseModel, NoiseSpec, ideal_ghz
from cmcal.topology import generate_architecture, greedy_patch_plan

PIPELINE = {"calibration.assemble", "calibration.invert", "calibration.apply"}

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_site_and_uninstalls():
    spans = _load_spans()
    sites = [(spans._resolve(path), attr) for path, attr, _ in spans.SITES]
    originals = [inspect.getattr_static(owner, attr) for owner, attr in sites]
    cmap = generate_architecture("grid", rows=2, cols=2)
    noise = NoiseModel.from_spec(4, NoiseSpec.random(4, seed=1))
    matrices, singles = strategies.calibrate_patches(noise, greedy_patch_plan(cmap, 1))
    store = CalibrationStore("grid2x2", "now", tuple(matrices), singles=singles)
    observed = noise.corrupted(ideal_ghz(4))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), raw in zip(sites, originals):
            assert inspect.getattr_static(owner, attr) is not raw, attr
        strategies.run_cmc(ideal_ghz(4), noise, strategies.ShotBudget(4000), cmap, seed=2)
        linear_from = len(tracer.spans)
        strategies.run_linear(ideal_ghz(4), noise, strategies.ShotBudget(4000), seed=2)
        store_from = len(tracer.spans)
        store.mitigate(observed)
        store.mitigate(observed.marginal((1, 3)), measured=(1, 3))
    finally:
        tracer.uninstall()
    for (owner, attr), raw in zip(sites, originals):
        assert inspect.getattr_static(owner, attr) is raw, attr
    names = {span.name for span in tracer.spans}
    assert {"strategies.cmc", "noise.marginal", "noise.sample", "calibration.apply"} <= names
    linear = {span.name for span in tracer.spans[linear_from:store_from]}
    assert {"calibration.invert", "calibration.apply"} <= linear
    stored = tracer.spans[store_from:]
    calls = [span for span in stored if span.name == "bench.mitigate"]
    assert len(calls) == 2
    for call in calls:
        index = tracer.spans.index(call)
        children = {span.name for span in stored if span.parent == index}
        assert PIPELINE <= children


def test_src_modules_use_every_name_they_import():
    wrapped = {}
    for path, attr, _ in _load_spans().SITES:
        wrapped.setdefault(path, set()).add(attr)
    for source in sorted((ROOT / "src" / "cmcal").glob("*.py")):
        module = "cmcal" if source.stem == "__init__" else f"cmcal.{source.stem}"
        tree = ast.parse(source.read_text())
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                exported |= set(ast.literal_eval(node.value))
        unused = imported - used - exported - wrapped.get(module, set())
        assert not unused, f"{source.name} imports {sorted(unused)} without using them"
