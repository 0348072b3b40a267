"""Every binding the benchmark tracer wraps must exist in the library.

`perfbench/tracer.py` patches the names in its TARGETS table by string,
so a rename in the library breaks the traced benchmark run without
failing any library test.  This loads the tracer by path, leaves it as
it is, and resolves each target the way `Tracer.install` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ellt.curvefield import TorsionDivisor
from ellt.eatheory import build_ea

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize(
    "module_name,path", [(m, p) for m, p, _ in TRACER.TARGETS], ids=lambda v: v
)
def test_target_resolves(module_name, path):
    module = importlib.import_module(f"{TRACER.PACKAGE}.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    # methods are looked up in the class's own dict, functions on the module
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner).get(attr)), f"{module_name}.{path} is not defined"


def test_hooks_find_their_attributes():
    # _hook_tmodel_qwindow reads QWindow.matrix, _hook_curvefield_rr_basis
    # reads the divisor's coeffs
    window = build_ea((-1, 0)).window({})
    assert window.matrix.rows * window.matrix.cols > 0
    assert TorsionDivisor({1: 2}).coeffs == {1: 2}
