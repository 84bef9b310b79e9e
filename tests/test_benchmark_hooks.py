"""The benchmark's tracer (``perfbench/tracing.py``) finds every name it hooks.

The tracer wraps package functions and methods by name from outside the
package, so a rename in ``src/`` would leave a span unrecorded; this test
makes such a rename fail the suite.
"""

import importlib.util
from pathlib import Path

from minkgeom import duality, norms

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_exists_and_unhooks():
    tracing = _tracing()
    originals = (norms.MinkowskiNorm.value, norms.ScaledNorm.derivatives, duality.dual_norm)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer.missing == []
        assert tracer.hooked
    finally:
        tracer.unhook()
    assert (norms.MinkowskiNorm.value, norms.ScaledNorm.derivatives,
            duality.dual_norm) == originals
