"""The benchmark's layer tracer names minsol functions by string; pin them.

`perfbench/layertrace.py` patches entry points by (module, attribute)
and reads counters off their arguments, so a rename or a reordered
signature in `src/` would break `--trace 1` without failing any other
test.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"minsol.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(layertrace):
    # TARGETS includes every ROUTES entry
    routes = {(mod, fn) for mod, fns in layertrace.ROUTES.items() for fn in fns}
    assert routes <= set(layertrace.TARGETS)
    for module, attr in layertrace.TARGETS:
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def test_every_counted_cache_resolves(layertrace):
    for module, attr in layertrace.CACHES.values():
        assert hasattr(_resolve(module, attr), "cache_info"), f"{module}.{attr}"


def test_hooks_read_the_arguments_they_expect(layertrace):
    attrs = {attr for _, attr in layertrace.TARGETS}
    assert set(layertrace.HOOKS) <= attrs
    hooked = [a for a, h in layertrace.HOOKS.items() if h is layertrace._gf2_enumerated]
    assert sorted(hooked) == ["min_weight_nonzero", "nearest_codeword"]
    for attr in hooked:
        # the hook counts 2**len(args[0]) enumerated combinations
        first = next(iter(inspect.signature(_resolve("gf2", attr)).parameters))
        assert first in ("basis", "generator_rows"), attr
