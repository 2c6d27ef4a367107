"""The benchmark's traced targets resolve, so a deletion cannot silently zero a row.

`perfbench/tracing.py` patches package functions by attribute name and reads
some of their arguments by parameter name; a target that no longer resolves
is only counted, not reported as an error, by the benchmark itself.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# targets the benchmark still names although their functions are gone; the
# repair of the benchmark's targets empties this set
KNOWN_MISSING = {"rom.eig_symmetric", "diffcore.conv_apply", "diffcore.conv_backward"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_missing_targets_are_exactly_the_known_ones(tracing):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pass
    assert set(tracer.missing) == KNOWN_MISSING


class _Anything(float):
    """Stands in for any argument a counter reads: a number with the
    attributes of an array and of network parameters."""

    ndim, shape, size, layer_sizes = 2, (1, 1), 1, (1, 1)


def test_counters_read_existing_parameters(tracing):
    checked = 0
    for target in tracing.TARGETS:
        name = f"{target.module}.{target.attr}"
        if target.counter is None or name in KNOWN_MISSING:
            continue
        owner = importlib.import_module(f"stabnode.{target.module}")
        for part in target.attr.split("."):
            owner = getattr(owner, part)
        params = inspect.signature(owner).parameters
        read = []

        def arg(pname):
            read.append(pname)
            return __file__ if pname == "path" else _Anything(1.0)

        target.counter(arg, None)
        assert read, name
        missing = [p for p in read if p not in params]
        assert not missing, f"{name} has no parameter(s) {missing}"
        checked += 1
    assert checked >= 10
