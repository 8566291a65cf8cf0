"""The benchmark traces package functions by name (`perfbench/tracing.py`), and
its tracer fails at install time on a name that is gone. These checks fail in
the tier-1 run instead, when a change removes or renames a traced function or
one of the arguments that the tracer's counters read."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# the arguments each counter reads off its function's bound call
COUNTER_ARGUMENTS = {
    "loop.build_superoperator": {"p"},
    "loop.sample_ensemble": {"p", "steps", "n_traj"},
    "metrics.haar_avg_bitflip_fidelity": {"nodes"},
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(span: str):
    module, name = span.split(".")
    return getattr(importlib.import_module(f"qfeedback.{module}"), name)


def test_every_traced_name_resolves_in_its_module():
    for module, names in _tracing().LAYERS.items():
        for name in names:
            assert callable(_resolve(f"{module}.{name}")), f"{module}.{name}"


def test_every_counter_reads_arguments_its_function_takes():
    counters = _tracing().COUNTERS
    assert counters.keys() == COUNTER_ARGUMENTS.keys()
    for span, arguments in COUNTER_ARGUMENTS.items():
        assert arguments <= inspect.signature(_resolve(span)).parameters.keys(), span
