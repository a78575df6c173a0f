"""Model evaluation utilities: complexity, deployment, profiling, robustness.

Exports load lazily, so that importing one submodule (``repro.serve`` needs
only :mod:`~repro.eval.profiler`) does not pull in :mod:`~repro.eval.robustness`
and, through it, the training and data stacks.
"""

import importlib

_EXPORTS = {
    "complexity": ["ComplexityReport", "count_complexity", "count_parameters", "same_structure"],
    "deployment": [
        "DeviceProfile",
        "DeploymentReport",
        "DEVICE_PROFILES",
        "STM32F411",
        "STM32F746",
        "STM32H743",
        "activation_footprints",
        "peak_activation_memory",
        "weight_memory",
        "estimate_latency_ms",
        "deployment_report",
        "fits_device",
    ],
    "profiler": [
        "LayerProfile",
        "profile_layers",
        "format_profile_table",
        "measure_latency",
        "latency_percentiles",
        "LatencyWindow",
    ],
    "robustness": ["RobustnessReport", "evaluate_robustness"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
