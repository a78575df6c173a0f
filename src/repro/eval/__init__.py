"""Model evaluation utilities: complexity, deployment, profiling, robustness."""

from .complexity import ComplexityReport, count_complexity, count_parameters, same_structure
from .deployment import (
    DEVICE_PROFILES,
    STM32F411,
    STM32F746,
    STM32H743,
    DeploymentReport,
    DeviceProfile,
    activation_footprints,
    deployment_report,
    estimate_latency_ms,
    fits_device,
    peak_activation_memory,
    weight_memory,
)
from .profiler import (
    LatencyWindow,
    LayerProfile,
    format_profile_table,
    latency_percentiles,
    measure_latency,
    profile_layers,
)
from .robustness import RobustnessReport, evaluate_robustness

__all__ = [
    "ComplexityReport",
    "count_complexity",
    "count_parameters",
    "same_structure",
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
    "LayerProfile",
    "profile_layers",
    "format_profile_table",
    "measure_latency",
    "latency_percentiles",
    "LatencyWindow",
    "RobustnessReport",
    "evaluate_robustness",
]
