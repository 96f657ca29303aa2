"""Simulation substrate: kernel, building, scenarios, workload, runner.

Scenario configuration is componentized (:mod:`repro.sim.scenario`),
named workload families live in the registry (:mod:`repro.sim.registry`),
and runs can execute either materialized (:func:`run_scenario`) or
streamed straight into the pipeline (:func:`repro.sim.stream.stream_scenario`).
"""

from .building import Building, Placement, assign_channels, pod_reduction_order
from .faults import FaultPlan, inject_record_faults, write_faulty_traces
from .kernel import EventHandle, Kernel
from .registry import (
    REGISTRY,
    SCALES,
    ScenarioFamily,
    ScenarioRegistry,
    scenario_config,
)
from .scenario import (
    ClientBehaviorConfig,
    ClockConfig,
    FaultConfig,
    FleetConfig,
    GeometryConfig,
    ImpairmentConfig,
    ScenarioConfig,
    ScenarioStreams,
    WorkloadConfig,
)
from .workload import FlowArchetype, FlowRequest, generate_flows

__all__ = [
    "Building",
    "Placement",
    "assign_channels",
    "pod_reduction_order",
    "EventHandle",
    "Kernel",
    "SimulationArtifacts",
    "run_scenario",
    "build_scenario",
    "finalize_scenario",
    "RoamEvent",
    "ScenarioWorld",
    "stream_scenario",
    "StreamedScenario",
    "CampusArtifacts",
    "run_campus",
    "ClientBehaviorConfig",
    "ClockConfig",
    "FaultConfig",
    "FaultPlan",
    "inject_record_faults",
    "write_faulty_traces",
    "FleetConfig",
    "GeometryConfig",
    "ImpairmentConfig",
    "ScenarioConfig",
    "ScenarioStreams",
    "WorkloadConfig",
    "REGISTRY",
    "SCALES",
    "ScenarioFamily",
    "ScenarioRegistry",
    "scenario_config",
    "FlowArchetype",
    "FlowRequest",
    "generate_flows",
]

_LAZY = {
    # The runner pulls in the MAC/monitor/TCP substrates, which themselves
    # import scenario configuration from this package; loading it lazily
    # keeps `repro.sim` import-light and breaks the cycle.
    "SimulationArtifacts": "runner",
    "run_scenario": "runner",
    "build_scenario": "runner",
    "finalize_scenario": "runner",
    "RoamEvent": "runner",
    "ScenarioWorld": "runner",
    # The streaming feed sits on top of the runner; same cycle, same fix.
    "stream_scenario": "stream",
    "StreamedScenario": "stream",
    # Campus composition runs the runner per building; same cycle, same fix.
    "CampusArtifacts": "campus",
    "run_campus": "campus",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
