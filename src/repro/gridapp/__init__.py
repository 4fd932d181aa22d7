"""The UVa Campus Grid remote job execution testbed (paper §4).

This package is the application the paper builds: the five web-service
types of Fig. 3 plus the two Windows services, the client tooling and a
:class:`Testbed` assembler that stands the whole grid up on simulated
machines.

===============================  ==============================================
paper component                  module
===============================  ==============================================
File System Service (§4.1)       :mod:`repro.gridapp.filesystem_service`
Execution Service (§4.2)         :mod:`repro.gridapp.execution_service`
Notification Broker (§4.3)       :mod:`repro.wsn.broker` (deployed here)
Node Info Service (§4.4)         :mod:`repro.gridapp.node_info`
Scheduler Service (§4.5)         :mod:`repro.gridapp.scheduler`
  its fault-tolerance watchdog   :mod:`repro.gridapp.watchdog`
ProcSpawn Windows service        :mod:`repro.osim.procspawn`
Processor Utilization service    :mod:`repro.gridapp.utilization`
client GUI tool + TCP server +   :mod:`repro.gridapp.client`
  notification receiver (§4.6)
job set descriptions             :mod:`repro.gridapp.jobset`
testbed assembly                 :mod:`repro.gridapp.testbed`
Fig. 3 step tracing              :mod:`repro.gridapp.tracing`
===============================  ==============================================
"""

from repro.gridapp.jobset import FileRef, JobSetSpec, JobSpec
from repro.gridapp.tracing import EventTrace, TraceEvent
from repro.gridapp.filesystem_service import FileSystemService
from repro.gridapp.execution_service import ExecutionService
from repro.gridapp.node_info import NodeInfoService, processor_content
from repro.gridapp.scheduler import SchedulerService
from repro.gridapp.watchdog import FaultToleranceConfig
from repro.gridapp.utilization import ProcessorUtilizationService
from repro.gridapp.client import GridClient
from repro.gridapp.aggregator import AggregatorCatalogService
from repro.gridapp.federation import (
    FederatedGridClient,
    FederationConfig,
    HashRing,
)
from repro.gridapp.report import JobSetReport, build_report, render_gantt, render_summary
from repro.gridapp.testbed import Testbed


class PerfConfig:
    """Truthy, so ``Testbed(perf=PerfConfig())`` means ``perf=True``."""


__all__ = [
    "AggregatorCatalogService",
    "EventTrace",
    "ExecutionService",
    "FaultToleranceConfig",
    "FederatedGridClient",
    "FederationConfig",
    "FileRef",
    "FileSystemService",
    "GridClient",
    "HashRing",
    "JobSetReport",
    "build_report",
    "render_gantt",
    "render_summary",
    "JobSetSpec",
    "JobSpec",
    "NodeInfoService",
    "PerfConfig",
    "ProcessorUtilizationService",
    "SchedulerService",
    "Testbed",
    "TraceEvent",
    "processor_content",
]
