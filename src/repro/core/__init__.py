"""The Jigsaw core: synchronization, unification, reconstruction, analyses."""

from .faults import HealthReport, SyncHealth
from .link.attempt import AttemptAssembler, TransmissionAttempt
from .link.exchange import ExchangeAssembler, FrameExchange
from .passes import MaterializePass, PassContext, PipelinePass
from .pipeline import JigsawPipeline, JigsawReport
from .sync.bootstrap import BootstrapResult, bootstrap_synchronization
from .sync.skew import ClockTrack
from .transport.flows import FlowKey, TcpFlow
from .transport.inference import LossCause, TransportInference
from .unify.jframe import JFrame, JFrameKind
from .unify.unifier import UnificationResult, Unifier

__all__ = [
    "HealthReport",
    "SyncHealth",
    "AttemptAssembler",
    "TransmissionAttempt",
    "ExchangeAssembler",
    "FrameExchange",
    "JigsawPipeline",
    "JigsawReport",
    "MaterializePass",
    "PassContext",
    "PipelinePass",
    "BootstrapResult",
    "bootstrap_synchronization",
    "ClockTrack",
    "FlowKey",
    "TcpFlow",
    "LossCause",
    "TransportInference",
    "JFrame",
    "JFrameKind",
    "UnificationResult",
    "Unifier",
]
