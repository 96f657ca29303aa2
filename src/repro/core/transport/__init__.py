"""Transport-layer reconstruction and inference."""

from .flows import (
    FlowCollector,
    FlowKey,
    SegmentObservation,
    TcpFlow,
)
from .inference import (
    InferenceStats,
    LossCause,
    TcpLossEvent,
    TransportInference,
)

__all__ = [
    "FlowCollector",
    "FlowKey",
    "SegmentObservation",
    "TcpFlow",
    "InferenceStats",
    "LossCause",
    "TcpLossEvent",
    "TransportInference",
]
