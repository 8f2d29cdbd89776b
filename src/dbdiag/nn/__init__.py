from .layers import (
    BatchNorm,
    Dense,
    Layer,
    ReLU,
    Reshape,
    Standardized,
    TemporalNorm,
    TemporalNormReverse,
)
from .losses import squared_error
from .network import Network
from .optim import Adam

__all__ = [
    "Adam",
    "BatchNorm",
    "Dense",
    "Layer",
    "Network",
    "ReLU",
    "Reshape",
    "Standardized",
    "TemporalNorm",
    "TemporalNormReverse",
    "squared_error",
]
