"""Multi-view hashing toolkit: gated two-view fusion trained against
fixed hash centers, with bit-packed Hamming retrieval and evaluation."""

__version__ = "0.1.0"

from .centers import (
    HashCenterSet,
    generate_centers,
    hamming_from_inner,
    min_pairwise_distance,
    sylvester_hadamard,
)
from .data import MultiViewDataset, SynthSpec, make_synthetic
from .loss import total_loss
from .net import Dims, ModelParams, forward, backward, init_params
from .retrieval import (
    QueryResult,
    RetrievalIndex,
    average_precision,
    curves,
    mean_average_precision,
    pack_codes,
    unpack_codes,
)
from .trainer import TrainConfig, adam_step, train

__all__ = [
    "HashCenterSet", "generate_centers", "hamming_from_inner",
    "min_pairwise_distance", "sylvester_hadamard",
    "MultiViewDataset", "SynthSpec", "make_synthetic",
    "total_loss", "Dims", "ModelParams", "forward", "backward", "init_params",
    "QueryResult", "RetrievalIndex", "average_precision", "curves",
    "mean_average_precision", "pack_codes", "unpack_codes",
    "TrainConfig", "adam_step", "train",
]
