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
from .loss import LossReport, central_similarity_loss, quantization_loss, total_loss
from .net import Dims, ModelParams, binarize, forward, backward, init_params
from .retrieval import (
    QueryResult,
    RetrievalIndex,
    average_precision,
    curves,
    mean_average_precision,
    pack_codes,
    unpack_codes,
)
from .trainer import TrainConfig, TrainReport, adam_step, train

__all__ = [
    "HashCenterSet", "generate_centers", "hamming_from_inner",
    "min_pairwise_distance", "sylvester_hadamard",
    "MultiViewDataset", "SynthSpec", "make_synthetic",
    "LossReport", "central_similarity_loss", "quantization_loss", "total_loss",
    "Dims", "ModelParams", "binarize", "forward", "backward", "init_params",
    "QueryResult", "RetrievalIndex", "average_precision", "curves",
    "mean_average_precision", "pack_codes", "unpack_codes",
    "TrainConfig", "TrainReport", "adam_step", "train",
]
