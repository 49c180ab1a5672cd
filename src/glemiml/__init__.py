"""GLEMIML: graph-based label enhancement for multi-instance multi-label learning."""

__version__ = "0.1.0"

from . import _heap

_heap.set_heap_policy()

from .data import (
    Bag,
    MIMLDataset,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .enhancer import EnhancedBatch, EnhancerModel, enhance_batch, init_enhancer
from .classifier import ClassifierModel, binarize, init_classifier, predict_dataset
from .losses import LossWeights
from .metrics import MetricsReport, hamming_loss, macro_average_precision, macro_f1, ranking_loss
from .training import TrainConfig, TrainHistory, evaluate, run_ablation, train

__all__ = [
    "Bag", "MIMLDataset", "SplitSpec", "SyntheticConfig",
    "generate_synthetic", "load_dataset", "save_dataset", "split_dataset",
    "EnhancedBatch", "EnhancerModel", "enhance_batch", "init_enhancer",
    "ClassifierModel", "binarize", "init_classifier", "predict_dataset",
    "LossWeights", "MetricsReport",
    "hamming_loss", "macro_average_precision", "macro_f1", "ranking_loss",
    "TrainConfig", "TrainHistory", "evaluate", "run_ablation", "train",
]
