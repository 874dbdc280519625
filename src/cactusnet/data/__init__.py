"""Dataset ingestion, synthetic corpus generation, and experiment splits."""

from .idx import load_idx, write_idx_images, write_idx_labels
from .manifest import (ClassEntry, ClassImages, DatasetManifest, SplitStore,
                       SubsetLabel, build_splits, sample_probe_set, split_indices,
                       synthetic_manifest)
from .synthetic import (MANUFACTURED, ORGANIC, SyntheticDataset,
                        generate_synthetic, load_dataset, render_class,
                        save_dataset)

__all__ = [
    "ClassEntry", "ClassImages", "DatasetManifest", "MANUFACTURED", "ORGANIC",
    "SplitStore", "SubsetLabel", "SyntheticDataset", "build_splits",
    "generate_synthetic", "load_dataset", "load_idx", "render_class",
    "sample_probe_set", "save_dataset", "split_indices", "synthetic_manifest",
    "write_idx_images", "write_idx_labels",
]
