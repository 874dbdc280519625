"""Layer applicability measurement and the self-growing CactusNet.

The package is organized around five pieces:

* :mod:`cactusnet.nn` -- a small numpy neural-network engine with layer
  freezing, head replacement, and binary checkpoints.
* :mod:`cactusnet.data` -- IDX ingestion, a two-family synthetic image
  generator, and the three-subset experiment splits.
* :mod:`cactusnet.applicability` -- freeze-and-finetune pair separability
  sweeps, whose records build the per-(class, layer) applicability
  tables of :mod:`cactusnet.table`.
* :mod:`cactusnet.predictor` -- per-layer regressors that estimate an
  input's applicability from its activations.
* :mod:`cactusnet.cactus` -- thresholds, routing, and unsupervised
  branch growth over a trunk network.
"""

__version__ = "0.1.0"
