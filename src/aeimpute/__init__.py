"""Missing-data imputation via autoencoder reconstruction-error minimization.

Train a narrow-hidden-layer autoencoder on complete records, then estimate
the missing components of new records by minimizing the reconstruction error
over the unknown slots with interchangeable derivative-free optimizers, or
predict them directly with a random forest.  Each public name has one home,
its submodule: ``aeimpute.data``, ``.network``, ``.objective``,
``.optimizers``, ``.forest``, ``.metrics``, and ``.experiment``, which runs,
reports and verifies the whole protocol.
"""

__version__ = "0.1.0"
