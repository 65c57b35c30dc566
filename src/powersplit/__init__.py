"""powersplit: Bayesian power disaggregation and demand-dispatch control.

Layers, bottom up:

- ``distributions``: conjugate updates, log densities, simplex utilities,
  elementary samplers
- ``hmm`` / ``hsmm``: message passing and exact blocked state draws for the
  chain and the explicit-duration segment model, plus the duration law and
  its parameter move
- ``hdp``: weak-limit hierarchical Dirichlet transition prior and the full
  nonparametric segment-model sweep that training runs
- ``smc``: the auxiliary particle step and ``FactorialBpf``, the
  particle-learning filter that splits an aggregate meter signal across
  devices
- ``dispatch``: randomized local load control, mean-field dynamics, transfer
  function data, and the PI feedback loop
- ``pipeline``: file formats, synthetic data, training, and the CLI

The segment-model backward pass and forward draw and the filter's joint
predictive run from a small C99 library that ``setup.py`` builds; a source
tree without it, or ``POWERSPLIT_PURE=1``, uses the pure NumPy kernels
instead (see ``powersplit._kernels.BACKEND``).
"""

from ._kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
