"""Tensor-based receivers for bistatic integrated sensing and communication.

Two receive chains share one transmitted frame:

* a sensing chain that fits a slot-diagonal bilinear tensor model by
  least squares (Levenberg-Marquardt) to recover target steering matrices, per-slot
  reflection coefficients, and angles (:mod:`tensorisac.sensing_als`);
* a semi-blind communication chain that recovers the downlink channel and
  the data symbols from column-wise rank-one factorizations
  (:mod:`tensorisac.comm_krf`).

:mod:`tensorisac.signal_model` generates every physical quantity,
:mod:`tensorisac.tensor_ops` holds the tensor/linear-algebra kernels, and
:mod:`tensorisac.harness` drives seeded Monte Carlo sweeps with CSV output
(CLI: ``tensorisac``).

The root re-exports the ``__all__`` of each of those modules and of
:mod:`tensorisac.exceptions`; its own ``__all__`` is their concatenation.
"""

from . import comm_krf, exceptions, harness, sensing_als, signal_model, tensor_ops
from .comm_krf import *
from .exceptions import *
from .harness import *
from .sensing_als import *
from .signal_model import *
from .tensor_ops import *

__version__ = "0.1.0"

__all__ = [
    *comm_krf.__all__,
    *exceptions.__all__,
    *harness.__all__,
    *sensing_als.__all__,
    *signal_model.__all__,
    *tensor_ops.__all__,
]
