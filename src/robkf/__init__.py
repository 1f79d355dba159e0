"""Robust and risk-sensitive Kalman filtering with convergence certificates.

A state-space model, a one-parameter family of Gaussian relative
entropies (tau in [0, 1]), the reweighted Riccati recursions they
induce, Thompson-metric contraction analysis certifying when those
recursions converge, batch filters, and a CLI. Each public name is
declared once, in the ``__all__`` of the module that defines it.
"""
from robkf import contraction, divergence, errors, filters, model, riccati
from robkf.contraction import *  # noqa: F401,F403
from robkf.divergence import *  # noqa: F401,F403
from robkf.errors import *  # noqa: F401,F403
from robkf.filters import *  # noqa: F401,F403
from robkf.model import *  # noqa: F401,F403
from robkf.riccati import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *model.__all__, *divergence.__all__, *riccati.__all__,
           *contraction.__all__, *filters.__all__, *errors.__all__]
