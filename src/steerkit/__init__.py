"""Exact numerical toolkit for multipartite EPR steering.

Two backends share one vocabulary of criteria: finite stabilizer states on
up to 14 qubits, and Gaussian states described by quadrature covariance
matrices.  Every criterion returns a :class:`SteeringValue` whose verdict is
``core.below_bound(value, bound)`` against its criterion's own bound: a
value on its bound is not a violation.

Each module declares its public names once, in its ``__all__``; the package
exports exactly their union.
"""

from . import core, criteria, gaussian, qubits, scenarios
from .core import *
from .criteria import *
from .gaussian import *
from .qubits import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = []
__all__ += core.__all__
__all__ += criteria.__all__
__all__ += gaussian.__all__
__all__ += qubits.__all__
__all__ += scenarios.__all__
