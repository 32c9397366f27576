"""Finite-dimensional laboratory for contraction semigroups: dissipativity
certificates, Cayley transforms of operators and of open systems, internal
loops closed directly or through output feedback, passivity checks, and
mimetic discretizations of damped-wave and degenerate-parabolic equations.
"""

from . import cayley, feedback, numkernel, pdelab, simkit, sysnode
from .cayley import *
from .feedback import *
from .numkernel import *
from .pdelab import *
from .simkit import *
from .sysnode import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = (cayley.__all__ + feedback.__all__ + numkernel.__all__
           + pdelab.__all__ + simkit.__all__ + sysnode.__all__
           + ["__version__"])
