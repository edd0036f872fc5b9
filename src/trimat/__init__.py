"""trimat: intersection matrices of surface triangulations.

Compute the pairwise intersection-dimension matrix of a triangulated
surface, search for matrix-preserving triangle bijections and decide
whether they are induced by vertex maps, classify the cycle of triangles
around a vertex, rebuild a triangulation from its matrix alone, and
recognize the two projective-plane triangulations whose matrices admit
self-maps that no vertex map induces.
"""

# Each module's __all__ is the one list of the names the package exports.
# The reconstruct module is bound under an alias before its star import
# rebinds ``trimat.reconstruct`` to the function.
from . import catalog, complexes, cycles, errors, intersection, reconstruct as _reconstruct
from .catalog import *
from .complexes import *
from .cycles import *
from .errors import *
from .intersection import *
from .reconstruct import *

__version__ = "0.1.0"

__all__ = (
    catalog.__all__
    + complexes.__all__
    + cycles.__all__
    + errors.__all__
    + intersection.__all__
    + _reconstruct.__all__
)
