"""Exact tilting-module combinatorics over path algebras.

The package computes, over the rationals and without any floating point,
the indecomposable modules of a representation-finite (or tame, within a
window) quiver algebra, enumerates its tilting modules, builds the
exchange graph on them, and carries the whole toolkit over to the
duplicated algebra, where endomorphism rings and homological dimensions
of the induced tilts can be verified mechanically.
"""

from .exactlin import RatMatrix
from .quiver_core import Quiver

__all__ = [
    "RatMatrix",
    "Quiver",
]

__version__ = "0.1.0"
