"""
Stack sorting, stack words, and exact enumeration of t-stack sortable
permutations, with the asymptotic machinery for the 3-stack upper bound.
"""

from .counting import *
from .growth import *
from .machine import *
from .perms import *
from .words import *

__version__ = "0.1.0"

__all__ = sorted(counting.__all__ + growth.__all__ + machine.__all__ + perms.__all__ + words.__all__)
