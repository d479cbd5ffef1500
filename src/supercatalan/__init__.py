"""Exact arithmetic for super Catalan numbers and their alternating
convolutions, with a registry-driven identity verifier and a CLI.

All values are exact: arbitrary-precision integers and reduced rationals.
"""

__version__ = "0.1.0"

from .exactnum import *
from .supercat import *
from .sums import *
from .dsums import *
from .verifier import *

# importing a submodule binds its name here, so its __all__ is in reach
__all__ = [*exactnum.__all__, *supercat.__all__, *sums.__all__, *dsums.__all__,
           *verifier.__all__]
