"""Shannon capacity of SISO links through lossless two-port networks.

The package exports the `__all__` of its layers `channels`, `config`,
`linkmodel` and `waterfill`, and each of those lists is the one record of
its layer's API: a function or class is public exactly when its name has no
leading underscore, and the `__all__` of the module that defines it lists it.
"""

from .channels import *
from .config import *
from .linkmodel import *
from .waterfill import *

__version__ = "0.1.0"
