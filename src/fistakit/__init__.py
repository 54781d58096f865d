"""First-order composite solver kit: FISTA, restart schemes, Lasso benchmarks."""

from . import fista, lasso, model, oracles, restart

__all__ = [name for module in (model, fista, restart, lasso, oracles) for name in module.__all__]

from .model import *
from .fista import *  # from here on the name fista is the function, not its submodule
from .restart import *
from .lasso import *
from .oracles import *

__version__ = "0.1.0"
