"""Reward-maximizing shift planning for demand-responsive services.

The package exports each library module's `__all__`, the one list of its
public names (PEP 8: republishing an internal interface).
"""

from .benchmark import *  # noqa: F403
from .domain import *  # noqa: F403
from .milp import *  # noqa: F403
from .piecewise import *  # noqa: F403
from .planner import *  # noqa: F403
from .roster import *  # noqa: F403

__version__ = "0.1.0"
