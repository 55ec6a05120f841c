"""Performance analysis toolkit for active-RIS-aided wireless-powered links.

Closed-form evaluators for the ergodic rate, outage probability, and RIS
power consumption; time-switching-factor optimizers; and a seedable Monte
Carlo channel simulator that cross-validates every closed form.

The package exports exactly the public names of its seven library modules
(each module's ``__all__``) plus ``__version__``.
"""
from . import channel, closedform, config, montecarlo, optimize, power, ris
from .channel import *  # noqa: F401,F403
from .closedform import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .optimize import *  # noqa: F401,F403
from .power import *  # noqa: F401,F403
from .ris import *  # noqa: F401,F403

__version__ = "0.1.0"

_LIBRARY_MODULES = (channel, closedform, config, montecarlo, optimize, power, ris)

__all__ = [name for module in _LIBRARY_MODULES for name in module.__all__] + ["__version__"]
