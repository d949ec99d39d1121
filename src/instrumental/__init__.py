"""Exact analysis of classical, quantum and no-signalling correlations
in instrumental causal scenarios.

The package republishes the `__all__` of each module below; a name is made
public by listing it in its own module.
"""

from . import errors, inequalities, polytope, quantum, scenario
from .errors import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .polytope import *  # noqa: F401,F403
from .inequalities import *  # noqa: F401,F403
from .quantum import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *dict.fromkeys(
        name
        for module in (errors, scenario, polytope, inequalities, quantum)
        for name in module.__all__
    ),
    "__version__",
]
