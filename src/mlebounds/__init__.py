"""Explicit normal-approximation error bounds for maximum likelihood
estimators that are functions of i.i.d. sums, plus a seeded Monte Carlo
harness that estimates the true distance and checks it against the bounds.

The public names are each module's ``__all__``; ``cli`` is an entry point.
"""

from .errors import *
from .special import *
from .models import *
from .moments import *
from .bounds import *
from .montecarlo import *

__version__ = "0.1.0"
