"""Monte Carlo engine for defined-contribution pension adequacy and guarantee costing.

A seeded, reproducible simulator: salaries grow by a fixed increment plus
an inflation-linked allowance, contributions accumulate in a market
corpus driven by annual GBM log-returns, and retirement adequacy is
scored against an inflation-adjusted share of the final salary. Guarantee
cost is the discounted value of the top-ups needed to close any gap.

The package exports every public name of its modules, as each module's
`__all__` lists them.
"""

from . import accumulation, engine, io_cli, retirement, stochastic
from .accumulation import *
from .engine import *
from .io_cli import *
from .retirement import *
from .stochastic import *

__version__ = "0.1.0"

__all__ = [
    *accumulation.__all__,
    *engine.__all__,
    *io_cli.__all__,
    *retirement.__all__,
    *stochastic.__all__,
]
