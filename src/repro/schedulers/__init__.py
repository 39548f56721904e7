"""Task-assignment policies: the baselines E-Ant is evaluated against.

The E-Ant scheduler itself lives in :mod:`repro.core` (it is the paper's
contribution, not a baseline) but implements the same
:class:`~repro.schedulers.base.Scheduler` interface.
"""

from .base import Scheduler
from .covering import CoveringSubsetScheduler
from .fair import FairScheduler
from .fifo import FifoScheduler
from .late import LateScheduler
from .tarazu import TarazuScheduler

__all__ = [
    "Scheduler",
    "CoveringSubsetScheduler",
    "FifoScheduler",
    "FairScheduler",
    "TarazuScheduler",
    "LateScheduler",
]
