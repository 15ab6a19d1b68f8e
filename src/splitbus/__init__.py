"""splitbus: two-party split learning over a pub/sub bus, up to one process per party.

The package is organised as a plain numpy library:

- :mod:`splitbus.nn` — dense MLP forward/backward, losses, SGD, averaging
- :mod:`splitbus.data` — synthetic/CSV tables, vertical splits, batch plans
- :mod:`splitbus.broker` — per-batch embedding/gradient channels with
  bounded FIFO buffers, deadlines and byte accounting
- :mod:`splitbus.transport` — the passive party's forked process, the
  shared-memory slots its messages cross and the pipes its commands cross
- :mod:`splitbus.privacy` — Gaussian embedding-noise calibration
- :mod:`splitbus.schedule` — the tapering parameter-server sync interval
- :mod:`splitbus.runtime` — worker pools, parameter servers and the five
  execution modes
- :mod:`splitbus.reference` — the serial reference trainer that ``lockstep``
  and 1-worker ``pubsub`` match bit for bit
- :mod:`splitbus.profiler` — per-batch-size delay calibration and power-law
  fits, plus the memory ceiling
- :mod:`splitbus.planner` — worker/batch configuration search
- :mod:`splitbus.metrics` — AUC/RMSE and JSONL run metrics
- :mod:`splitbus.cli` — the ``splitbus`` command (profile/plan/train/compare)
"""

__version__ = "0.1.0"
