"""The sharded serving tier.

:class:`ShardedSession` runs one single-writer
:class:`~repro.session.DynamicGraphSession` over the global graph and
keeps ``N`` edge-cut fragments (:mod:`~repro.parallel.partition`) as
durable logs: each :class:`ShardWorker` applies its fragment's share of
every committed window through its own query-less session (per-shard
WAL and checkpoints).  Served through :mod:`repro.serve` via
``repro serve --shards N``.
"""

from .partition import Partitioning, build_partitioning, stable_assign, stable_partition
from .router import ShardedSession
from .worker import ShardWorker, shard_main

__all__ = [
    "Partitioning",
    "ShardedSession",
    "ShardWorker",
    "build_partitioning",
    "shard_main",
    "stable_assign",
    "stable_partition",
]
