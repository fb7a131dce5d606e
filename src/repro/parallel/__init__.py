"""The sharded serving tier.

:class:`ShardedSession` runs one single-writer
:class:`~repro.session.DynamicGraphSession` over the global graph and
keeps ``N`` edge-cut fragments (:mod:`~repro.parallel.partition`) as
durable replicas: each :class:`ShardWorker` applies its fragment's share
of every committed window through its own session (per-shard WAL and
checkpoints), then pins the writer's values.  Served through
:mod:`repro.serve` via ``repro serve --shards N``.
"""

from .partition import (
    Partitioning,
    build_partitioning,
    hash_partition,
    stable_assign,
    stable_partition,
)
from .router import SHARDABLE_ALGORITHMS, ShardedSession
from .worker import ShardWorker, shard_main

__all__ = [
    "Partitioning",
    "SHARDABLE_ALGORITHMS",
    "ShardedSession",
    "ShardWorker",
    "build_partitioning",
    "hash_partition",
    "shard_main",
    "stable_assign",
    "stable_partition",
]
