"""Fela core: tokens, token server, scheduling policies, runtime."""

from repro.core.bucket import TokenBucket
from repro.core.collectives import (
    broadcast,
    hierarchical_allreduce,
    parameter_server_sync,
    ring_allreduce,
    tree_allreduce,
)
from repro.core.config import FelaConfig, SyncMode
from repro.core.distributor import Selection, TokenDistributor
from repro.core.generator import TokenGenerator, split_samples
from repro.core.runtime import FelaRuntime, PipelinedFelaRuntime
from repro.core.server import TokenServer
from repro.core.tokens import InfoMapping, SampleRange, Token, TokenId
from repro.core.worker import Worker

__all__ = [
    "FelaConfig",
    "FelaRuntime",
    "InfoMapping",
    "PipelinedFelaRuntime",
    "SampleRange",
    "Selection",
    "SyncMode",
    "Token",
    "TokenBucket",
    "TokenDistributor",
    "TokenGenerator",
    "TokenId",
    "TokenServer",
    "Worker",
    "broadcast",
    "hierarchical_allreduce",
    "parameter_server_sync",
    "ring_allreduce",
    "split_samples",
    "tree_allreduce",
]
