"""Cluster assembly: nodes (GPU + NIC + local storage) on a shared fabric.

A :class:`Cluster` owns the simulation environment, the network fabric and
one :class:`Node` per machine, mirroring the paper's testbed: 8 servers,
one Tesla K40c each, 10 Gbps full-duplex links into a 40GE switch.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigurationError
from repro.hardware.gpu import GpuSpec
from repro.net import Fabric
from repro.sim import Environment, Event, Resource


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """Static description of a homogeneous cluster.

    Defaults reproduce the paper's testbed.
    """

    num_nodes: int = 8
    #: Per-direction NIC line rate in bytes/second (10 Gbps).
    link_bandwidth: float = 1.25e9
    #: Fraction of the line rate an application transfer actually gets.
    #: TCP/IP framing, Gloo's chunking, and PyTorch (de)serialization all
    #: eat into the 10 Gbps; ~55% effective goodput is typical for
    #: Gloo-over-TCP on this class of hardware and is what makes
    #: data-parallel VGG training communication-bound in practice.
    network_efficiency: float = 0.55
    #: One-way network latency in seconds.
    latency: float = 50e-6
    gpu: GpuSpec = dataclasses.field(default_factory=GpuSpec)
    #: Optional per-node GPU speed multipliers (1.0 = the nominal GPU).
    #: A factor of 0.5 makes that node's computations take twice as long
    #: — a *permanent* straggler, as opposed to the injected transient
    #: ones.  ``None`` means a homogeneous cluster.
    gpu_speed_factors: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # Guards read ``not x > 0`` so that NaN fails them too.
        if self.num_nodes < 1:
            raise ConfigurationError(
                f"cluster needs at least one node: {self.num_nodes}"
            )
        if not self.link_bandwidth > 0:
            raise ConfigurationError(
                f"link bandwidth must be > 0: {self.link_bandwidth}"
            )
        if not self.latency >= 0:
            raise ConfigurationError(f"latency must be >= 0: {self.latency}")
        if not 0 < self.network_efficiency <= 1:
            raise ConfigurationError(
                f"network efficiency must be in (0, 1]: "
                f"{self.network_efficiency}"
            )
        if self.gpu_speed_factors is not None:
            if len(self.gpu_speed_factors) != self.num_nodes:
                raise ConfigurationError(
                    f"{len(self.gpu_speed_factors)} speed factors for "
                    f"{self.num_nodes} nodes"
                )
            if not all(factor > 0 for factor in self.gpu_speed_factors):
                raise ConfigurationError(
                    f"speed factors must be > 0: {self.gpu_speed_factors}"
                )

    def speed_factor(self, node_id: int) -> float:
        """GPU speed multiplier of one node (1.0 when homogeneous)."""
        if self.gpu_speed_factors is None:
            return 1.0
        return self.gpu_speed_factors[node_id]

    @property
    def effective_bandwidth(self) -> float:
        """Application-level goodput per NIC direction, bytes/second."""
        return self.link_bandwidth * self.network_efficiency


class Node:
    """One machine: a GPU (exclusive-use resource) and fabric endpoints."""

    def __init__(self, cluster: "Cluster", node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.gpu_spec = cluster.spec.gpu
        #: Relative GPU speed; compute durations are divided by this.
        self.speed_factor = cluster.spec.speed_factor(node_id)
        #: Kernels execute one at a time per GPU.
        self._gpu = Resource(cluster.env, capacity=1)
        #: Cumulative seconds the GPU spent computing (for utilization).
        self.busy_time: float = 0.0
        #: Extra seconds added to the *next* computations on this node;
        #: consumed by straggler injectors.
        self._pending_delay: float = 0.0

    def __repr__(self) -> str:
        return f"<Node {self.node_id}>"

    @property
    def env(self) -> Environment:
        return self.cluster.env

    # -- straggler hook -------------------------------------------------------

    def add_delay(self, seconds: float) -> None:
        """Inject a straggler delay consumed by the next GPU computation.

        This mirrors the paper's methodology ("add sleeping delays to
        workers, so as to prolong their computation time").
        """
        if not seconds >= 0:
            raise ConfigurationError(f"delay must be >= 0: {seconds}")
        self._pending_delay += seconds

    def take_pending_delay(self) -> float:
        """Consume and return any injected delay (used by ``compute``)."""
        delay, self._pending_delay = self._pending_delay, 0.0
        return delay

    # -- compute ----------------------------------------------------------------

    def compute(self, seconds: float):
        """Process generator: occupy the GPU for ``seconds`` (+ any injected
        straggler delay).  Yields until the computation finishes.
        """
        if not seconds >= 0:
            raise ConfigurationError(f"compute time must be >= 0: {seconds}")
        with self._gpu.request() as req:
            yield req
            total = seconds / self.speed_factor + self.take_pending_delay()
            self.busy_time += total
            started = self.env.now
            try:
                yield self.env.timeout(total)
            except BaseException:
                # Interrupted mid-kernel (worker crash): only the time
                # actually spent counts toward GPU utilization.
                self.busy_time -= total - (self.env.now - started)
                raise

    # -- network ------------------------------------------------------------------

    def send(self, dst: int, size: float) -> Event:
        """Start a transfer to node ``dst``; returns its completion event."""
        return self.cluster.fabric.transfer(self.node_id, dst, size)


class Cluster:
    """Environment + fabric + nodes for one simulated experiment."""

    def __init__(
        self,
        spec: ClusterSpec | None = None,
        env: Environment | None = None,
    ) -> None:
        self.spec = spec or ClusterSpec()
        #: A cluster normally owns its environment; ``repro.cluster``
        #: passes a shared one so many job clusters tick on one clock.
        self.env = env if env is not None else Environment()
        self.fabric = Fabric(
            self.env,
            num_nodes=self.spec.num_nodes,
            link_bandwidth=self.spec.effective_bandwidth,
            latency=self.spec.latency,
        )
        self.nodes = [Node(self, i) for i in range(self.spec.num_nodes)]

    def __repr__(self) -> str:
        return f"<Cluster nodes={len(self.nodes)} t={self.env.now:.3f}>"

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> _t.Iterator[Node]:
        return iter(self.nodes)

    def __getitem__(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def utilization(self) -> list[float]:
        """Per-node GPU busy fraction since time zero."""
        if self.env.now == 0:
            return [0.0] * len(self.nodes)
        return [node.busy_time / self.env.now for node in self.nodes]
