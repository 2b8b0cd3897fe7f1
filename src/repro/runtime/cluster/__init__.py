"""Multi-process cluster runtime: the paper's mechanisms over real IPC.

:class:`ClusterSession` spawns one worker **process** per
simulated cluster node (``multiprocessing``), each running the same
threaded per-node pipeline as the local runtime
(:class:`~repro.runtime.pernode.NodePipeline`), and wires the three
cross-node mechanisms of the paper for real:

1. **Distributed cache** (Section 4.1.3) — on a host-cache miss a node
   sends a request to the item's mediator (:func:`~repro.cache.distributed.mediator_of`);
   the mediator consults its :class:`~repro.cache.distributed.CandidateDirectory`
   and forwards the request along the candidate chain; the first holder
   ships the pre-processed NumPy payload straight back to the requester
   over the transport — the paper's ``h + 2`` messages per request.
   Outcomes land in :class:`~repro.cache.distributed.HopStats`.

2. **Global work stealing** (Section 4.2) — the whole workload starts
   as one root :class:`~repro.scheduling.quadtree.PairBlock` on node 0;
   idle nodes steal blocks from remote deques through the coordinator,
   which probes victims in the order produced by the existing
   :class:`~repro.scheduling.workstealing.VictimSelector` global tier.

3. **Result gathering** — completed pairs stream back to the
   coordinator in batched result blocks
   (:class:`~repro.runtime.transport.ResultBatcher`); the coordinator
   assembles the final :class:`~repro.core.result.ResultMatrix` and the
   job's :class:`~repro.runtime.stats.RunStats` from the nodes' reports
   (pipeline counters, hop histogram, bytes and messages over the wire,
   per-kind message counts).

*How* bytes move between the processes is delegated to a
:class:`~repro.runtime.transport.Transport`
(``ClusterConfig(transport=...)``): the ``"queue"`` transport pickles
payloads inline through ``multiprocessing`` queues (one per sender and
receiver, so a killed node can wedge no one else's inbox), the
``"shm"`` transport keeps payloads in coordinator-owned shared-memory
segments and ships only small descriptors.  The default ``fork`` start
method shares the application/store objects with the children at no
cost; with ``spawn`` they must be picklable.

The runtime is **session-oriented and multi-job**: worker processes
are spawned once per :class:`ClusterSession` and then serve *many
concurrently active jobs*.  Each job is dispatched over the transport
as a ``("job", job_id, packed_spec, max_inflight)`` message, where the
spec ``(keys, accepted, blocks)`` — ``accepted`` the job's
:class:`~repro.core.workload.PairSet` of index codes, or None for
every pair of the blocks — rides inline on the queue
transport and as a shared-segment descriptor on shm.  A job exists on
a node from the moment the node's comm thread reads that hand-out: it
registers the job and starts the job's own
:class:`~repro.runtime.pernode.NodePipeline`, borrowed from the
persistent :class:`~repro.runtime.pernode.NodeEngine`, before it reads
the next message.  The coordinator's messages to a node arrive in
order, so a stop or grant sent after the hand-out always finds the
job.  The node's main thread is the driver that retires each finished
job (flush, error, stats report) and enforces the node watchdog.
Several jobs' pair streams interleave on the shared devices and
caches while the processes, kernel threads and transport fabric
survive between jobs.  Every protocol message — cache requests and
replies, steal probes and grants, result batches, stats reports — is
tagged with its job id, so one job's stragglers can never leak into
another job's accounting, and aborting one job (``("stop", job_id,
abort)``) leaves co-running jobs untouched.  How many jobs run at once and in which
order is decided coordinator-side by the
:class:`~repro.core.scheduler.JobScheduler` (FIFO: serial, the
historical behaviour; FAIR: priority-ordered concurrent admission).
``Rocket(..., backend="cluster").run()`` is the one-shot path: open a
session, submit one workload, close.

Membership is live, in one mode: nodes join and retire while jobs run,
and a node that dies is evicted — its unfinished blocks are re-injected
onto the survivors under a new membership epoch — so a worker death is
fatal only when no live node remains.

The package follows the seams between the roles: :mod:`.config`
(:class:`ClusterConfig`), :mod:`.comm` (the per-node protocol endpoint),
:mod:`.node` (the worker process), :mod:`.job` (the coordinator's state
for one job: shares, steals, recovery) and :mod:`.session` (the
coordinator, :class:`ClusterSession`).
"""

from repro.runtime.cluster.comm import NodeCommServer, NodeJobState
from repro.runtime.cluster.config import ClusterConfig
from repro.runtime.cluster.session import ClusterSession
from repro.runtime.stats import MESSAGE_KINDS
from repro.runtime.transport import QueueTransport

__all__ = [
    "ClusterConfig",
    "ClusterSession",
    "NodeCommServer",
    "NodeJobState",
    "QueueTransport",
    "MESSAGE_KINDS",
]
