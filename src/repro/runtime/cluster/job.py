"""Coordinator-side state of one active cluster job."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.session import RunHandle
from repro.core.workload import pair_counter
from repro.runtime.backend import SessionJob
from repro.runtime.stats import NodeStats
from repro.scheduling.quadtree import PairBlock, partition_blocks
from repro.scheduling.workstealing import StealPolicy, VictimSelector
from repro.util.rng import RngFactory

if TYPE_CHECKING:
    from repro.runtime.cluster.session import ClusterSession


class _ClusterJob(SessionJob):
    """One active job's coordinator-side state.

    Owns everything the coordinator tracks per job — initial shares,
    steal bookkeeping, completion counts, per-node reports — so the
    single serve loop can interleave any number of jobs by routing each
    job-tagged message here.
    """

    def __init__(self, session: "ClusterSession", handle: RunHandle) -> None:
        cfg = session._config
        super().__init__(handle, cfg.watchdog_seconds)
        self.session = session
        workload = handle.residual  # what the memo store left to compute
        self.keys = workload.keys
        self.accepted = workload.accepted
        #: Accepted pairs of a block (all of them, when the job has no set).
        self.accepted_count = pair_counter(self.accepted)
        self.n_items = workload.n_items

        self.node_speeds = session._node_speeds
        self.speed_aware = cfg.steal_policy is StealPolicy.SPEED
        #: Nodes this job is dispatched to: the live set at admission,
        #: grown by mid-job joins.  Dead/retired nodes stay members and
        #: move into ``forgiven_nodes`` so report accounting stays
        #: exact.
        self.participants: Set[int] = set(session._live)
        nodes = sorted(self.participants)
        blocks = workload.blocks()
        if self.speed_aware and len(nodes) > 1:
            # Speed-proportional initial partitioning: every node starts
            # with a share of the workload's block set matching its
            # aggregate speed instead of the first node holding
            # everything.
            node_shares = partition_blocks(
                blocks, [self.node_speeds[n] for n in nodes], size=self.accepted_count
            )
        else:
            node_shares: List[List[PairBlock]] = [[] for _ in nodes]
            node_shares[0] = blocks
        self.shares: Dict[int, List[PairBlock]] = dict(zip(nodes, node_shares))
        self.selector = VictimSelector(
            session._topology, RngFactory(cfg.seed).get(f"cluster:steal:{self.job_id}")
        )
        self.pending_steals: Dict[Tuple[int, int], List[int]] = {}
        #: The victim each in-flight steal request is currently probing;
        #: a victim death advances the probe immediately instead of
        #: letting the thief wait out its steal timeout.
        self.probing: Dict[Tuple[int, int], int] = {}
        self.reports: Dict[int, NodeStats] = {}
        capacity = session._capacity
        # Estimated accepted pairs still owned by each node: the initial
        # share, plus/minus granted steals, minus streamed results.
        # Drives remaining-work victim ranking under the SPEED policy.
        self.assigned = [0] * capacity
        for n, share in self.shares.items():
            self.assigned[n] = sum(self.accepted_count(b) for b in share)
        self.completed_by = [0] * capacity
        #: Blocks each node is estimated to hold right now (initial
        #: share, moved by steal grants) — the recovery source when a
        #: node dies or retires mid-job.  Over-inclusion is safe (the
        #: dedupe filter drops re-executed pairs); under-inclusion
        #: would lose pairs, so blocks only leave a node's list when a
        #: grant provably moved them.
        self.owned: Dict[int, List[PairBlock]] = {
            n: list(share) for n, share in self.shares.items()
        }
        #: The stop broadcast went out (all pairs in, failure or abort).
        self.stopped = False
        #: Set when the stop broadcast goes out: the job must collect
        #: its remaining stats reports before this wall-clock moment or
        #: the session is marked dead (a node that neither reports nor
        #: dies leaves the protocol state unknowable).
        self.report_deadline: Optional[float] = None
        #: Nodes that died after this job completed cleanly: their
        #: stats report is forgiven instead of failing the session.
        self.forgiven_nodes: Set[int] = set()

    # -- bookkeeping helpers ---------------------------------------------

    def reports_complete(self) -> bool:
        return all(
            i in self.reports or i in self.forgiven_nodes for i in self.participants
        )

    # -- protocol actions ------------------------------------------------

    def broadcast_stop(self, abort: bool) -> None:
        self.stopped = True
        if self.report_deadline is None:
            self.report_deadline = time.perf_counter() + 15.0
        for node in self.participants:
            self.session._tell(node, ("stop", self.job_id, abort))

    def victim_order(self, thief: int) -> List[int]:
        """Remote-node probe order for a steal request.

        UNIFORM: the global VictimSelector tier (randomized,
        locality-aware).  SPEED: the same candidate set re-ranked by
        estimated remaining work, so the most-backlogged node is
        probed first instead of a uniformly random one.  Dead,
        retired and non-participating nodes are excluded at the
        selector so a thief's probe can never park on a victim that
        will not answer.
        """
        cfg = self.session._config
        topology = self.session._topology
        live = self.session._live
        excluded = frozenset(
            w
            for w, node in enumerate(topology.node_of)
            if node not in live
            or node not in self.participants
            or node in self.forgiven_nodes
        )
        order: List[int] = []
        for w in self.selector.candidates(thief * cfg.n_devices, exclude=excluded):
            node = topology.node_of[w]
            if node != thief and node not in order:
                order.append(node)
        if self.speed_aware:
            # Remaining *time*, not pairs: a slow node with half the
            # backlog of a fast one may still be the bigger straggler.
            order.sort(
                key=lambda v: (
                    max(0, self.assigned[v] - self.completed_by[v])
                    / self.node_speeds[v]
                ),
                reverse=True,
            )
        return order

    def grant(
        self, thief: int, req_id: int, block: Optional[PairBlock], count: int = 0
    ) -> None:
        if block is not None and thief not in self.session._live:
            # The thief died between its request and this grant: the
            # block would be stranded in a dead inbox.  Hand it to a
            # surviving node instead (the thief's own death handling
            # reclaims whatever it already held).
            self.reinject_block(block)
            return
        msg = ("sgrant", self.job_id, req_id, block)
        if block is None:
            self.session._tell(thief, msg)
            return
        # Raises on a torn-down channel: a lost granted block would
        # strand its pairs.
        self.session._fabric.send_node(thief, msg)
        self.remote_steals += 1
        self.assigned[thief] += count
        self.owned.setdefault(thief, []).append(block)

    def advance_steal(self, key: Tuple[int, int]) -> None:
        thief, req_id = key
        victims = self.pending_steals[key]
        live = self.session._live
        while victims:
            victim = victims.pop(0)
            if victim not in live:
                continue  # died since the order was computed
            self.probing[key] = victim
            self.session._fabric.send_node(
                victim, ("sprobe", self.job_id, thief, req_id)
            )
            return
        del self.pending_steals[key]
        self.probing.pop(key, None)
        self.grant(thief, req_id, None)

    def record_results(self, i: np.ndarray, j: np.ndarray, values: np.ndarray) -> None:
        """Record one decoded ``("results", ...)`` block, once.

        Exactly-once: recovery re-executes whole blocks, so a pair may
        be computed twice — only the first result streams to the handle
        and counts toward completion.  Deduplicated in bulk: one
        membership pass over the block, not one lookup per pair.
        """
        fresh = self.handle._matrix.unrecorded(i, j)
        if not len(fresh):
            return
        self.handle._record_block(i[fresh], j[fresh], values[fresh])
        done, total = self.handle.progress()
        if done == total and not self.stopped:
            self.broadcast_stop(False)

    def fail(self, text: str) -> None:
        if self.error is None:
            self.error = RuntimeError(f"cluster run failed: {text}")
        if not self.stopped:
            self.broadcast_stop(True)

    # -- recovery --------------------------------------------------------

    def _subtract_owned(self, node: int, block: PairBlock) -> None:
        """Remove ``block`` from ``node``'s ownership estimate.

        A steal grant ships an exact block the victim reported, which
        is either one of the blocks we track for it or a descendant
        produced by the victim's local quadtree splits.  Exact match
        pops the entry; otherwise we descend: split the containing
        tracked block the same way the quadtree does, drop the child
        matching the grant, keep the siblings.  If the region cannot
        be aligned we leave the tracked block alone — over-inclusion
        only costs duplicated (deduped) work on recovery, while
        removing too much would lose pairs.
        """
        owned = self.owned.get(node)
        if not owned:
            return
        region = (block.row_lo, block.row_hi, block.col_lo, block.col_hi)
        for k, b in enumerate(owned):
            if (b.row_lo, b.row_hi, b.col_lo, b.col_hi) == region:
                owned.pop(k)
                return
        # Quadtree descent from the containing tracked block.
        for k, b in enumerate(owned):
            if (
                b.row_lo <= block.row_lo
                and b.row_hi >= block.row_hi
                and b.col_lo <= block.col_lo
                and b.col_hi >= block.col_hi
            ):
                container = owned.pop(k)
                for _ in range(64):  # bound descent on misaligned regions
                    if (
                        container.row_lo,
                        container.row_hi,
                        container.col_lo,
                        container.col_hi,
                    ) == region:
                        return  # exact child found and dropped
                    if container.is_leaf():
                        owned.append(container)  # misaligned: keep whole
                        return
                    next_container = None
                    for child in container.split():
                        if (
                            child.row_lo <= block.row_lo
                            and child.row_hi >= block.row_hi
                            and child.col_lo <= block.col_lo
                            and child.col_hi >= block.col_hi
                        ):
                            next_container = child
                        else:
                            owned.append(child)
                    if next_container is None:
                        return  # grant straddles children: siblings kept
                    container = next_container
                owned.append(container)
                return

    def reinject_block(self, block: PairBlock, exclude: Set[int] = frozenset()) -> int:
        """Queue ``block`` onto a live participant via the late-grant path.

        Returns the target node, or -1 if no live participant is left
        (the caller fails the job).  Targets the least-loaded live
        node by the remaining-work estimate so recovery does not pile
        onto one survivor.
        """
        targets = [
            n
            for n in self.participants
            if n in self.session._live
            and n not in self.forgiven_nodes
            and n not in exclude
        ]
        if not targets:
            return -1
        target = min(targets, key=lambda n: self.assigned[n] - self.completed_by[n])
        count = self.accepted_count(block)
        # req_id -1: no pending on the node side — routes through the
        # same inject path as a late steal grant.
        self.session._fabric.send_node(target, ("sgrant", self.job_id, -1, block))
        self.assigned[target] += count
        self.owned.setdefault(target, []).append(block)
        return target

    def _block_remaining(self, block: PairBlock) -> bool:
        """True if any accepted pair of ``block`` lacks a recorded result."""
        i, j = block.columns() if self.accepted is None else self.accepted.columns(block)
        return len(self.handle._matrix.unrecorded(i, j)) > 0

    def recover_node(self, node: int, *, voluntary: bool = False) -> int:
        """Reclaim a dead/retiring node's unfinished blocks and re-enqueue.

        Returns the number of pairs re-injected.  The node is marked
        forgiven (its stats report is no longer awaited) and all steal
        probes parked on it are advanced immediately.
        """
        self.forgiven_nodes.add(node)
        blocks = self.owned.pop(node, [])
        reinjected_pairs = 0
        lost = False
        for block in blocks:
            if not self._block_remaining(block):
                continue  # every accepted pair already streamed back
            if self.reinject_block(block, exclude={node}) < 0:
                lost = True
                break
            reinjected_pairs += self.accepted_count(block)
        # Steal requests probing the dead victim would otherwise wait
        # out the watchdog; advance them to the next candidate now.
        for key, victim in list(self.probing.items()):
            if victim == node and key in self.pending_steals:
                self.advance_steal(key)
        if self.handle.accounting is not None:
            if not voluntary:
                self.handle.accounting.nodes_lost += 1
            self.handle.accounting.pairs_recovered += reinjected_pairs
        if lost:
            self.fail(f"node {node} died and no live node remains to take over")
        return reinjected_pairs
