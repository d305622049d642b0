"""The Token Distributor: ADS + HF + CTD policies (paper III-D..III-F).

Selection pipeline for a requesting worker:

1. **HF** (Section III-E) decides *where to look*: the worker's own STB
   first; once empty, the worker becomes a *helper* and draws from the STB
   of the straggler with the fewest helpers and the slowest progress.
   With HF off, the candidate pool is the whole bucket and every request
   contends on the shared lock.
2. **CTD** (Section III-F) filters and re-prioritizes *what may be taken*:
   workers outside the conditional subset S never receive tokens of
   communication-intensive sub-models; workers inside S take them first
   (priority T-2 > T-3 > T-1 in the paper's example).
3. **ADS** (Section III-D) ranks the remainder: highest level first
   (Principle 1), then highest locality score (Principle 2, Equation 1),
   then lowest token id.  With ADS off, tokens are handed out in
   generation (FIFO) order.
"""

from __future__ import annotations

import dataclasses
import heapq
import typing as _t

from repro.core.bucket import TokenBucket
from repro.core.config import FelaConfig
from repro.core.tokens import InfoMapping, Token

#: Election-heap group of every non-empty STB (the level groups use
#: their level, which is never negative).
_ANY_LEVEL = -1


@dataclasses.dataclass(frozen=True)
class Selection:
    """Outcome of one distribution decision."""

    token: Token | None
    #: The token came from the requester's own STB (no lock required).
    from_own_stb: bool
    #: The request contended with other in-flight requests on a shared
    #: pool (costs a conflict penalty, Section III-E).
    contended: bool


class TokenDistributor:
    """Stateful policy engine choosing tokens for requesting workers."""

    def __init__(self, config: FelaConfig) -> None:
        self.config = config
        self.comm_levels = frozenset(
            level
            for level, submodel in enumerate(config.partition)
            if submodel.communication_intensive
        )
        self.subset = config.conditional_subset
        #: Fault-layer membership; None outside faulted runs (then the
        #: static config subset applies unchanged).
        self._membership: _t.Any = None
        self._membership_epoch = -1
        self._effective_subset = self.subset
        #: helper wid -> straggler wid currently being helped.
        self._helping: dict[int, int] = {}
        #: straggler wid -> set of current helper wids.
        self._helpers: dict[int, set[int]] = {}
        #: Helper-election index: group -> min-heap of ``(helpers,
        #: -STB size, wid)`` keys, for the non-empty STBs (group
        #: ``_ANY_LEVEL``) and for each level's holders.  Every group
        #: member has an entry no larger than its current key; reads
        #: drop or refresh outdated entries.  A group is built on its
        #: first election of an iteration.
        self._heaps: dict[int, list[tuple[int, int, int]]] = {}
        #: Stragglers that lost a helper since the last election,
        #: insertion-ordered (their keys fell: push them again).
        self._relieved: dict[int, None] = {}
        #: Requests currently being serviced (for conflict detection).
        self._in_flight_requests: int = 0
        #: wid -> (subset identity, levels) cache for takeable_levels();
        #: invalidated per worker whenever the effective subset object
        #: changes (which only happens on a membership epoch move).
        self._takeable_cache: dict[
            int, tuple[frozenset[int] | None, frozenset[int]]
        ] = {}

    # -- CTD ------------------------------------------------------------------

    def attach_membership(self, membership: _t.Any) -> None:
        """Derive the CTD subset from live membership (elastic runs)."""
        self._membership = membership
        self._membership_epoch = -1

    def current_subset(self) -> frozenset[int]:
        """The CTD conditional subset S, resized under elasticity.

        Without a membership (fault layer off) this is the static config
        subset.  With one, S is the first ``subset_size`` active workers,
        recomputed whenever the membership epoch moves.
        """
        if self._membership is None:
            return self.subset
        if self._membership.epoch != self._membership_epoch:
            size = self.config.subset_size
            active = self._membership.active_workers()
            self._effective_subset = frozenset(active[:size])
            self._membership_epoch = self._membership.epoch
        return self._effective_subset

    def may_take(self, wid: int, level: int) -> bool:
        """CTD filter: may ``wid`` train tokens of ``level``?"""
        if not self.config.ctd_enabled:
            return True
        if level in self.comm_levels and wid not in self.current_subset():
            return False
        return True

    def takeable_levels(self, wid: int) -> frozenset[int]:
        """All levels worker ``wid`` may draw tokens from.

        Cached per worker against the identity of the effective subset:
        the answer only depends on the CTD subset, and the subset object
        is replaced (not mutated) when membership changes.
        """
        subset = self.current_subset() if self.config.ctd_enabled else None
        cached = self._takeable_cache.get(wid)
        if cached is not None and cached[0] is subset:
            return cached[1]
        levels = frozenset(
            level
            for level in range(self.config.levels)
            if self.may_take(wid, level)
        )
        self._takeable_cache[wid] = (subset, levels)
        return levels

    # -- selection -----------------------------------------------------------------

    def select(
        self, wid: int, bucket: TokenBucket, info: InfoMapping
    ) -> Selection:
        """Choose a token for worker ``wid`` (or none, if it must wait)."""
        # The requester itself is registered in-flight by the server, so
        # contention means *someone else* is mid-request too.  Of two
        # colliding requests, the one that resolves first sees the other
        # still in flight and pays the conflict — "at least one worker
        # will encounter fetching failure" (Section III-E).
        contended = self._in_flight_requests > 1
        if self.config.hf_enabled:
            own = self._takeable(wid, bucket.stb_view(wid))
            if own:
                self._stop_helping(wid)
                token = self._rank_and_pick(wid, own, info)
                return Selection(token=token, from_own_stb=True,
                                 contended=False)
            pool = self._helper_pool(wid, bucket)
        else:
            pool = self._takeable(wid, bucket.all_tokens())
        if not pool:
            return Selection(token=None, from_own_stb=False,
                             contended=False)
        token = self._rank_and_pick(wid, pool, info)
        return Selection(token=token, from_own_stb=False, contended=contended)

    def _takeable(self, wid: int, tokens: _t.Iterable[Token]) -> list[Token]:
        if not self.config.ctd_enabled:
            return list(tokens)
        levels = self.takeable_levels(wid)
        return [t for t in tokens if t.level in levels]

    def _rank_and_pick(
        self, wid: int, pool: list[Token], info: InfoMapping
    ) -> Token:
        # The subset membership test is per-request, not per-token: no
        # simulated time passes inside a pick, so hoisting it out of the
        # rank key cannot change the ranking.
        in_subset = (
            self.config.ctd_enabled and wid in self.current_subset()
        )
        comm_levels = self.comm_levels
        if self.config.ads_enabled:
            locality_score = info.locality_score

            def rank(token: Token) -> tuple:
                # When several iterations' tokens coexist (pipelined
                # SSP/ASP), the *oldest* iteration wins first — the token
                # "age" distribution rule of the paper's Section VI sketch.
                return (
                    0
                    if in_subset and token.level in comm_levels
                    else 1,
                    token.iteration,
                    -token.level,
                    -locality_score(wid, token),
                    token.tid,
                )

        else:

            def rank(token: Token) -> tuple:
                return (
                    0
                    if in_subset and token.level in comm_levels
                    else 1,
                    token.iteration,
                    token.tid,
                )

        return min(pool, key=rank)

    # -- HF helper election --------------------------------------------------------

    def _helper_pool(self, wid: int, bucket: TokenBucket) -> list[Token]:
        """Pool for a worker whose own STB is empty (it becomes a helper).

        Prefer the straggler this worker is already helping (sticky
        assignment); otherwise elect the straggler with the fewest current
        helpers, then the slowest progress (largest STB backlog), then the
        lowest id.  Only the elected straggler's pool is materialized.
        An unrestricted helper (subset member or CTD off) may take
        anything, so it elects among every non-empty STB; a
        CTD-restricted one among the STBs holding a level it may take.
        Each group is a lazily validated min-heap (:meth:`_elect`), so an
        election costs O(log workers) amortized instead of a scan.
        """
        restricted = (
            self.config.ctd_enabled and wid not in self.current_subset()
        )
        levels = self.takeable_levels(wid) if restricted else None
        current = self._helping.get(wid)
        if current is not None:
            view = bucket.stb_view(current)
            pool = (
                list(view)
                if levels is None
                else [t for t in view if t.level in levels]
            )
            if pool:
                return pool
            self._stop_helping(wid)

        best = self._elect(
            bucket, (_ANY_LEVEL,) if levels is None else levels
        )
        if best < 0:
            return []
        self._helping[wid] = best
        self._helpers.setdefault(best, set()).add(wid)
        view = bucket.stb_view(best)
        return (
            list(view)
            if levels is None
            else [t for t in view if t.level in levels]
        )

    def _elect(
        self, bucket: TokenBucket, groups: _t.Iterable[int]
    ) -> int:
        """The member of ``groups`` with the smallest key, or -1.

        Keys ``(helpers, -STB size, wid)`` are unique per worker, so the
        minimum is the straggler a full scan would elect.  The requester
        is never a member: its own STB holds no token it may take.

        Only two events lower a key: the STB grows (the bucket's growth
        log) or a helper leaves (``_relieved``).  Both push the current
        key into every existing group the worker belongs to, here,
        before reading.  Removals and new helpers only raise keys, so a
        heap top may be outdated: it is dropped if its worker left the
        group, replaced by the current key if larger, and accepted once
        it equals the current key.
        """
        heaps = self._heaps
        helpers = self._helpers
        stb_size = bucket.stb_size
        nonempty = bucket.nonempty()
        lowered = bucket.drain_grown()
        if self._relieved:
            lowered.update(self._relieved)
            self._relieved = {}
        if heaps and lowered:
            members = [
                (heap, nonempty if group == _ANY_LEVEL else bucket.holders(group))
                for group, heap in heaps.items()
            ]
            for worker in lowered:
                key = (len(helpers.get(worker, ())), -stb_size(worker), worker)
                for heap, group_members in members:
                    if worker in group_members:
                        heapq.heappush(heap, key)

        best_key: tuple[int, int, int] | None = None
        for group in groups:
            group_members = (
                nonempty if group == _ANY_LEVEL else bucket.holders(group)
            )
            heap = heaps.get(group)
            if heap is None:
                # Built from a sorted list, not by iterating the set.
                heap = heaps[group] = self._build(
                    bucket.nonempty_stbs()
                    if group == _ANY_LEVEL
                    else group_members,
                    bucket,
                )
            while heap:
                entry = heap[0]
                worker = entry[2]
                if worker not in group_members:
                    heapq.heappop(heap)
                    continue
                key = (len(helpers.get(worker, ())), -stb_size(worker), worker)
                if entry != key:
                    heapq.heapreplace(heap, key)
                    continue
                if best_key is None or key < best_key:
                    best_key = key
                break
        return -1 if best_key is None else best_key[2]

    def _build(
        self, workers: _t.Iterable[int], bucket: TokenBucket
    ) -> list[tuple[int, int, int]]:
        """A fresh election heap holding each worker's current key."""
        helpers = self._helpers
        heap = [
            (len(helpers.get(worker, ())), -bucket.stb_size(worker), worker)
            for worker in workers
        ]
        heapq.heapify(heap)
        return heap

    def _stop_helping(self, wid: int) -> None:
        straggler = self._helping.pop(wid, None)
        if straggler is not None:
            self._helpers.get(straggler, set()).discard(wid)
            self._relieved[straggler] = None

    def helper_of(self, wid: int) -> int | None:
        """The straggler ``wid`` currently helps, if any (for tests)."""
        return self._helping.get(wid)

    # -- conflict accounting ---------------------------------------------------------

    def request_started(self) -> None:
        self._in_flight_requests += 1

    def request_finished(self) -> None:
        self._in_flight_requests = max(0, self._in_flight_requests - 1)

    def reset_iteration(self) -> None:
        """Clear helper relationships at an iteration boundary.

        Every helped straggler's key falls, so the election heaps are
        dropped too; each is rebuilt at its first election.
        """
        self._helping.clear()
        self._helpers.clear()
        self._heaps.clear()
        self._relieved.clear()
