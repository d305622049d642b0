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
import typing as _t

from repro.core.bucket import TokenBucket
from repro.core.config import FelaConfig
from repro.core.tokens import InfoMapping, Token


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
        anything, so every non-empty STB qualifies; a CTD-restricted one
        elects among the STBs the bucket's level index lists for its
        takeable levels, without looking at any token.
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

        helpers = self._helpers
        # Candidates come from the bucket's unordered indexes: every
        # non-empty STB for an unrestricted helper, else the STBs holding
        # a level it may take (a worker may repeat, once per level).
        # Keys are unique per straggler, so the strict-< running minimum
        # elects the straggler a sorted scan would, in any visiting order.
        groups: _t.Sequence[_t.Collection[int]] = (
            (bucket.nonempty(),)
            if levels is None
            else [bucket.holders(level) for level in levels]
        )
        best_key: tuple[int, int, int] | None = None
        best = -1
        for group in groups:
            for straggler in group:
                if straggler == wid:
                    continue
                key = (
                    len(helpers.get(straggler, ())),
                    -bucket.stb_size(straggler),
                    straggler,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = straggler
        if best_key is None:
            return []
        self._helping[wid] = best
        helpers.setdefault(best, set()).add(wid)
        view = bucket.stb_view(best)
        return (
            list(view)
            if levels is None
            else [t for t in view if t.level in levels]
        )

    def _stop_helping(self, wid: int) -> None:
        straggler = self._helping.pop(wid, None)
        if straggler is not None:
            self._helpers.get(straggler, set()).discard(wid)

    def helper_of(self, wid: int) -> int | None:
        """The straggler ``wid`` currently helps, if any (for tests)."""
        return self._helping.get(wid)

    # -- conflict accounting ---------------------------------------------------------

    def request_started(self) -> None:
        self._in_flight_requests += 1

    def request_finished(self) -> None:
        self._in_flight_requests = max(0, self._in_flight_requests - 1)

    def reset_iteration(self) -> None:
        """Clear helper relationships at an iteration boundary."""
        self._helping.clear()
        self._helpers.clear()
