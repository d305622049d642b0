"""The Token Bucket, partitioned into per-worker sub-token-buckets (STBs).

With the HF policy enabled (paper Section III-E), every token lives in the
STB of its ``home_worker``; a worker first consumes its own STB, then
*helps* the straggler with the fewest helpers and the slowest progress.
With HF disabled, the bucket degenerates into one shared pool (the STB
structure is retained internally, but candidate selection spans all STBs
and every request contends on the shared lock).
"""

from __future__ import annotations

import typing as _t

from repro.core.tokens import Token, TokenId
from repro.errors import SchedulingError


class TokenBucket:
    """Holds the available (generated, not yet distributed) tokens.

    Besides the STBs themselves the bucket keeps three indexes, all
    maintained on every add and remove: the non-empty STBs, the STBs
    holding each level, and a growth log of the workers whose STBs
    gained tokens since the distributor last drained it
    (:meth:`drain_grown`).  Growth is the one bucket event that lowers a
    straggler's helper-election key, so the log is all the distributor's
    election heaps need to stay exact.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise SchedulingError(f"need >= 1 worker: {num_workers}")
        self.num_workers = num_workers
        self._stbs: list[dict[TokenId, Token]] = [
            {} for _ in range(num_workers)
        ]
        self._size = 0
        #: Workers whose STBs currently hold tokens, maintained on every
        #: add/remove.  Helper election tests candidates against it, and
        #: builds its unrestricted heap from it once per iteration.
        self._nonempty: set[int] = set()
        #: Level → {wid: number of that level's tokens in wid's STB},
        #: zero counts and empty levels deleted.  A CTD-restricted helper
        #: elects among the STBs that hold a level it may take
        #: (:meth:`holders`) without looking at any token.
        self._by_level: dict[int, dict[int, int]] = {}
        #: Workers whose STBs grew since the last :meth:`drain_grown`,
        #: insertion-ordered (a dict used as an ordered set).
        self._grown: dict[int, None] = {}

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        sizes = [len(stb) for stb in self._stbs]
        return f"<TokenBucket total={self._size} stbs={sizes}>"

    # -- mutation --------------------------------------------------------------

    def ensure_worker(self, wid: int) -> None:
        """Grow the bucket to hold an STB for ``wid`` (elastic join)."""
        if wid < 0:
            raise SchedulingError(f"worker id must be >= 0: {wid}")
        while wid >= self.num_workers:
            self._stbs.append({})
            self.num_workers += 1

    def add(self, token: Token) -> None:
        """Insert a freshly generated token into its home STB."""
        if not 0 <= token.home_worker < self.num_workers:
            raise SchedulingError(
                f"token {token.tid} has home worker {token.home_worker} "
                f"outside the {self.num_workers}-worker cluster"
            )
        stb = self._stbs[token.home_worker]
        if token.tid in stb:
            raise SchedulingError(f"token {token.tid} added twice")
        stb[token.tid] = token
        self._size += 1
        self._nonempty.add(token.home_worker)
        self._grown[token.home_worker] = None
        self._count_level(token.level, token.home_worker)

    def add_many(self, tokens: _t.Iterable[Token]) -> None:
        """Bulk-insert freshly generated tokens (one mint burst).

        Identical outcome to calling :meth:`add` per token; the loop is
        just flattened so a begin-of-iteration mint of thousands of
        tokens pays one call.
        """
        stbs = self._stbs
        num_workers = self.num_workers
        nonempty = self._nonempty
        grown = self._grown
        count_level = self._count_level
        count = 0
        for token in tokens:
            home = token.home_worker
            if not 0 <= home < num_workers:
                raise SchedulingError(
                    f"token {token.tid} has home worker {home} outside "
                    f"the {num_workers}-worker cluster"
                )
            stb = stbs[home]
            if token.tid in stb:
                raise SchedulingError(f"token {token.tid} added twice")
            stb[token.tid] = token
            nonempty.add(home)
            grown[home] = None
            count_level(token.level, home)
            count += 1
        self._size += count

    def remove(self, token: Token) -> None:
        """Take a token out of the bucket (it is being distributed)."""
        stb = self._stbs[token.home_worker]
        if token.tid not in stb:
            raise SchedulingError(
                f"token {token.tid} is not in worker "
                f"{token.home_worker}'s STB"
            )
        del stb[token.tid]
        self._size -= 1
        home = token.home_worker
        if not stb:
            self._nonempty.discard(home)
        holders = self._by_level[token.level]
        left = holders[home] - 1
        if left:
            holders[home] = left
        elif len(holders) > 1:
            del holders[home]
        else:
            del self._by_level[token.level]

    def _count_level(self, level: int, home: int) -> None:
        holders = self._by_level.get(level)
        if holders is None:
            self._by_level[level] = {home: 1}
        else:
            holders[home] = holders.get(home, 0) + 1

    def drain_grown(self) -> dict[int, None]:
        """Take the growth log: workers whose STBs gained tokens since
        the last call, in the order they first grew."""
        grown = self._grown
        self._grown = {}
        return grown

    # -- queries -----------------------------------------------------------------

    def stb_tokens(self, wid: int) -> list[Token]:
        """Tokens currently in worker ``wid``'s STB."""
        return list(self._stbs[wid].values())

    def stb_view(self, wid: int) -> _t.Iterable[Token]:
        """Zero-copy view over worker ``wid``'s STB (do not mutate the
        bucket while iterating it)."""
        return self._stbs[wid].values()

    def stb_size(self, wid: int) -> int:
        return len(self._stbs[wid])

    def all_tokens(self) -> list[Token]:
        """Every available token, across all STBs."""
        return [token for stb in self._stbs for token in stb.values()]

    def holders(self, level: int) -> _t.Collection[int]:
        """Workers whose STBs hold at least one token of ``level``.

        An unordered view of the level index (do not mutate the bucket
        while iterating it); callers must consume it order-insensitively.
        """
        return self._by_level.get(level, {}).keys()

    def nonempty(self) -> _t.Collection[int]:
        """Workers whose STBs hold tokens, as an unordered view (same
        contract as :meth:`holders`)."""
        return self._nonempty

    def nonempty_stbs(self, exclude: int | None = None) -> list[int]:
        """Workers whose STBs still hold tokens (ascending wid).

        Served from the incrementally maintained index: O(workers with
        tokens · log), independent of the cluster size.
        """
        if exclude is None:
            return sorted(self._nonempty)
        return sorted(wid for wid in self._nonempty if wid != exclude)
