"""HF helper election against a reference oracle, and the level index.

``TokenDistributor._helper_pool`` elects a straggler from the bucket's
unordered indexes (the non-empty STBs, or the STBs holding a level the
helper may take).  The reference below is the straightforward form: sort
the non-empty STBs, skip those without a takeable token by scanning their
tokens, take the smallest ``(helpers, -backlog, wid)`` key.  Two
distributor/bucket pairs run the same random operation sequence, one
electing through each, and must agree on every selection and on every
helper assignment.
"""

import random
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FelaConfig,
    InfoMapping,
    SampleRange,
    Token,
    TokenBucket,
    TokenDistributor,
)
from repro.partition import Partition, SubModel

NUM_WORKERS = 7


def reference_helper_pool(distributor, wid, bucket):
    """Sort-then-``any()`` election with the same sticky-helper rule."""
    restricted = (
        distributor.config.ctd_enabled
        and wid not in distributor.current_subset()
    )
    levels = distributor.takeable_levels(wid) if restricted else None

    def pool_of(straggler):
        return [
            t
            for t in bucket.stb_view(straggler)
            if levels is None or t.level in levels
        ]

    current = distributor._helping.get(wid)
    if current is not None:
        pool = pool_of(current)
        if pool:
            return pool
        distributor._stop_helping(wid)
    keys = [
        (
            len(distributor._helpers.get(straggler, ())),
            -bucket.stb_size(straggler),
            straggler,
        )
        for straggler in bucket.nonempty_stbs(exclude=wid)
        if levels is None
        or any(t.level in levels for t in bucket.stb_view(straggler))
    ]
    if not keys:
        return []
    best = sorted(keys)[0][2]
    distributor._helping[wid] = best
    distributor._helpers.setdefault(best, set()).add(wid)
    return pool_of(best)


class Membership:
    """The two members of the fault-layer membership CTD reads."""

    def __init__(self):
        self.epoch = 0
        self.active = list(range(NUM_WORKERS))

    def active_workers(self):
        return list(self.active)


def _partition(full, levels):
    if levels == 3:
        return full
    rest = tuple(layer for sub in list(full)[1:] for layer in sub.layers)
    return Partition(
        model=full.model,
        submodels=(
            SubModel(
                index=0,
                layers=full[0].layers,
                threshold_batch=full[0].threshold_batch,
            ),
            SubModel(
                index=1, layers=rest, threshold_batch=full[1].threshold_batch
            ),
        ),
    )


def _token(tid, level, home):
    return Token(
        tid=tid,
        level=level,
        iteration=0,
        ordinal=tid,
        samples=SampleRange(0, 16),
        deps=(0,) if level else (),
        home_worker=home,
    )


def _replay(full, ctd, subset_size, levels, elastic, seed, steps):
    """Run one random operation sequence through both elections."""
    config = FelaConfig(
        partition=_partition(full, levels),
        total_batch=128,
        num_workers=NUM_WORKERS,
        weights=(1, 2, 4)[:levels],
        conditional_subset_size=subset_size,
        ctd_enabled=ctd,
        iterations=5,
    )
    info = InfoMapping()
    pairs = []
    for oracle in (False, True):
        distributor = TokenDistributor(config)
        if oracle:
            distributor._helper_pool = types.MethodType(
                reference_helper_pool, distributor
            )
        membership = Membership()
        if elastic:
            distributor.attach_membership(membership)
        pairs.append((distributor, TokenBucket(NUM_WORKERS), membership))
    rng = random.Random(seed)
    next_tid = 0
    for _ in range(steps):
        op = rng.random()
        if op < 0.35:
            batch = []
            for _ in range(rng.randint(1, 6)):
                batch.append(
                    (next_tid, rng.randrange(levels), rng.randrange(NUM_WORKERS))
                )
                next_tid += 1
            for _, bucket, _ in pairs:
                bucket.add_many(_token(*spec) for spec in batch)
        elif op < 0.85:
            wid = rng.randrange(NUM_WORKERS)
            picks = []
            for distributor, bucket, _ in pairs:
                selection = distributor.select(wid, bucket, info)
                if selection.token is not None:
                    bucket.remove(selection.token)
                picks.append(
                    (
                        selection.token and selection.token.tid,
                        selection.from_own_stb,
                        dict(distributor._helping),
                    )
                )
            assert picks[0] == picks[1]
        elif op < 0.93 and elastic:
            # A membership epoch move: someone leaves or rejoins, so the
            # CTD subset (the first ``subset_size`` active workers) moves.
            wid = rng.randrange(NUM_WORKERS)
            for _, _, membership in pairs:
                if wid in membership.active and len(membership.active) > 1:
                    membership.active.remove(wid)
                elif wid not in membership.active:
                    membership.active = sorted(membership.active + [wid])
                membership.epoch += 1
        else:
            for distributor, _, _ in pairs:
                distributor.reset_iteration()


@given(
    ctd=st.booleans(),
    subset_size=st.integers(1, NUM_WORKERS),
    levels=st.sampled_from((2, 3)),
    elastic=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_election_matches_reference(
    vgg19_partition, ctd, subset_size, levels, elastic, seed
):
    _replay(vgg19_partition, ctd, subset_size, levels, elastic, seed, 120)


def _recount(bucket):
    counts = {}
    for token in bucket.all_tokens():
        holders = counts.setdefault(token.level, {})
        holders[token.home_worker] = holders.get(token.home_worker, 0) + 1
    return counts


@given(seed=st.integers(0, 2**16), steps=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_level_index_matches_recount(seed, steps):
    rng = random.Random(seed)
    bucket = TokenBucket(5)
    held = []
    next_tid = 0
    for _ in range(steps):
        op = rng.random()
        if op < 0.3:
            token = _token(next_tid, rng.randrange(3), rng.randrange(5))
            bucket.add(token)
            held.append(token)
            next_tid += 1
        elif op < 0.5:
            batch = [
                _token(next_tid + i, rng.randrange(3), rng.randrange(5))
                for i in range(rng.randint(0, 8))
            ]
            next_tid += len(batch)
            bucket.add_many(batch)
            held.extend(batch)
        elif held:
            bucket.remove(held.pop(rng.randrange(len(held))))
        expected = _recount(bucket)
        assert bucket._by_level == expected
        for level in range(3):
            assert set(bucket.holders(level)) == set(expected.get(level, {}))
        assert set(bucket.nonempty()) == set(bucket.nonempty_stbs())
