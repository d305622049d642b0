"""Pins of the ``RunResult.stats`` payload, byte for byte.

``stats`` is built from the counters the token server, the workers and
the runtime keep.  These pins hold its ``repr`` (and the run's
``total_time``) for three faulted 8-worker vgg19 runs: a checked crash
run, an elastic join/leave/crash run and an SSP run with probabilistic
crashes.  Each one reclaims or re-mints at least one token, so each
rolls an assignment back (``TokenServer._note_unassigned``), as the
pinned ``faults`` counts show.  Any change to how a number is gathered,
summed or ordered shows up here.
"""

import pytest

from repro.analysis.invariants import InvariantChecker
from repro.core import FelaConfig, FelaRuntime, SyncMode
from repro.faults import FaultController, parse_faults
from repro.hardware import Cluster, ClusterSpec

#: name -> (fault script, cluster nodes, checked, extra config fields)
CASES = {
    "checked_crash": ("crash:2@4.0,crash:5@9.0", 8, True, {}),
    "join_leave_crash": ("join@3.0,leave:1@6.0,crash:3@7.5", 10, False, {}),
    "ssp_crashp": (
        "crashp:0.05:3",
        8,
        False,
        {"sync_mode": SyncMode.SSP, "staleness": 2},
    ),
}


def _run(partition, name):
    spec, nodes, checked, extra = CASES[name]
    config = FelaConfig(
        partition=partition,
        total_batch=512,
        num_workers=8,
        weights=(1, 2, 8),
        conditional_subset_size=2,
        iterations=4,
        **extra,
    )
    return FelaRuntime(
        config,
        Cluster(ClusterSpec(num_nodes=nodes)),
        invariants=InvariantChecker() if checked else None,
        faults=FaultController(parse_faults(spec)),
    ).run()


EXPECTED = {
    "checked_crash": (
        "39.338910954577564",
        (
            "{'ts_requests': 159, 'ts_conflicts': 19, "
            "'tokens_by_worker': {0: 18, 1: 18, 2: 0, 3: 18, 4: 16, 5: 3, "
            "6: 16, 7: 15}, 'bytes_fetched': 667942912.0, "
            "'network_bytes': 8007215359.999789, "
            "'compute_seconds_by_worker': [25.073109255680002, "
            '25.073109255680006, 2.8733570508799993, 30.080865337344008, '
            '26.50406630656001, 5.013477556223999, 26.50406630656001, '
            '25.067387781120008], '
            "'fetch_seconds_by_worker': [0.26187204945454745, "
            '0.25618076848484606, 0.0, 0.3808088455757499, '
            '0.22807185842424005, 0.0, 0.2278218584242424, '
            '0.20883814060606198], '
            "'idle_seconds_by_worker': [14.003929649443014, "
            '14.009620930412712, 36.46555390369757, 8.877236771657806, '
            '12.606772789593315, 34.32543339835357, 12.607022789593312, '
            '14.062685032851494], '
            "'straggler_delay_seconds_by_worker': [0.0, 0.0, 0.0, 0.0, "
            "0.0, 0.0, 0.0, 0.0], 'sync_bytes_by_level': {0: 409299968.0, "
            '1: 2973401088.0, 2: 3956571392.0}, '
            "'ts_request_latency': {'count': 137, "
            "'total': 29.322026361480116, 'min': 0.00019999999999953388, "
            "'max': 3.7319360179355527, 'mean': 0.21402938949985487, "
            "'p50': 0.0002000000000030866, 'p95': 1.493829678894551}, "
            "'weights': (1, 2, 8), 'subset_size': 2, "
            "'faults': {'failures': [{'wid': 2, 'crash_time': 4.0, "
            "'detect_time': 4.12420705088, "
            "'detection_seconds': 0.12420705087999995, 'reclaimed': 1, "
            "'reminted': 2, 'invalidated': 1, 'revoked': 0, 'promoted': 0, "
            "'lost_compute_seconds': 2.8733570508799997}, {'wid': 5, "
            "'crash_time': 9.0, 'detect_time': 9.008307235118544, "
            "'detection_seconds': 0.008307235118543588, 'reclaimed': 0, "
            "'reminted': 0, 'invalidated': 0, 'revoked': 0, 'promoted': 0, "
            "'lost_compute_seconds': 0.0}], 'joined': [], 'left': [], "
            "'skipped_crashes': 0, 'skipped_leaves': 0, "
            "'pending_joins': 0, 'tokens_reclaimed': 1, "
            "'tokens_reminted': 2, 'tokens_invalidated': 1, "
            "'tokens_revoked': 0, 'copies_promoted': 0, "
            "'lost_compute_seconds': 2.8733570508799997, "
            "'recovery_detection_seconds': [0.12420705087999995, "
            "0.008307235118543588], 'final_states': {0: 'active', "
            "1: 'active', 2: 'failed', 3: 'active', 4: 'active', "
            "5: 'failed', 6: 'active', 7: 'active'}}}"
        ),
    ),
    "join_leave_crash": (
        "35.55747396742991",
        (
            "{'ts_requests': 186, 'ts_conflicts': 5, "
            "'tokens_by_worker': {0: 18, 1: 4, 2: 17, 3: 3, 4: 15, 5: 14, "
            "6: 12, 7: 12, 8: 9}, 'bytes_fetched': 571604992.0, "
            "'network_bytes': 8533053183.999943, "
            "'compute_seconds_by_worker': [24.369667275776006, "
            '5.374077556223999, 24.71250925568001, 5.013477556223999, '
            '25.067387781120008, 23.630709255680006, 20.053910224896008, '
            '20.053910224896008, 15.040432668672008], '
            "'fetch_seconds_by_worker': [0.2619720494545561, "
            '0.046759294545454466, 0.2194243127272717, 0.0, '
            '0.1445894414545421, 0.08848828800001485, 0.0, 0.0, '
            '0.24328833163637142], '
            "'idle_seconds_by_worker': [10.925834642199344, "
            '30.136637116660452, 10.625540399022624, 30.543996411205907, '
            '10.345496744855357, 11.838276423749885, 15.503563742533899, '
            '15.503563742533899, 20.273752967121528], '
            "'straggler_delay_seconds_by_worker': [0.0, 0.0, 0.0, 0.0, "
            '0.0, 0.0, 0.0, 0.0, 0.0], '
            "'sync_bytes_by_level': {0: 465113600.0, 1: 3539763200.0, "
            "2: 3956571392.0}, 'ts_request_latency': {'count': 134, "
            "'total': 31.664363707229366, 'min': 0.00019999999999953388, "
            "'max': 3.2963454598749067, 'mean': 0.23630122169574155, "
            "'p50': 0.0002000000000030866, 'p95': 1.493829678894544}, "
            "'weights': (1, 2, 8), 'subset_size': 2, "
            "'faults': {'failures': [{'wid': 3, 'crash_time': 7.5, "
            "'detect_time': 7.6423634674967245, "
            "'detection_seconds': 0.14236346749672446, 'reclaimed': 1, "
            "'reminted': 0, 'invalidated': 0, 'revoked': 0, 'promoted': 0, "
            "'lost_compute_seconds': 0.0}], 'joined': [8], 'left': [1], "
            "'skipped_crashes': 0, 'skipped_leaves': 0, "
            "'pending_joins': 0, 'tokens_reclaimed': 1, "
            "'tokens_reminted': 0, 'tokens_invalidated': 0, "
            "'tokens_revoked': 0, 'copies_promoted': 0, "
            "'lost_compute_seconds': 0.0, "
            "'recovery_detection_seconds': [0.14236346749672446], "
            "'final_states': {0: 'active', 1: 'left', 2: 'active', "
            "3: 'failed', 4: 'active', 5: 'active', 6: 'active', "
            "7: 'active', 8: 'active'}}}"
        ),
    ),
    "ssp_crashp": (
        "45.69466345293981",
        (
            "{'ts_requests': 142, 'ts_conflicts': 18, "
            "'tokens_by_worker': {0: 0, 1: 27, 2: 20, 3: 9, 4: 4, 5: 22, "
            "6: 22, 7: 0}, 'bytes_fetched': 828506112.0, "
            "'network_bytes': 5049522815.999983, "
            "'compute_seconds_by_worker': [0.0, 40.113541924352006, "
            '28.649908286464008, 15.040432668671995, 6.450156081663999, '
            '36.53102141900801, 36.53102141900801, 0.0], '
            "'fetch_seconds_by_worker': [0.0, 0.4708101900606261, "
            '0.3965253187878881, 0.14911974254545335, 0.05610115345454503, '
            '0.1965290370909223, 0.27981281939394265, 0.0], '
            "'idle_seconds_by_worker': [45.69466345293981, "
            '5.110311338527175, 16.64822984768791, 30.50511104172236, '
            '39.18840621782127, 8.967112996840871, 8.883829214537851, '
            '45.69466345293981], '
            "'straggler_delay_seconds_by_worker': [0.0, 0.0, 0.0, 0.0, "
            "0.0, 0.0, 0.0, 0.0], 'sync_bytes_by_level': {0: 260463616.0, "
            '1: 1982267392.0, 2: 1978285696.0}, '
            "'ts_request_latency': {'count': 125, "
            "'total': 13.819958253374347, 'min': 0.00019999999999953388, "
            "'max': 3.660532813087052, 'mean': 0.11055966602699478, "
            "'p50': 0.0002000000000030866, 'p95': 1.0206773719854567}, "
            "'weights': (1, 2, 8), 'subset_size': 2, "
            "'faults': {'failures': [{'wid': 0, "
            "'crash_time': 0.01262284497850108, 'detect_time': 0.25015, "
            "'detection_seconds': 0.2375271550214989, 'reclaimed': 1, "
            "'reminted': 0, 'invalidated': 0, 'revoked': 0, 'promoted': 0, "
            "'lost_compute_seconds': 0.0}, {'wid': 7, "
            "'crash_time': 0.5288825391426386, 'detect_time': 0.75015, "
            "'detection_seconds': 0.22126746085736138, 'reclaimed': 1, "
            "'reminted': 0, 'invalidated': 0, 'revoked': 0, 'promoted': 0, "
            "'lost_compute_seconds': 0.0}, {'wid': 4, "
            "'crash_time': 9.87130453241872, "
            "'detect_time': 10.10691357415951, "
            "'detection_seconds': 0.23560904174079056, 'reclaimed': 1, "
            "'reminted': 0, 'invalidated': 0, 'revoked': 0, 'promoted': 0, "
            "'lost_compute_seconds': 0.0}, {'wid': 3, "
            "'crash_time': 20.175653826533033, "
            "'detect_time': 20.350829134607523, "
            "'detection_seconds': 0.17517530807448978, 'reclaimed': 1, "
            "'reminted': 0, 'invalidated': 0, 'revoked': 0, 'promoted': 0, "
            "'lost_compute_seconds': 0.0}, {'wid': 2, "
            "'crash_time': 30.727034496429834, "
            "'detect_time': 30.83480283614648, "
            "'detection_seconds': 0.10776833971664601, 'reclaimed': 1, "
            "'reminted': 0, 'invalidated': 0, 'revoked': 0, 'promoted': 0, "
            "'lost_compute_seconds': 0.0}], 'joined': [], 'left': [], "
            "'skipped_crashes': 0, 'skipped_leaves': 0, "
            "'pending_joins': 0, 'tokens_reclaimed': 5, "
            "'tokens_reminted': 0, 'tokens_invalidated': 0, "
            "'tokens_revoked': 0, 'copies_promoted': 0, "
            "'lost_compute_seconds': 0.0, "
            "'recovery_detection_seconds': [0.2375271550214989, "
            '0.22126746085736138, 0.23560904174079056, '
            '0.17517530807448978, 0.10776833971664601], '
            "'final_states': {0: 'failed', 1: 'active', 2: 'failed', "
            "3: 'failed', 4: 'failed', 5: 'active', 6: 'active', "
            "7: 'failed'}}}"
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stats_repr_is_pinned(vgg19_partition, name):
    result = _run(vgg19_partition, name)
    total_time, stats = EXPECTED[name]
    assert repr(result.total_time) == total_time
    assert repr(result.stats) == stats

