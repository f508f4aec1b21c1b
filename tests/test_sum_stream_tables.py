"""SumCheckerStream keeps only its two Algorithm 1 tables.

Each chunk is hashed straight into the side's running ``(iterations, d)``
table, so the stream's tables must equal the batch checker's tables of the
concatenated feed bit for bit — for any chunking, for both operators and
at the int64 extremes — and its state must not grow with the key count.
The windowed settles condense a window only when it escalates or is
localized; those reports must not change.

Select with ``pytest -m streaming``.
"""

import numpy as np
import pytest

from repro.comm.context import Context
from repro.core.params import SumCheckConfig
from repro.core.streams import SumCheckerStream
from repro.core.sum_checker import SumAggregationChecker, check_sum_aggregation
from repro.dataflow.pipeline import AdaptiveCheckPolicy, adaptive_sum_check
from repro.dataflow.streaming import (
    StreamingDIA,
    StreamingKeyValueDIA,
    _window_seed,
)
from repro.workloads.kv import sum_workload

pytestmark = pytest.mark.streaming

STRONG = SumCheckConfig.parse("8x16 m15")
WEAK = SumCheckConfig.parse("2x4 m3")


def random_chunks(rng, keys, values):
    """Cut aligned columns at random points, empty chunks included."""
    cuts = np.sort(rng.integers(0, keys.size + 1, rng.integers(0, 12)))
    bounds = [0, *cuts.tolist(), keys.size]
    return [
        (keys[a:b], values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
    ]


def fed_stream(checker, in_chunks, out_chunks):
    stream = SumCheckerStream(checker)
    for k, v in in_chunks:
        stream.feed_input(k, v)
    for k, v in out_chunks:
        stream.feed_output(k, v)
    return stream


def assert_tables_match(checker, keys, values, rng):
    stream = fed_stream(
        checker,
        random_chunks(rng, keys, values),
        random_chunks(rng, keys[::-1], values[::-1]),
    )
    batch = checker.local_tables(keys, values)
    assert stream.input_table.dtype == np.int64
    assert np.array_equal(stream.input_table, batch)
    assert np.array_equal(stream.output_table, batch)
    assert stream.elements_fed == keys.size


@pytest.mark.parametrize("operator", ["+", "xor"])
@pytest.mark.parametrize("trial", range(6))
def test_tables_equal_batch_tables_for_any_chunking(operator, trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(0, 3000))
    keys = rng.integers(0, 1 + n // 3 + trial * 500, n).astype(np.uint64)
    values = rng.integers(-(1 << 40), 1 << 40, n).astype(np.int64)
    checker = SumAggregationChecker(STRONG, 7 + trial, operator)
    assert_tables_match(checker, keys, values, rng)


@pytest.mark.parametrize("operator", ["+", "xor"])
def test_tables_equal_batch_tables_near_int64_extremes(operator):
    rng = np.random.default_rng(5)
    n = 4000
    keys = rng.integers(0, 50, n).astype(np.uint64)
    near = np.int64(1 << 62)
    values = np.where(
        rng.random(n) < 0.5, near - rng.integers(0, 9, n), -near
    ).astype(np.int64)
    values[:3] = (np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0)
    checker = SumAggregationChecker(STRONG, 3, operator)
    assert_tables_match(checker, keys, values, rng)


def test_tables_equal_batch_tables_for_per_key_sums_beyond_int64():
    keys = np.repeat(np.arange(3, dtype=np.uint64), 40)
    values = np.full(keys.size, (1 << 62) + 12345, dtype=np.int64)
    values[::7] = -(1 << 61)
    checker = SumAggregationChecker(STRONG, 11)
    assert_tables_match(checker, keys, values, np.random.default_rng(9))

    # Exact per-key totals (~40·2^62 each) only exist as Python ints; the
    # batch checker sees them split into int64 pairs (table-neutral).
    out_k, out_v = [], []
    for key in range(3):
        total = int(values[keys == key].astype(object).sum())
        while total:
            part = max(min(total, 1 << 62), -(1 << 62))
            out_k.append(key)
            out_v.append(part)
            total -= part
    stream = fed_stream(checker, [(keys, values)], [(out_k, out_v)])
    assert stream.settle().accepted


def test_state_is_two_tables_after_a_million_distinct_keys():
    checker = SumAggregationChecker(STRONG, 2)
    stream = SumCheckerStream(checker)
    chunk = 1 << 16
    for start in range(0, 1_000_000, chunk):
        keys = np.arange(start, min(start + chunk, 1_000_000), dtype=np.uint64)
        stream.feed_input(keys, np.ones(keys.size, dtype=np.int64))
    assert stream.elements_fed == 1_000_000
    arrays = [v for v in vars(stream).values() if isinstance(v, np.ndarray)]
    shape = (STRONG.iterations, STRONG.d)
    assert [a.shape for a in arrays] == [shape, shape]
    assert not [
        v for v in vars(stream).values() if isinstance(v, (list, dict, set))
    ]


# -- windowed settles --------------------------------------------------------


def _batch_sum_verdict(config, seed_w, values, total):
    return check_sum_aggregation(
        (np.zeros(values.size, dtype=np.uint64), values),
        (np.zeros(1, dtype=np.uint64), np.array([total], dtype=np.int64)),
        config,
        seed_w,
    ).accepted


@pytest.mark.parametrize("config", [STRONG, WEAK])
def test_sum_window_beyond_int64_matches_batch_checker(config):
    """Σ|v| ≥ 2^63: per-chunk totals where exact, raw pairs where not."""
    chunks = [
        np.full(3, 1 << 62, dtype=np.int64),  # Σ|v| ≥ 2^63: raw pairs
        np.array([1 << 61, 1 << 61, 5], dtype=np.int64),
        np.array([-(1 << 62), 7], dtype=np.int64),
        np.zeros(0, dtype=np.int64),
    ]
    verdicts = []
    for seed in range(8):
        run = StreamingDIA.from_chunks(None, chunks).sum_checked(
            config, seed=seed, chunks_per_window=4
        )
        values = np.concatenate(chunks)
        expected = _batch_sum_verdict(
            config, _window_seed(seed, 0), values, run.outputs[0]
        )
        assert run.verdicts[0].accepted == expected
        verdicts.append(expected)
    # The int64 total wrapped, so the strong checker must catch it.
    if config is STRONG:
        assert not any(verdicts)


def _untimed(details):
    adaptive = {**details["adaptive"], "escalation_seconds": None}
    return {**details, "adaptive": adaptive}


@pytest.mark.parametrize("escalate_on", ["reject", "always"])
def test_sum_window_escalation_matches_batch_adaptive(escalate_on):
    """Escalation lanes over the per-chunk totals equal the raw-pair check."""
    rng = np.random.default_rng(3)
    chunks = [rng.integers(-1000, 1000, 50).astype(np.int64) for _ in range(6)]
    policy = AdaptiveCheckPolicy(escalation_seeds=4, escalate_on=escalate_on)

    def fault(window, values):
        if window == 1:
            values = values.copy()
            values[0] += 3
        return values

    run = StreamingDIA.from_chunks(None, chunks).sum_checked(
        WEAK, seed=4, chunks_per_window=2, policy=policy, fault=fault
    )
    assert any(r.escalated for r in run.window_history)
    for w, verdict in enumerate(run.verdicts):
        values = np.concatenate(chunks[2 * w : 2 * w + 2])
        batch = adaptive_sum_check(
            (np.zeros(values.size, dtype=np.uint64), values),
            (np.zeros(1, dtype=np.uint64), np.array([run.outputs[w]])),
            WEAK,
            seed=_window_seed(4, w),
            policy=policy,
        )
        assert _untimed(verdict.details) == _untimed(batch.details)
        assert verdict.accepted == batch.accepted


# Localization reports of a rejected reduce window (window 1, two keys
# corrupted), recorded with the earlier stream that retained condensed
# per-key aggregates.  Localization now condenses the window's chunks on
# demand and must report exactly the same.
_GUILTY_P1 = [
    [[6, 11], [3, 7], [6, 12], [4, 12], [4, 15], [4, 7], [3, 7], [5, 13]],
    [[1, 12], [1], [6, 15], [10, 15], [2, 11], [1, 14], [12], [8]],
]
_GUILTY_P2 = [
    [
        [6, 7, 11], [3, 7, 14], [6, 12], [4, 11, 12],
        [4, 14, 15], [4, 7, 11], [2, 3, 7], [5, 13],
    ],
    [
        [1, 12], [1, 15], [6, 11, 15], [10, 15],
        [1, 2, 11], [0, 1, 14], [3, 12], [8, 12],
    ],
]
RECORDED_REPORTS = {
    1: (True, [(0, 0), (95, 95)], [0], 4, 7, False, _GUILTY_P1),
    2: (True, [(0, 0), (95, 95), (99, 99)], [0, 1], 8, 7, False, _GUILTY_P2),
}


def _localized_reports(comm, keys, values):
    def fault(window, k, v):
        if window == 1 and v.size:
            v = v.copy()
            v[[0, v.size // 2]] += (3, -11)
        return k, v

    chunks = [
        (keys[i : i + 200], values[i : i + 200])
        for i in range(0, keys.size, 200)
    ]
    run = StreamingKeyValueDIA.from_chunks(comm, chunks).reduce_by_key_checked(
        STRONG,
        seed=29,
        chunks_per_window=3,
        reexecute=lambda w, ranges: chunks[3 * w : 3 * w + 3],
        fault=fault,
    )
    return [
        (
            r.window,
            (
                r.report.localized,
                [tuple(kr) for kr in r.report.key_ranges],
                r.report.pes,
                r.report.suspect_keys,
                r.report.bisection_rounds,
                r.report.exhausted,
                r.report.guilty_buckets,
            ),
        )
        for r in run.window_history
        if r.report is not None
    ]


@pytest.mark.parametrize("p", [1, 2])
def test_localization_reports_unchanged(p):
    keys, values = sum_workload(2400, num_keys=300, seed=41)
    if p == 1:
        per_pe = [_localized_reports(None, keys, values)]
    else:
        shares = list(zip(np.array_split(keys, p), np.array_split(values, p)))
        per_pe = Context(p).run(_localized_reports, per_rank_args=shares)
    for reports in per_pe:
        assert reports == [(1, RECORDED_REPORTS[p])]
