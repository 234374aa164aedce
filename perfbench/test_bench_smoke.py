"""Smoke test of the benchmark at toy sizes.

    PYTHONPATH=src python -m pytest -q perfbench

Checks that the benchmark's closed-form bit costs agree with the meter and
with the frozen per-access costs of tests/test_comm_sim.py, and that tracing
changes no result.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sqcomm  # noqa: E402
from sqcomm import EncodingSpec, harness  # noqa: E402

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402

# stream access kind -> the message kind the meter files it under
METER_KIND = {"b_sample": "b_sample", "b_query": "b_query",
              "row_norm_sample": "a_row_norm_sample", "row_sample": "a_row_sample",
              "entry_query": "a_entry_query", "row_norm_query": "a_row_norm_query"}


def _toy_stream(seed=3):
    return bw.AccessStream(seed, k=4, m=64, n=8, blocks=8, cycles=20)


def test_closed_form_matches_frozen_costs():
    enc = EncodingSpec()
    # values frozen in tests/test_comm_sim.py
    assert bw.closed_form_bits(enc, 2, 4, 1)["b_query"] == 42
    assert bw.closed_form_bits(enc, 2, 4, 1)["setup"] == 84
    assert bw.closed_form_bits(enc, 3, 6, 3)["setup"] == 129
    assert bw.closed_form_bits(enc, 3, 6, 3)["row_norm_query"] == 8 + 3 + 32
    assert bw.closed_form_bits(enc, 3, 6, 3)["entry_query"] == 8 + 3 + 2 + 32
    # the default access_stream layout: (20+52+20+26+58+52+0)/7 bits per access
    full = bw.closed_form_bits(enc, 64, 4096, 64)
    assert full["setup"] == 3328
    assert sum(full[kind] for kind in bw.KINDS) == 228


def test_closed_form_matches_meter_report():
    stream = _toy_stream()
    session = sqcomm.open_session_blocks(stream.k, stream.a_blocks, stream.b_blocks)
    sqcomm.coord_b_setup(session)
    sqcomm.coord_a_setup(session)
    results = bw.AccessStream._stream(session, stream.requests, stream._sampling_rng())
    assert all(isinstance(r, tuple) for r in results)
    report = sqcomm.meter_report(session)
    for kind, meter_kind in METER_KIND.items():
        exchanges = report.messages_by_kind[meter_kind] // 2
        assert exchanges == stream.kinds.count(kind)
        assert report.bits_by_kind[meter_kind] == exchanges * stream.expected[kind]
    assert report.bits_by_kind["b_setup"] == stream.expected["setup"]
    assert report.bits_by_kind["a_setup"] == stream.expected["setup"]


def test_stream_pass_checks_pass_and_every_player_holds_two_apart_blocks():
    stream = _toy_stream()
    owners = [owner for owner, _ in stream.a_blocks]
    for player in range(stream.k):
        first, second = [t for t, o in enumerate(owners) if o == player]
        assert second - first == stream.k
    result = stream.run_pass()
    assert result["failed"] == 0
    assert result["attempted"] == 7 * 20


def test_tracing_changes_no_result():
    oversampling = harness.parse_config({
        "experiment": "oversampling", "seed": 5, "trials": 20,
        "params": {"max_players": 3, "max_len": 8, "rounds_draws": 2}})
    stream = _toy_stream()

    def outputs():
        reports = sqcomm.run_suite("oracle", seed=4) + [sqcomm.run(oversampling)]
        session = sqcomm.open_session_blocks(stream.k, stream.a_blocks, stream.b_blocks)
        sqcomm.coord_b_setup(session)
        sqcomm.coord_a_setup(session)
        live = bw.AccessStream._stream(session, stream.requests, stream._sampling_rng())
        return bw.report_digest(reports), live, sqcomm.meter_report(session)

    plain = outputs()
    originals = [sqcomm.coord_b_sample, harness.run, sqcomm.comm_sim.lincomb_b_access]
    tracer = bench_trace.Tracer()
    with tracer:
        assert sqcomm.coord_b_sample is not originals[0]
        traced = outputs()
    assert [sqcomm.coord_b_sample, harness.run, sqcomm.comm_sim.lincomb_b_access] == originals
    assert traced == plain
    stats = tracer.layer_stats()
    assert stats["comm_sim.lincomb"]["calls"] > 0
    assert stats["harness.experiment"]["calls"] == 2
    assert tracer.rejection_samples > 0 and tracer.rejection_rounds >= tracer.rejection_samples


def test_self_time_excludes_child_spans():
    tracer = bench_trace.Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    a = tracer.arrays()
    outer, inner = 0, 1
    assert a["parent"].tolist() == [-1, outer]
    assert abs(a["self"][outer] - (a["dur"][outer] - a["dur"][inner])) < 1e-12
    assert a["self"][inner] == a["dur"][inner]
    assert a["self"][outer] > 0.015
