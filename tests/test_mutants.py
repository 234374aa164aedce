"""The planted-fault ledger: what each named fault does to the reports.

Each fault in `FAULTS` is a monkeypatch of src.  `MUTANTS.json` records, for
each fault, the reduced configs it runs and, per config, the checks that
read FAIL under it and whether the report bytes differ from the clean run's.
The test asserts exactly what is recorded, so a change that makes a check
catch a fault, or stop catching one, moves the ledger with it.  A fault no
check fails "survives"; a byte change alone is not a catch.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sqcomm import comm_sim, reductions
from sqcomm.harness import parse_config, report_json_bytes, run

LEDGER = json.loads((Path(__file__).resolve().parents[1] / "MUTANTS.json").read_text())


def _stage_one_pick_power(patch):
    # every owner pick maps r ** 1.5, not r: only stage 1 draws through
    # comm_sim's name; each owner's local draw reaches sq_access's own by sq_sample
    real = comm_sim.sq_sample_at
    patch.setattr(comm_sim, "sq_sample_at", lambda v, r: real(v, r**1.5))


def _b_sample_response_one_bit_wider(patch):
    real = comm_sim._owner_draw

    def wider(session, side, kind, rng, req_bits, resp_bits, *args, **kwargs):
        return real(session, side, kind, rng, req_bits, resp_bits + (kind == "b_sample"),
                    *args, **kwargs)

    patch.setattr(comm_sim, "_owner_draw", wider)


def _clustering_threshold_plus_0_9_margin(patch):
    real = reductions.decide_clustering
    patch.setattr(reductions, "decide_clustering", lambda build: real(
        dataclasses.replace(build, threshold=build.threshold + 0.9 * build.margin)))


def _rejection_round_next_index(patch):
    # a rejection round returns the index after the one it drew (wrapping),
    # with the drawn index's ratio
    real = comm_sim._Combination.rejection_round

    def shifted(self, rng, law=None, row=None):
        index, ratio, bits = real(self, rng, law, row)
        return (index + 1) % (self.rows if row is None else self.cols), ratio, bits

    patch.setattr(comm_sim._Combination, "rejection_round", shifted)


def _accept_test_sqrt_ratio(patch):
    # the rejection loop accepts with probability sqrt(ratio); the norm
    # estimator still averages the ratios themselves
    real = comm_sim._rejection_loop

    def loop(one_round, get_phi, delta, rng):
        def sqrt_round():
            index, ratio, bits = one_round()
            return index, None if ratio is None else math.sqrt(ratio), bits
        return real(sqrt_round, get_phi, delta, rng)

    patch.setattr(comm_sim, "_rejection_loop", loop)


def _stage_one_law_drops_public_mass(patch):
    # the stage-1 owner law a setup builds gives the public view zero mass
    real = comm_sim._setup

    def setup(session, side, kind):
        bits = real(session, side, kind)
        side.owner_law = comm_sim._law(np.append(side.norms**2, 0.0))
        return bits

    patch.setattr(comm_sim, "_setup", setup)


def _exchange_records_no_args(patch):
    # every exchange records, and a replay compares, no request indices
    real = comm_sim.Session._exchange

    def exchange(self, names, kind, phase, req_bits, resp_bits, respond, args=()):
        return real(self, names, kind, phase, req_bits, resp_bits, respond)

    patch.setattr(comm_sim.Session, "_exchange", exchange)


FAULTS = {
    "stage_one_pick_power_1_5": _stage_one_pick_power,
    "b_sample_response_one_bit_wider": _b_sample_response_one_bit_wider,
    "clustering_threshold_plus_0_9_margin": _clustering_threshold_plus_0_9_margin,
    "rejection_round_returns_next_index": _rejection_round_next_index,
    "accept_test_sqrt_ratio": _accept_test_sqrt_ratio,
    "stage_one_law_drops_public_mass": _stage_one_law_drops_public_mass,
    "exchange_records_no_args": _exchange_records_no_args,
}


def test_the_ledger_lists_every_fault():
    assert sorted(LEDGER) == sorted(FAULTS)


@pytest.mark.parametrize("fault, at", [(name, at) for name, entry in LEDGER.items()
                                       for at in range(len(entry["runs"]))])
def test_fault_outcome_is_as_recorded(monkeypatch, fault, at):
    recorded = LEDGER[fault]["runs"][at]
    config = parse_config(recorded["config"])
    clean = run(config)
    assert clean.all_passed
    with monkeypatch.context() as patch:
        FAULTS[fault](patch)
        faulty = run(config)
    fails = [c.name for c in faulty.checks if not c.passed]
    assert fails == recorded["fails"]
    assert (report_json_bytes(faulty) != report_json_bytes(clean)) == recorded["bytes_changed"]
