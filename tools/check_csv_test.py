#!/usr/bin/env python3
"""Tests for check_csv.py: one minimal valid CSV per bench, which passes
with and without --strict, and one mutant per rule, each of which must make
that rule fire.

Run: python3 tools/check_csv_test.py
"""

import contextlib
import copy
import csv
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_csv  # noqa: E402


def rows_from(bench, defaults, *overrides):
    """One row per override dict, on top of `defaults`, in schema order."""
    names = [name for name, _ in check_csv.SCHEMAS[bench]]
    assert sorted(names) == sorted(defaults), bench
    return [{name: str({**defaults, **o}[name]) for name in names}
            for o in overrides]


def byzantine_fixture():
    base = dict(algorithm="cempar", adversary="none", malicious_fraction=0,
                malicious_peers=0, defended=1, micro_f1=0.8, macro_f1=0.8,
                prediction_success_rate=1, attempted=10, models_rejected=0,
                votes_discarded=0, quarantined_pairs=0, trust_observations=0,
                train_bytes=1000, train_sim_seconds=5.5)
    flip = dict(adversary="label_flip", malicious_fraction=0.3,
                malicious_peers=3, models_rejected=2)
    return rows_from("byzantine", base, {}, dict(defended=0),
                     dict(flip, macro_f1=0.78),
                     dict(flip, defended=0, macro_f1=0.5, models_rejected=0))


def drift_fixture():
    base = dict(algorithm="pace", scenario="none", policy="frozen",
                loss_rate=0, churn=0, num_epochs=6, first_drift_epoch=6,
                pre_drift_f1=0.8, min_post_drift_f1=0.8, final_f1=0.8,
                max_dip=0, recovery_epochs=0, reconverged=1, retrains=0,
                drift_detections=0, give_ups=0, suspected_peers=0,
                total_messages=100, total_bytes=1000,
                fingerprint="00112233445566aa")
    sudden = dict(scenario="sudden_vocab", loss_rate=0.2, first_drift_epoch=2,
                  min_post_drift_f1=0.5, max_dip=0.3)
    return rows_from("drift", base, {}, dict(policy="drift"),
                     dict(sudden, final_f1=0.6, recovery_epochs=6,
                          reconverged=0, fingerprint="00112233445566bb"),
                     dict(sudden, policy="drift", final_f1=0.79,
                          recovery_epochs=2, retrains=5,
                          fingerprint="00112233445566cc"))


def overload_fixture():
    base = dict(algorithm="cempar", arm="undefended", burst="disarmed",
                arrival_rate=0, burst_multiplier=1, offered=40, completed=40,
                ok=40, degraded=0, cached=0, failed=0, shed=0, retries=0,
                within_slo=40, goodput_within_slo=10, shed_rate=0,
                cache_hit_rate=0, p50_s=0.1, p95_s=0.2, p99_s=0.3, slo_s=1,
                give_ups=0, fingerprint="0123456789abcdef")
    flash = dict(burst="flash", arrival_rate=12, burst_multiplier=6,
                 offered=100, completed=100, fingerprint="fedcba9876543210")
    return rows_from("overload", base, {}, dict(arm="defended"),
                     dict(flash, ok=50, failed=50, within_slo=30,
                          goodput_within_slo=3, p95_s=2, p99_s=3),
                     dict(flash, arm="defended", ok=80, cached=10,
                          failed=10, shed=12, retries=4, give_ups=1,
                          within_slo=90, goodput_within_slo=9,
                          shed_rate=0.12, cache_hit_rate=0.1))


def service_fixture():
    base = dict(algorithm="cempar", arm="clean", offered=50, completed=50,
                ok=50, degraded=0, cached=0, failed=0, shed=0, retries=0,
                within_slo=50, io_errors=0, p50_s=0.01, p95_s=0.02,
                p99_s=0.03, achieved_rate=10, wall_s=5, train_wall_s=1,
                fingerprint="0123456789ABCDEF", daemon_accepted=5,
                daemon_requests=50, daemon_malformed=0, daemon_oversized=0,
                daemon_reaped_idle=0, daemon_read_errors=0,
                daemon_slow_consumer_closed=0, drain_completed=1,
                fault_resets=0, fault_stalls_reaped=0, fault_typed_errors=0,
                fault_predicts_ok=0, fault_liveness_ok=0)
    return rows_from("service", base, {}, dict(
        arm="faulted", p95_s=0.05, p99_s=0.06, daemon_malformed=3,
        daemon_read_errors=2, daemon_reaped_idle=1, fault_resets=2,
        fault_stalls_reaped=1, fault_typed_errors=3, fault_predicts_ok=4,
        fault_liveness_ok=1))


FIXTURES = {"byzantine": byzantine_fixture, "drift": drift_fixture,
            "overload": overload_fixture, "service": service_fixture}


def setter(indexes, **values):
    """Sets `values` on the fixture row (or tuple of rows) `indexes`."""
    def mutate(rows):
        for i in indexes if isinstance(indexes, tuple) else (indexes,):
            rows[i].update({k: str(v) for k, v in values.items()})
    return mutate


def drop(*indexes):
    def mutate(rows):
        for i in sorted(indexes, reverse=True):
            del rows[i]
    return mutate


def drop_column(name):
    def mutate(rows):
        for row in rows:
            del row[name]
    return mutate


# (name, mutation, strict, substring the rule's message carries). Row 0 of
# each fixture is CSV row 2.
MUTANTS = {
    "byzantine": [
        ("header", drop_column("train_bytes"), False, "header mismatch"),
        ("no_rows", drop(0, 1, 2, 3), False, "no data rows"),
        ("algorithm_enum", setter(2, algorithm="svm"), False,
         "row 4: algorithm='svm' is not one of cempar/pace"),
        ("adversary_enum", setter(2, adversary="evil"), False,
         "row 4: adversary='evil'"),
        ("fraction_ratio", setter(2, malicious_fraction=1.5), False,
         "row 4: malicious_fraction='1.5'"),
        ("count_negative", setter(0, attempted=-1), False,
         "row 2: attempted='-1' is not a non-negative count"),
        ("defended_flag", setter(2, defended=2), False,
         "row 4: defended='2' is not a 0/1 flag"),
        ("f1_ratio", setter(3, micro_f1=-0.1), False, "row 5: micro_f1="),
        ("clean_malicious", setter(1, malicious_peers=1), False,
         "row 3: clean row must have zero malicious peers"),
        ("no_clean_defended", drop(0), False,
         "cempar: missing clean defended baseline"),
        ("no_clean_undefended", drop(1), False,
         "cempar: missing clean undefended baseline"),
        ("no_adversarial", drop(2, 3), False, "cempar: no adversarial rows"),
        ("bit_identity", setter(1, train_sim_seconds=5.6), False,
         "bit-identity violated"),
        ("clean_rejects", setter(0, models_rejected=1), False,
         "clean defended run rejected models"),
        ("clean_quarantine", setter(0, quarantined_pairs=1), False,
         "clean defended run quarantined peers"),
        ("no_defended_flip", drop(2), True,
         "missing defended 30% label-flip row"),
        ("no_undefended_flip", drop(3), True,
         "missing undefended 30% label-flip row"),
        ("defended_drop", setter(2, macro_f1=0.7), True,
         "drops more than 5 points from clean"),
        ("undefended_holds", setter(3, macro_f1=0.78), True,
         "does not degrade strictly more than defended"),
    ],
    "drift": [
        ("scenario_enum", setter(2, scenario="meteor"), False,
         "row 4: scenario='meteor'"),
        ("policy_enum", setter(3, policy="yolo"), False,
         "row 5: policy='yolo'"),
        ("churn_flag", setter(0, churn="yes"), False, "row 2: churn="),
        ("max_dip_negative", setter(2, max_dip=-0.1), False,
         "row 4: max_dip='-0.1' is not a non-negative number"),
        ("fingerprint_length", setter(0, fingerprint="abc"), False,
         "row 2: fingerprint='abc' is not a 16-hex-digit digest"),
        # Caught only since the fingerprint kind checks its digits too.
        ("fingerprint_hex", setter((0, 1), fingerprint="00112233445566zz"),
         False, "row 2: fingerprint='00112233445566zz' is not a 16-hex-digit"),
        ("recovery_past_run", setter(2, recovery_epochs=7), False,
         "row 4: recovery_epochs 7 > num_epochs 6"),
        ("reconverged_bookkeeping", setter(3, reconverged=0), False,
         "row 5: reconverged=0 inconsistent"),
        ("stationary_drift_epoch", setter(0, first_drift_epoch=3), False,
         "row 2: stationary row has first_drift_epoch 3 inside the run"),
        ("frozen_retrains", setter(2, retrains=1), False,
         "row 4: frozen arm recorded retrains"),
        ("no_stationary", drop(0, 1), False,
         "pace: no stationary baseline rows"),
        ("no_drift", drop(2, 3), False, "pace: no drift scenario rows"),
        ("idle_fingerprints", setter(1, fingerprint="00112233445566dd"),
         False, "zero-retrain policy arms disagree on fingerprint"),
        ("stationary_retrain", setter(1, retrains=1), False,
         "drift arm retrained 1 peers with no drift and no loss"),
        ("no_reconvergence", setter(2, final_f1=0.79), True,
         "acceptance bar not met"),
    ],
    "overload": [
        ("arm_enum", setter(0, arm="sneaky"), False, "row 2: arm='sneaky'"),
        ("burst_enum", setter(2, burst="tsunami"), False,
         "row 4: burst='tsunami'"),
        ("hit_rate_ratio", setter(3, cache_hit_rate=1.1), False,
         "row 5: cache_hit_rate='1.1' is not a ratio in [0, 1]"),
        ("goodput_negative", setter(3, goodput_within_slo=-1), False,
         "row 5: goodput_within_slo='-1'"),
        ("missing_requests", setter(2, completed=99, failed=49), False,
         "row 4: completed 99 != offered 100"),
        ("outcome_sum", setter(2, ok=49), False,
         "row 4: ok+degraded+cached+failed 99 != completed 100"),
        ("within_slo", setter(0, within_slo=41), False,
         "row 2: within_slo exceeds completed"),
        ("quantiles", setter(0, p50_s=0.25), False,
         "row 2: latency quantiles unordered"),
        ("undefended_shed", setter(2, shed=1), False,
         "row 4: undefended arm shed requests"),
        ("undefended_retry", setter(2, retries=1), False,
         "row 4: undefended arm retried"),
        ("undefended_give_up", setter(2, give_ups=1), False,
         "row 4: undefended arm recorded overload give-ups"),
        ("disarmed_rate", setter(1, arrival_rate=3), False,
         "row 3: disarmed row carries an arrival rate"),
        ("disarmed_pair", drop(1), False, "cempar: disarmed pair incomplete"),
        ("disarmed_identity", setter(1, fingerprint="0123456789abcdee"),
         False, "cempar: disarmed fingerprints differ"),
        ("no_flash", drop(2, 3), False, "cempar: no flash-burst rows"),
        ("no_goodput_gain", setter(3, goodput_within_slo=5), True,
         "acceptance bar not met"),
    ],
    "service": [
        ("p50_negative", setter(0, p50_s=-0.01), False,
         "row 2: p50_s='-0.01' is not a non-negative number"),
        ("empty_replay",
         setter(0, offered=0, completed=0, ok=0, within_slo=0), False,
         "row 2: empty replay"),
        ("missing_requests", setter(0, completed=49, ok=49, within_slo=49),
         False, "row 2: completed 49 != offered 50"),
        ("outcome_sum", setter(1, ok=49), False,
         "row 3: ok+degraded+cached+failed 49 != completed 50"),
        ("within_slo", setter(1, within_slo=51), False,
         "row 3: within_slo exceeds completed"),
        ("quantiles", setter(1, p99_s=0.04), False,
         "row 3: latency quantiles unordered"),
        ("failed", setter(0, ok=49, failed=1), False,
         "row 2: 1 replay requests failed"),
        ("io_errors", setter(0, io_errors=1), False,
         "row 2: 1 replay connections lost"),
        ("drain", setter(1, drain_completed=0), False,
         "row 3: graceful drain did not complete"),
        ("clean_malformed", setter(0, daemon_malformed=1), False,
         "row 2: clean arm saw malformed frames"),
        ("clean_resets", setter(0, daemon_read_errors=1), False,
         "row 2: clean arm saw connection resets"),
        ("no_resets", setter(1, fault_resets=0), False,
         "row 3: faulted arm delivered no resets"),
        ("no_typed_errors", setter(1, fault_typed_errors=0), False,
         "row 3: faulted arm elicited no typed errors"),
        ("no_reaps", setter(1, fault_stalls_reaped=0), False,
         "row 3: no stalled connection was reaped"),
        ("reap_counter", setter(1, daemon_reaped_idle=0), False,
         "row 3: daemon reap counter below observed reaps"),
        ("liveness", setter(1, fault_liveness_ok=0), False,
         "row 3: liveness probe failed"),
        ("arm_pair", drop(1), False, "cempar: arm pair incomplete"),
        ("fingerprints", setter(1, fingerprint="0123456789ABCDEE"), False,
         "cempar: clean/faulted fingerprints differ"),
        ("clean_p95", setter(0, p95_s=1.5, p99_s=1.6), True,
         "cempar: clean p95 1.5000s over the 1.0s SLO"),
        ("faulted_p95", setter(1, p95_s=2.0, p99_s=2.1), True,
         "cempar: faulted p95 2.0000s more than 4.0x"),
    ],
}


def write_csv(path, bench, rows):
    """Writes `rows` under their own header (the schema's when empty)."""
    names = list(rows[0]) if rows else [n for n, _ in check_csv.SCHEMAS[bench]]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=names)
        writer.writeheader()
        writer.writerows(rows)


class CheckCsvTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.tmp.name, "sweep.csv")

    def tearDown(self):
        self.tmp.cleanup()

    def validate(self, bench, rows, strict):
        write_csv(self.path, bench, rows)
        with contextlib.redirect_stdout(io.StringIO()):
            return check_csv.validate(bench, self.path, strict)

    def test_fixtures_pass(self):
        for bench, fixture in FIXTURES.items():
            for strict in (False, True):
                with self.subTest(bench=bench, strict=strict):
                    self.assertEqual(
                        self.validate(bench, fixture(), strict), [])

    def test_every_mutant_fires_its_rule(self):
        for bench, mutants in MUTANTS.items():
            for name, mutate, strict, expected in mutants:
                with self.subTest(bench=bench, mutant=name):
                    rows = copy.deepcopy(FIXTURES[bench]())
                    mutate(rows)
                    errors = self.validate(bench, rows, strict)
                    self.assertTrue(any(expected in e for e in errors),
                                    f"{expected!r} not in {errors}")

    def test_strict_mutants_pass_without_strict(self):
        for bench, mutants in MUTANTS.items():
            for name, mutate, strict, _ in mutants:
                if not strict:
                    continue
                with self.subTest(bench=bench, mutant=name):
                    rows = copy.deepcopy(FIXTURES[bench]())
                    mutate(rows)
                    self.assertEqual(self.validate(bench, rows, False), [])

    def test_exit_codes(self):
        write_csv(self.path, "byzantine", byzantine_fixture())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(check_csv.main(["byzantine", self.path]), 0)
            self.assertEqual(check_csv.main(["drift", self.path]), 1)
            self.assertEqual(check_csv.main(["bogus", self.path]), 2)
            self.assertEqual(check_csv.main([self.path, "--strict"]), 2)
        self.assertIn("FAIL: header mismatch", out.getvalue())

    def test_unparseable_value_in_unchecked_column_fails(self):
        rows = drift_fixture()
        rows[0]["recovery_epochs"] = "soon"
        errors = self.validate("drift", rows, False)
        self.assertTrue(any("malformed value" in e for e in errors), errors)


if __name__ == "__main__":
    unittest.main()
