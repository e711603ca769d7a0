#!/usr/bin/env python3
"""Validates the sweep CSV a robustness bench writes.

Usage: check_csv.py <bench> <csv> [--strict]

<bench> is byzantine, drift, overload or service and picks the schema of
bench_<bench>'s CSV: its exact column list with a kind per column, which
one loop checks. The bench's witness rules then check the invariants every
sweep must hold, and --strict adds its acceptance bar (see each *_rules
function). Pure stdlib. Prints one FAIL line per violation to stdout and
exits 1; exits 0 when every check holds and 2 on a usage error.
"""

import csv
import string
import sys

# Column kinds: (description, predicate). A predicate that raises on a
# malformed value fails like one that returns False.


def enum(*values):
    return ("one of " + "/".join(values), lambda v: v in values)


FLAG = ("a 0/1 flag", lambda v: v in ("0", "1"))
RATIO = ("a ratio in [0, 1]", lambda v: 0.0 <= float(v) <= 1.0)
COUNT = ("a non-negative count", lambda v: int(v) >= 0)
NONNEG = ("a non-negative number", lambda v: float(v) >= 0.0)
HEX16 = ("a 16-hex-digit digest",
         lambda v: len(v) == 16 and all(c in string.hexdigits for c in v))
TEXT = ("text", lambda v: True)  # read, if at all, only by a witness rule
ALGORITHM = enum("cempar", "pace")


def columns(*spec):
    """Expands (kind, "name name ...") pairs into [(name, kind), ...]."""
    return [(name, kind) for kind, names in spec for name in names.split()]


SCHEMAS = {
    "byzantine": columns(
        (ALGORITHM, "algorithm"),
        (enum("none", "label_flip", "garbage_model", "dimension_mismatch",
              "accuracy_inflate", "vote_spam"), "adversary"),
        (RATIO, "malicious_fraction"), (COUNT, "malicious_peers"),
        (FLAG, "defended"),
        (RATIO, "micro_f1 macro_f1 prediction_success_rate"),
        (COUNT, "attempted models_rejected votes_discarded quarantined_pairs "
                "trust_observations train_bytes"),
        (TEXT, "train_sim_seconds")),
    "drift": columns(
        (ALGORITHM, "algorithm"),
        (enum("none", "sudden_vocab", "gradual_rotation", "popularity_spike",
              "new_tag"), "scenario"),
        (enum("frozen", "periodic", "staleness", "drift"), "policy"),
        (RATIO, "loss_rate"), (FLAG, "churn"), (COUNT, "num_epochs"),
        (TEXT, "first_drift_epoch"),
        (RATIO, "pre_drift_f1 min_post_drift_f1 final_f1"),
        (NONNEG, "max_dip"), (TEXT, "recovery_epochs"), (FLAG, "reconverged"),
        (COUNT, "retrains drift_detections give_ups suspected_peers "
                "total_messages total_bytes"),
        (HEX16, "fingerprint")),
    "overload": columns(
        (ALGORITHM, "algorithm"), (enum("undefended", "defended"), "arm"),
        (enum("disarmed", "none", "flash"), "burst"),
        (TEXT, "arrival_rate burst_multiplier"),
        (COUNT, "offered completed ok degraded cached failed shed retries "
                "within_slo"),
        (NONNEG, "goodput_within_slo shed_rate"), (RATIO, "cache_hit_rate"),
        (NONNEG, "p50_s p95_s p99_s slo_s"), (COUNT, "give_ups"),
        (HEX16, "fingerprint")),
    "service": columns(
        (ALGORITHM, "algorithm"), (enum("clean", "faulted"), "arm"),
        (COUNT, "offered completed ok degraded cached failed shed retries "
                "within_slo io_errors"),
        (NONNEG, "p50_s p95_s p99_s"),
        (TEXT, "achieved_rate wall_s train_wall_s"), (HEX16, "fingerprint"),
        (COUNT, "daemon_accepted daemon_requests daemon_malformed "
                "daemon_oversized daemon_reaped_idle daemon_read_errors "
                "daemon_slow_consumer_closed"),
        (TEXT, "drain_completed"),
        (COUNT, "fault_resets fault_stalls_reaped fault_typed_errors "
                "fault_predicts_ok"),
        (TEXT, "fault_liveness_ok")),
}


def numbered(rows):
    """(where, row) pairs; the header is line 1, so data starts at row 2."""
    return ((f"row {i + 2}", row) for i, row in enumerate(rows))


def algorithms(rows):
    return sorted({row["algorithm"] for row in rows})


def has(rows, algorithm, pred):
    return any(row["algorithm"] == algorithm and pred(row) for row in rows)


def outcome_rules(check, where, row):
    """Shared by the load benches: ok+degraded+cached+failed == completed
    == offered, within_slo <= completed, and p50 <= p95 <= p99."""
    offered, completed = int(row["offered"]), int(row["completed"])
    answered = sum(int(row[c]) for c in ("ok", "degraded", "cached", "failed"))
    check(completed == offered, f"{where}: completed {completed} != offered "
          f"{offered} (requests went missing)")
    check(answered == completed, f"{where}: ok+degraded+cached+failed "
          f"{answered} != completed {completed}")
    check(int(row["within_slo"]) <= completed,
          f"{where}: within_slo exceeds completed")
    p50, p95, p99 = (float(row[c]) for c in ("p50_s", "p95_s", "p99_s"))
    check(p50 <= p95 + 1e-12 and p95 <= p99 + 1e-12,
          f"{where}: latency quantiles unordered ({p50}, {p95}, {p99})")


def report_witnesses(check, witnesses, failure):
    check(witnesses, "acceptance bar not met: " + failure)
    if witnesses:
        print(f"acceptance witnesses: {', '.join(sorted(set(witnesses)))}")


def byzantine_rules(check, rows, strict):
    """Each algorithm has clean defended and undefended baselines and
    adversarial rows; the clean defended row equals the clean undefended
    one (the defenses never fire for honest peers). Strict: at 30 % label
    flip, defended macro-F1 stays within 5 points of clean while the
    undefended one degrades strictly more."""
    for where, row in numbered(rows):
        if row["adversary"] == "none":
            check(float(row["malicious_fraction"]) == 0.0
                  and int(row["malicious_peers"]) == 0,
                  f"{where}: clean row must have zero malicious peers")

    def find(algorithm, adversary, defended, fraction=None):
        return next((row for row in rows
                     if (row["algorithm"], row["adversary"], row["defended"])
                     == (algorithm, adversary, defended)
                     and (fraction is None
                          or float(row["malicious_fraction"]) == fraction)),
                    None)

    for algo in algorithms(rows):
        clean_def = find(algo, "none", "1")
        clean_undef = find(algo, "none", "0")
        check(clean_def is not None,
              f"{algo}: missing clean defended baseline")
        check(clean_undef is not None,
              f"{algo}: missing clean undefended baseline")
        check(has(rows, algo, lambda r: r["adversary"] != "none"),
              f"{algo}: no adversarial rows")
        if clean_def and clean_undef:
            for col in ("micro_f1", "macro_f1", "train_bytes",
                        "train_sim_seconds"):
                check(clean_def[col] == clean_undef[col],
                      f"{algo}: clean defended {col}={clean_def[col]} != "
                      f"clean undefended {col}={clean_undef[col]} "
                      "(bit-identity violated)")
            check(int(clean_def["models_rejected"]) == 0,
                  f"{algo}: clean defended run rejected models")
            check(int(clean_def["quarantined_pairs"]) == 0,
                  f"{algo}: clean defended run quarantined peers")
        if not strict or clean_def is None:
            continue
        flip_def = find(algo, "label_flip", "1", 0.3)
        flip_undef = find(algo, "label_flip", "0", 0.3)
        check(flip_def is not None,
              f"{algo}: missing defended 30% label-flip row")
        check(flip_undef is not None,
              f"{algo}: missing undefended 30% label-flip row")
        if flip_def and flip_undef:
            clean_f1 = float(clean_def["macro_f1"])
            def_f1 = float(flip_def["macro_f1"])
            undef_f1 = float(flip_undef["macro_f1"])
            check(def_f1 >= clean_f1 - 0.05,
                  f"{algo}: defended 30% flip macro-F1 {def_f1:.4f} "
                  f"drops more than 5 points from clean {clean_f1:.4f}")
            check(clean_f1 - undef_f1 > clean_f1 - def_f1,
                  f"{algo}: undefended 30% flip macro-F1 {undef_f1:.4f} "
                  "does not degrade strictly more than defended "
                  f"{def_f1:.4f}")


RECONVERGE_MARGIN = 0.02
FROZEN_DEGRADATION = 0.05


def drift_rules(check, rows, strict):
    """Recovery bookkeeping is consistent, each algorithm has stationary and
    drift rows, frozen arms never retrain, and within each stationary
    (algorithm, loss, churn) group the non-periodic arms that never
    retrained share one fingerprint (idle drift machinery is invisible).
    At zero loss no stationary arm retrains; lossy ones may, since the
    detector repairs loss erosion. Strict: a sudden drift at >= 20 % loss
    where a retraining policy re-converges to within 2 macro-F1 points of
    pre-drift while the frozen arm stays >= 5 points degraded."""
    for where, row in numbered(rows):
        epochs, recovery = int(row["num_epochs"]), int(row["recovery_epochs"])
        check(recovery <= epochs,
              f"{where}: recovery_epochs {recovery} > num_epochs {epochs}")
        check((row["reconverged"] == "1") == (recovery < epochs),
              f"{where}: reconverged={row['reconverged']} inconsistent with "
              f"recovery_epochs={recovery} of {epochs}")
        if row["scenario"] == "none":
            check(int(row["first_drift_epoch"]) >= epochs,
                  f"{where}: stationary row has first_drift_epoch "
                  f"{row['first_drift_epoch']} inside the run")
        if row["policy"] == "frozen":
            check(int(row["retrains"]) == 0,
                  f"{where}: frozen arm recorded retrains")
    for algo in algorithms(rows):
        check(has(rows, algo, lambda r: r["scenario"] == "none"),
              f"{algo}: no stationary baseline rows")
        check(has(rows, algo, lambda r: r["scenario"] != "none"),
              f"{algo}: no drift scenario rows")
    groups = {}
    for row in rows:
        if row["scenario"] == "none" and row["policy"] != "periodic":
            key = (row["algorithm"], row["loss_rate"], row["churn"])
            groups.setdefault(key, []).append(row)
    for key, group in sorted(groups.items()):
        label = "/".join(key)
        idle = [r for r in group if int(r["retrains"]) == 0]
        check(len({r["fingerprint"] for r in idle}) <= 1,
              f"stationary {label}: zero-retrain policy arms disagree on "
              "fingerprint (idle drift machinery must be invisible)")
        if float(key[1]) == 0.0:
            for r in group:
                check(int(r["retrains"]) == 0,
                      f"stationary {label}: {r['policy']} arm retrained "
                      f"{r['retrains']} peers with no drift and no loss")
    if not strict:
        return

    def cell(r):
        return (r["algorithm"], r["scenario"], r["loss_rate"], r["churn"])

    witnesses = []
    for row in rows:
        if (row["scenario"] not in ("sudden_vocab", "new_tag")
                or float(row["loss_rate"]) < 0.2 or row["policy"] == "frozen"):
            continue
        frozen = next((r for r in rows
                       if r["policy"] == "frozen" and cell(r) == cell(row)),
                      None)
        if frozen is None:
            continue
        reconverged = (row["reconverged"] == "1" or float(row["final_f1"])
                       >= float(row["pre_drift_f1"]) - RECONVERGE_MARGIN)
        frozen_stuck = (float(frozen["final_f1"])
                        <= float(frozen["pre_drift_f1"]) - FROZEN_DEGRADATION)
        if reconverged and frozen_stuck:
            witnesses.append(f"{row['algorithm']}/{row['scenario']}@"
                             f"{row['loss_rate']} via {row['policy']}")
    report_witnesses(
        check, witnesses, "no sudden-drift scenario at >= 20% loss where a "
        f"retraining policy re-converges (within {RECONVERGE_MARGIN} macro-F1 "
        f"of pre-drift) while the frozen arm stays >= {FROZEN_DEGRADATION} "
        "degraded")


GOODPUT_FACTOR = 2.0
FAIL_COLLAPSE = 0.05


def overload_rules(check, rows, strict):
    """Outcome arithmetic holds, undefended arms never shed, retry or give
    up, disarmed rows carry no load, and each algorithm has flash rows and a
    disarmed pair whose fingerprints match (idle overload machinery changes
    no answer). Strict: a flash point where the undefended arm is past its
    SLO (p95 over slo_s, or > 5 % failed) while the defended arm of the
    same point sustains >= 2x its goodput-within-SLO."""
    for where, row in numbered(rows):
        outcome_rules(check, where, row)
        if row["arm"] == "undefended":
            check(int(row["shed"]) == 0,
                  f"{where}: undefended arm shed requests")
            check(int(row["retries"]) == 0, f"{where}: undefended arm retried")
            check(int(row["give_ups"]) == 0,
                  f"{where}: undefended arm recorded overload give-ups")
        if row["burst"] == "disarmed":
            check(float(row["arrival_rate"]) == 0.0,
                  f"{where}: disarmed row carries an arrival rate")
    arms = {"undefended", "defended"}
    for algo in algorithms(rows):
        disarmed = {row["arm"]: row["fingerprint"] for row in rows
                    if row["algorithm"] == algo and row["burst"] == "disarmed"}
        check(set(disarmed) == arms,
              f"{algo}: disarmed pair incomplete (have {sorted(disarmed)})")
        if set(disarmed) == arms:
            check(disarmed["undefended"] == disarmed["defended"],
                  f"{algo}: disarmed fingerprints differ — idle overload "
                  "machinery changed a prediction")
        check(has(rows, algo, lambda r: r["burst"] == "flash"),
              f"{algo}: no flash-burst rows")
    if not strict:
        return

    def cell(r):
        return (r["algorithm"], r["burst"], r["arrival_rate"],
                r["burst_multiplier"])

    witnesses = []
    for row in rows:
        if row["burst"] != "flash" or row["arm"] != "undefended":
            continue
        defended = next((r for r in rows
                         if r["arm"] == "defended" and cell(r) == cell(row)),
                        None)
        if defended is None:
            continue
        offered = int(row["offered"])
        fail_rate = int(row["failed"]) / offered if offered else 0.0
        past_slo = (float(row["p95_s"]) > float(row["slo_s"])
                    or fail_rate > FAIL_COLLAPSE)
        sustained = (float(defended["goodput_within_slo"])
                     >= GOODPUT_FACTOR * float(row["goodput_within_slo"]))
        if past_slo and sustained:
            witnesses.append(
                f"{row['algorithm']}@{row['arrival_rate']}"
                f"x{row['burst_multiplier']} ({row['goodput_within_slo']} -> "
                f"{defended['goodput_within_slo']} good/s)")
    report_witnesses(
        check, witnesses, "no flash point where the undefended arm is past "
        "SLO (or >5% failed) while the defended arm sustains >= "
        f"{GOODPUT_FACTOR}x its goodput-within-SLO")


SLO_SECONDS = 1.0
FAULTED_P95_FACTOR = 4.0


def service_rules(check, rows, strict):
    """Every arm replayed a non-empty schedule with outcome arithmetic
    intact, no failed request, no lost connection and a completed drain; a
    clean arm saw no malformed frame or reset; a faulted arm delivered
    resets, elicited typed errors, had stalls reaped and passed its liveness
    probe; each algorithm has both arms with matching fingerprints (socket
    abuse changed no prediction). Strict: the SVC1 bar, clean p95 under the
    SLO and faulted p95 within 4x the clean arm's."""
    for where, row in numbered(rows):
        check(int(row["offered"]) > 0, f"{where}: empty replay")
        outcome_rules(check, where, row)
        check(int(row["failed"]) == 0,
              f"{where}: {row['failed']} replay requests failed")
        check(int(row["io_errors"]) == 0,
              f"{where}: {row['io_errors']} replay connections lost")
        check(row["drain_completed"] == "1",
              f"{where}: graceful drain did not complete")
        if row["arm"] == "clean":
            check(int(row["daemon_malformed"]) == 0,
                  f"{where}: clean arm saw malformed frames")
            check(int(row["daemon_read_errors"]) == 0,
                  f"{where}: clean arm saw connection resets")
            continue
        check(int(row["fault_resets"]) > 0,
              f"{where}: faulted arm delivered no resets")
        check(int(row["fault_typed_errors"]) > 0,
              f"{where}: faulted arm elicited no typed errors")
        check(int(row["fault_stalls_reaped"]) > 0, f"{where}: no stalled "
              "connection was reaped within the idle deadline")
        check(int(row["daemon_reaped_idle"])
              >= int(row["fault_stalls_reaped"]),
              f"{where}: daemon reap counter below observed reaps")
        check(row["fault_liveness_ok"] == "1",
              f"{where}: liveness probe failed after the fault script")
    for algo in algorithms(rows):
        arms = {row["arm"]: row for row in rows if row["algorithm"] == algo}
        check(set(arms) == {"clean", "faulted"},
              f"{algo}: arm pair incomplete (have {sorted(arms)})")
        if set(arms) != {"clean", "faulted"}:
            continue
        check(arms["clean"]["fingerprint"] == arms["faulted"]["fingerprint"],
              f"{algo}: clean/faulted fingerprints differ — socket-level "
              "faults changed a prediction")
        if strict:
            clean_p95 = float(arms["clean"]["p95_s"])
            faulted_p95 = float(arms["faulted"]["p95_s"])
            check(clean_p95 <= SLO_SECONDS, f"{algo}: clean p95 "
                  f"{clean_p95:.4f}s over the {SLO_SECONDS}s SLO")
            check(faulted_p95 <= max(FAULTED_P95_FACTOR * clean_p95,
                                     SLO_SECONDS),
                  f"{algo}: faulted p95 {faulted_p95:.4f}s more than "
                  f"{FAULTED_P95_FACTOR}x the clean arm's {clean_p95:.4f}s")


RULES = {"byzantine": byzantine_rules, "drift": drift_rules,
         "overload": overload_rules, "service": service_rules}


def validate(bench, path, strict):
    """Returns one message per violation (empty when the CSV passes)."""
    errors = []

    def check(cond, msg):
        if not cond:
            errors.append(msg)

    schema = SCHEMAS[bench]
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            check(reader.fieldnames == [name for name, _ in schema],
                  f"header mismatch: got {reader.fieldnames}")
            rows = list(reader)
    except OSError as e:
        return [f"cannot read {path}: {e}"]
    check(rows, "no data rows")
    if errors:
        return errors
    for where, row in numbered(rows):
        for name, (description, accepts) in schema:
            try:
                ok = accepts(row[name])
            except (TypeError, ValueError):
                ok = False
            check(ok, f"{where}: {name}={row[name]!r} is not {description}")
    try:
        RULES[bench](check, rows, strict)
    except (TypeError, ValueError) as e:
        check(False, f"malformed value stopped the witness rules: {e}")
    return errors


def main(argv):
    strict = "--strict" in argv
    args = [a for a in argv if a != "--strict"]
    if len(args) != 2 or args[0] not in SCHEMAS:
        print(__doc__.strip().splitlines()[2])
        return 2
    bench, path = args
    errors = validate(bench, path, strict)
    for msg in errors:
        print(f"FAIL: {msg}")
    if errors:
        return 1
    print(f"OK: {path} passes the {bench} schema and witness rules"
          + (" (strict)" if strict else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
