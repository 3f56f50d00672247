#!/usr/bin/env python3
"""CI bench gate: assert measured speedups have not regressed to scalar.

Reads a machine-readable bench report and fails if any op fell below its
floor. Two suites share the schema `{suite?, dim, quick, cores, ops: {op ->
{scalar_ns, packed_ns, speedup, note}}}`:

* `kernels` (BENCH_kernels.json, written by `cargo bench -p hdtest-bench
  --bench kernels`): packed compute paths vs their scalar reference loops.
* `serve` (BENCH_serve.json, written by `serve-loadgen`): coalesced serving
  throughput vs the batch-size-1 baseline, plus the mean executed batch
  size (reported as the `serve_coalescing` "speedup").
* `serve_soak` (also BENCH_serve.json, written by `serve-soak`): the
  overload soak's p99 headroom — "speedup" is p99-ceiling / measured-p99,
  so > 1.0 means the latency ceiling held under fault injection. When the
  soak merges its row into an existing loadgen report the suite stays
  `serve` and `serve_soak` rides along as an extra op.

Reports without a `suite` field are treated as `kernels` for back-compat.

Three op classes:

* packed-vs-scalar ops (similarity kernels, encoders, CSA bundling, the
  coalescing proof): the fast path replaced a slow one outright, so
  `speedup <= MIN_SPEEDUP` means it has effectively fallen back — fail.
* delta ops (pack_words: both sides word-level; serve_predict /
  serve_train: coalescing on a 1-CPU runner can
  only reach parity with batch-size-1 because the compute is serialized
  either way): only guard against a real regression (MIN_DELTA).
* floor-override ops (train_partial_fit: one online partial_fit must be
  >=50x cheaper than the full retrain it replaces at 10k x 10 classes —
  the online-learning acceptance bar; measured ~200x).
* scaling-curve ops (serve_scale_wN, written by serve-loadgen's predict-
  pool sweep): "speedup" is explicit-batch throughput at N predict
  executors over 1 executor. Gated as a curve, not per-row: the 1-worker
  row is the 1.0 anchor by construction; with >= 2 cores every in-core
  multicore point must beat 1 worker and the curve must not collapse as
  workers grow; on a 1-core runner extra executors cannot help, so the
  gate only refuses a real regression (oversubscription must stay near
  parity).
* backend-tier ops (op@tier, e.g. hamming@avx2): each kernel-backend
  tier measured against the tier below it. `*@portable` rows baseline
  against the scalar reference loops and use the generic floor; `*@avx2`
  rows baseline against the portable tier and are feature-armed — the
  bench only emits them when the CPU reports AVX2 (recorded in the
  report's `cpu_features` header field), and this gate requires them
  exactly then, mirroring the cores>=2 arming of the scaling curve.
  hamming@avx2 and am_scan@avx2 carry the PR-10 acceptance bar (>=1.5x
  over portable); pack@avx2 and bundle@avx2 only guard that SIMD never
  falls below the portable tier (bundle's CSA planes are memory-bound,
  so parity is the honest expectation there).
"""

import json
import re
import sys

# Margins are deliberately below the measured ratios (5-50x for the
# packed-vs-scalar ops, ~5x mean batch for serve_coalescing on the 1-CPU
# CI container, ~200x for partial_fit-vs-retrain) so VM noise cannot flake
# the gate, while a genuine fallback (ratio ~1.0) still fails.
MIN_SPEEDUP = 1.5
MIN_DELTA = 0.7

DELTA_OPS = {"pack_words", "serve_predict", "serve_train"}

# Ops whose acceptance bar differs from the generic MIN_SPEEDUP.
# serve_soak's "speedup" is p99-ceiling headroom: > 1.0 means the soak's
# latency ceiling held, so the floor is exactly break-even.
# serve_wal_append compares file-backed training (fsynced WAL append per
# published batch) coalesced vs batch-size-1: coalescing amortizes one
# fsync over the whole batch while batch-size-1 pays it per example, so
# anything at or below parity means durability broke the coalescing win.
# serve_trace_overhead's "speedup" is traced-rps / untraced-rps on the
# same predict workload: the request-id echo is free (always on), so the
# ratio measures the span/ring/histogram bookkeeping alone; 0.9 allows
# at most a 10% tracing tax. (Originally 0.95: the AVX2 kernel backend
# shortened the compute half of each request ~1.5x, so the same absolute
# bookkeeping cost is now a larger fraction — measured 0.94 on the AVX2
# container, 1.0+ forced portable. A broken tracing path still lands far
# below 0.9.)
FLOOR_OVERRIDES = {
    "train_partial_fit": 50.0,
    "serve_soak": 1.0,
    "serve_wal_append": 1.0,
    "serve_trace_overhead": 0.9,
    # AVX2 backend rows baseline against the PORTABLE tier, not scalar.
    # hamming/am_scan carry the SIMD acceptance bar (measured ~3x); the
    # pack movemask gather is ~3.5x but gets the no-regression floor since
    # its win is not the acceptance criterion; the BitCounter planes are
    # memory-bound so AVX2 only has to hold parity with portable there.
    "hamming@avx2": 1.5,
    "am_scan@avx2": 1.5,
    "pack@avx2": 0.95,
    "bundle@avx2": 0.8,
}

# Feature-armed rows: required when the bench header reports the feature,
# forbidden when it does not (a row the CPU cannot run means the bench and
# the gate disagree about detection — fail loudly either way).
AVX2_OPS = {"hamming@avx2", "am_scan@avx2", "pack@avx2", "bundle@avx2"}

SCALE_OP = re.compile(r"^serve_scale_w(\d+)$")

# A 1-core runner cannot profit from more executors; the sweep there only
# guards against the pool costing throughput. Scatter/gather overhead and
# VM noise get a margin, a broken pool (ratio near 0.5) still fails.
SCALE_1CORE_FLOOR = 0.7

# With >= 2 cores the curve may flatten once workers exceed cores, but a
# later in-core point dropping more than 10% below an earlier one means
# added executors actively hurt — fail.
SCALE_MONOTONE_TOLERANCE = 0.9

REQUIRED_OPS = {
    "kernels": {
        "encode_ngram",
        "encode_record",
        "encode_timeseries",
        "encode_permute_pixel",
        "train_partial_fit",
        "hamming@portable",
        "am_scan@portable",
    },
    "serve": {
        "serve_predict",
        "serve_train",
        "serve_wal_append",
        "serve_trace_overhead",
        "serve_coalescing",
        "serve_scale_w1",
    },
    "serve_soak": {"serve_soak"},
}


def check_scaling_curve(ops, cores):
    """Gates the serve_scale_w* rows as one curve. Returns failed op names."""
    curve = sorted(
        (int(m.group(1)), op, row)
        for op, row in ops.items()
        if (m := SCALE_OP.match(op))
    )
    if not curve:
        return []

    failures = []
    prev_in_core = None
    for workers, op, row in curve:
        speedup = row["speedup"]
        if workers == 1:
            # Self-ratio: anything but ~1.0 means the sweep is broken.
            ok = abs(speedup - 1.0) < 1e-6
            bar = "= 1.0 (anchor)"
        elif cores == 1:
            ok = speedup >= SCALE_1CORE_FLOOR
            bar = f">= {SCALE_1CORE_FLOOR} (1-core: no regression)"
        elif workers <= cores:
            ok = speedup > 1.0
            bar = "> 1.0 (in-core: must beat 1 worker)"
            if ok and prev_in_core is not None:
                if speedup < prev_in_core * SCALE_MONOTONE_TOLERANCE:
                    ok = False
                    bar = f">= {SCALE_MONOTONE_TOLERANCE} x previous point (curve collapsed)"
        else:
            # Oversubscribed beyond the core count: flattening is fine,
            # falling below the 1-worker baseline is not.
            ok = speedup >= SCALE_1CORE_FLOOR
            bar = f">= {SCALE_1CORE_FLOOR} (oversubscribed: no regression)"
        if workers <= cores and workers > 1 and speedup > 1.0:
            prev_in_core = speedup
        status = "ok  " if ok else "FAIL"
        print(
            f"  {status} {op:<22} scalar {row['scalar_ns']:>12.0f} ns  "
            f"packed {row['packed_ns']:>10.0f} ns  {speedup:>6.2f}x  "
            f"(curve bar: {bar})  [{row['note']}]"
        )
        if not ok:
            failures.append(op)
    return failures


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "crates/bench/BENCH_kernels.json"
    with open(path) as f:
        report = json.load(f)

    suite = report.get("suite", "kernels")
    cpu_features = report.get("cpu_features", "")
    failures = []
    print(
        f"bench report: suite={suite} dim={report['dim']} "
        f"quick={report['quick']} cores={report['cores']}"
        + (
            f" kernel_backend={report['kernel_backend']} cpu_features={cpu_features}"
            if "kernel_backend" in report
            else ""
        )
    )
    for op, row in sorted(report["ops"].items()):
        if SCALE_OP.match(op):
            continue  # gated as a curve below, not per-row
        floor = FLOOR_OVERRIDES.get(op, MIN_DELTA if op in DELTA_OPS else MIN_SPEEDUP)
        ok = row["speedup"] > floor
        status = "ok  " if ok else "FAIL"
        print(
            f"  {status} {op:<22} scalar {row['scalar_ns']:>12.0f} ns  "
            f"packed {row['packed_ns']:>10.0f} ns  {row['speedup']:>6.2f}x  "
            f"(floor {floor}x)  [{row['note']}]"
        )
        if not ok:
            failures.append(op)

    failures.extend(check_scaling_curve(report["ops"], report["cores"]))

    missing = REQUIRED_OPS.get(suite, set()) - set(report["ops"])
    if missing:
        failures.extend(sorted(missing))
        print(f"  FAIL missing required ops: {sorted(missing)}")

    if suite == "kernels":
        avx2_detected = "avx2" in cpu_features.split(",")
        present = AVX2_OPS & set(report["ops"])
        if avx2_detected and present != AVX2_OPS:
            absent = sorted(AVX2_OPS - present)
            failures.extend(absent)
            print(f"  FAIL avx2 detected but backend rows missing: {absent}")
        elif not avx2_detected and present:
            failures.extend(sorted(present))
            print(
                f"  FAIL avx2 NOT detected but backend rows present: {sorted(present)}"
            )
        elif avx2_detected:
            print("  (avx2 detected: backend-tier rows armed)")
        else:
            print("  (avx2 not detected: backend-tier rows dormant)")

    if failures:
        print(f"ops at or below their floor (or missing): {failures}", file=sys.stderr)
        return 1
    print("all ops above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
