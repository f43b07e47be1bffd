#!/usr/bin/env python3
"""Bench-regression gate for the repository's machine-readable bench JSON.

Usage:
    tools/bench_gate.py FRESH.json [MORE.json ...]
                        [--suite micro|churn|scale|hostile]
                        [--baseline COMMITTED.json] [--self-test]

Several FRESH files are merged into one run table before gating — the
scale suite uses this to see the --shards 1 and --shards 4 soak legs
(distinct run names) side by side in a single gate invocation.

Suites:
  micro  (default) — bench_micro_core output: the zero-copy invariants
         (bytes_copied_* = 0, the TCP edge receiver's
         rx_bytes_copied_per_send = 0, and the sealed tunnel path's
         payload_bytes_copied = 0 on both seal and open), the event
         engine's allocation-free delivery (allocs_per_event = 0), the
         TCP endpoint's allocation-free receive (allocs_per_segment = 0), the
         sendmmsg amortization (datagrams_per_syscall) against the committed
         BENCH_micro_core.json, and the per-packet crypto cost bound
         (full-MTU seal/open at most 2x a 64-byte frame — crypto cost
         is per packet, not per byte).
  churn  — bench_churn_soak output: the self-configuration invariants.
         duplicate_leases must be exactly 0 (the DHT create() uniqueness
         guarantee), resolution_success_rate and lease_acquired_fraction
         must clear their absolute floors, and resolution_success_rate
         must not fall more than a small tolerance below the committed
         BENCH_churn_soak.json.  The committed file holds one run per CI
         shape (ChurnSoak/24 for pull requests, ChurnSoak/64 for main),
         and each fresh run's trace_digest must equal its committed
         golden digest ("baseline_equal" — a change that claims
         unchanged behaviour is checked, one that changes behaviour
         regenerates the baseline).
  scale  — the 10k-node soak, run as a --shards 1 and a --shards 4 leg:
         duplicate_leases == 0 plus the resolution and acquisition
         floors on BOTH legs (the ^ChurnSoak/ regexes match each leg's
         run name), lease_losses bounded by a ceiling instead of pinned
         to zero (see the suite comment), the two legs' trace digests
         and key counters bit-for-bit equal ("equal" rules — the
         sharded engine's determinism contract), and the 4-shard leg's
         wall clock at most 0.5x the 1-shard leg's ("speedup" rule —
         sharding must actually pay).
  hostile — bench_churn_soak --hostile output: every node behind a NAT
         of a mixed type, mixed UDP/TCP transports, 10 % churn.  The
         self-configuration invariants still hold (duplicate_leases ==
         0, resolution/acquisition floors), plus the traversal
         contract: per NAT-type-pair punch_success_rate floors
         ("rate_floor" rules — each applies only when the companion
         pairs_<a>_<b> count is nonzero, so a small CI leg with an
         empty bucket does not gate on its vacuous 1.0), every
         symmetric-symmetric link relayed (nonrelayed_sym_sym == 0), a
         ceiling on relayed_edge_fraction (relay is the fallback, not
         the norm), and zero bytes copied wrapping relay frames (the
         per-path headroom budget holds on tunneled paths).  Both legs
         (HostileSoak/64 and HostileSoak/64/hijack) must reproduce their
         golden trace digests in BENCH_hostile_soak.json.

"baseline_equal" compares a run only when the baseline holds a run of
the same name built by the same compiler family (the run's "compiler"
field): a golden digest is only known to reproduce under the compiler
that recorded it.  Each run it skips is printed with the reason.

Absolute wall-clock timings are deliberately NOT gated — CI machines are
noisy.  Every gated counter is a deterministic count or ratio; the two
timing-derived rule classes ("scaling" and "speedup") compare two runs
from the SAME fresh run table against each other, so machine speed
cancels out.

--self-test verifies the gate actually fails on deliberately regressed
counters, then exits 0.  CI runs it after the real gate so a silently
broken parser cannot pass green.
"""

import argparse
import copy
import json
import re
import sys

SUITES = {
    "micro": {
        "default_baseline": "BENCH_micro_core.json",
        # Counters that must be exactly 0 for matching benchmark names.
        # The ablation/legacy variants (BM_ForwardHopCopy,
        # BM_NatRewriteCopyAtCrossing, BM_NatForwardSim/1/*,
        # BM_UdpFanoutCopyPerDest) are intentionally absent: their nonzero
        # counters are the comparison, not a regression.
        "zero": [
            (r"^BM_ForwardHopZeroCopy/", "bytes_copied_per_hop"),
            (r"^BM_NatRewriteInPlace/", "bytes_copied_per_forward"),
            (r"^BM_NatForwardSim/0/", "bytes_copied_per_forward"),
            (r"^BM_TcpEdgeStreamSend/", "bytes_copied_per_send"),
            # Receive side: a packet that fits one segment goes up to the
            # edge as a share of it (both sizes fit one 1460-byte MSS).
            (r"^BM_TcpEdgeStreamSend/", "rx_bytes_copied_per_send"),
            (r"^BM_UdpFanoutBatchShared/", "bytes_copied_per_datagram"),
            # The secured hot path: encrypt/decrypt in place on the
            # uniquely-owned capture buffer, seal header prepended into
            # headroom — zero payload bytes moved, and a well-formed
            # frame never bounces off the verifier.
            (r"^BM_SealInPlace/", "payload_bytes_copied"),
            (r"^BM_OpenInPlace/", "payload_bytes_copied"),
            (r"^BM_OpenInPlace/", "frames_rejected"),
            # The event engine's hot path: a link-delivery-shaped
            # closure (80 bytes) is stored inline in the slot arena and
            # the key heap and arena are recycled, so a steady-state
            # event allocates nothing.
            (r"^BM_EventLoopDeliver$", "allocs_per_event"),
            # The TCP endpoint's receive step: the pseudo-header checksum
            # is summed over the segment in place and the header parsed
            # as a view, so a received segment allocates nothing (the
            # retired struct codec staged and copied it: 2 per segment).
            (r"^BM_TcpSegmentReceive$", "allocs_per_segment"),
        ],
        # (name regex, counter, absolute floor): fresh must be >= floor.
        "floor": [
            (r"^BM_NatForwardSim/0/", "delivered_fraction", 0.9),
            (r"^BM_TcpEdgeStreamSend/", "delivered_fraction", 0.9),
        ],
        # (name regex, counter, tolerance): fresh must be >= committed
        # baseline value - tolerance for the same run name.
        "baseline_min": [
            (r"^BM_UdpFanoutBatchShared/", "datagrams_per_syscall", 0.0),
        ],
        # (small run, large run, max cpu_time ratio): both runs come from
        # the same fresh JSON, so machine speed cancels.  A 16x table must
        # not cost more than ~4x per lookup — that is the ring-sorted
        # index's O(log n) promise; a linear scan would blow straight
        # through this (observed ~16x).
        "scaling": [
            ("BM_GreedyNextHop/512", "BM_GreedyNextHop/8192", 4.0),
            # Per-packet crypto cost is bounded by the constant
            # sign/verify, not payload size: sealing/opening a full-MTU
            # frame must cost at most 2x a 64-byte one (measured ~1.1x;
            # a per-byte crypto path — or a payload copy smuggled into
            # the seal — blows straight through this).
            ("BM_SealInPlace/64", "BM_SealInPlace/1400", 2.0),
            ("BM_OpenInPlace/64", "BM_OpenInPlace/1400", 2.0),
        ],
    },
    "churn": {
        "default_baseline": "BENCH_churn_soak.json",
        "zero": [
            (r"^ChurnSoak/", "duplicate_leases"),
            (r"^ChurnSoak/", "lease_losses"),
        ],
        "floor": [
            (r"^ChurnSoak/", "resolution_success_rate", 0.99),
            (r"^ChurnSoak/", "lease_acquired_fraction", 0.99),
        ],
        "baseline_min": [
            (r"^ChurnSoak/", "resolution_success_rate", 0.005),
        ],
        # (name regex, counter): the fresh value must equal the committed
        # baseline's for the same run name and compiler.
        "baseline_equal": [
            (r"^ChurnSoak/", "trace_digest"),
        ],
    },
    # The 10k-node scale soak, fed both the --shards 1 leg
    # (run name ChurnSoak/<N>) and the --shards 4 leg
    # (ChurnSoak/<N>/shards:4).  Same safety invariant (duplicate_leases
    # is exactly 0 — the DHT create() uniqueness guarantee) and the same
    # resolution/acquisition floors — the ^ChurnSoak/ regexes match BOTH
    # legs, so each is gated independently — but lease_losses is a
    # bounded ceiling instead of a strict zero: at 10 % churn/min over
    # 10k nodes a handful of renewals legitimately lose a split-brain
    # dispute to a concurrently re-leased address, and the client
    # re-acquires.  The ceiling keeps that a rare event, not a churn
    # storm.
    #
    # The "equal" rules pin the sharded engine's determinism contract:
    # the 4-shard run must replay the 1-shard run bit for bit, so its
    # event-trace digest and every deterministic counter are identical.
    # The "speedup" rule pins that sharding pays: the 4-shard leg's wall
    # clock must be at most 0.5x the 1-shard leg's (>= 2x speedup).
    # Both legs come from the same runner in the same job, so machine
    # speed cancels out of the ratio.
    "scale": {
        "default_baseline": None,
        "zero": [
            (r"^ChurnSoak/", "duplicate_leases"),
        ],
        "floor": [
            (r"^ChurnSoak/", "resolution_success_rate", 0.99),
            (r"^ChurnSoak/", "lease_acquired_fraction", 0.99),
        ],
        # (name regex, counter, max): fresh must be <= max.
        "ceiling": [
            (r"^ChurnSoak/", "lease_losses", 100),
        ],
        # (base run regex, other run regex, counter): exactly one run
        # must match each regex, and the counter must compare equal
        # (strings included — trace_digest is a sha1 hex).
        "equal": [
            (r"^ChurnSoak/\d+$", r"^ChurnSoak/\d+/shards:4$",
             "trace_digest"),
            (r"^ChurnSoak/\d+$", r"^ChurnSoak/\d+/shards:4$",
             "resolution_success_rate"),
            (r"^ChurnSoak/\d+$", r"^ChurnSoak/\d+/shards:4$",
             "lease_acquired_fraction"),
        ],
        # (base run regex, other run regex, counter, max ratio): the
        # other run's counter must be <= max ratio * the base run's.
        "speedup": [
            (r"^ChurnSoak/\d+$", r"^ChurnSoak/\d+/shards:4$",
             "wall_seconds", 0.5),
        ],
        "baseline_min": [],
    },
    # The hostile-internet soak: 64 nodes, all behind NATs in a
    # full-cone / restricted-cone / port-restricted / symmetric mix,
    # every 8th node on TCP, 10 % churn.  The floors follow RFC 3489
    # punchability physics measured on the committed baseline:
    #   - anything involving a full cone is directly dialable or
    #     trivially punched (measured 0.95-1.0);
    #   - cone-cone pairs punch via simultaneous open (rc-rc measured
    #     0.83: a punch that races an eviction or a symmetric re-dial
    #     falls back to relay, which is correct behavior — hence the
    #     lenient floor);
    #   - rc-sym punches because a restricted cone filters on IP only,
    #     and the symmetric side's fresh mapping still comes from the
    #     same IP (measured 0.92);
    #   - pr-sym and sym-sym CANNOT punch (the port-restricted side
    #     filters on the exact port, which the symmetric NAT rewrites
    #     per destination) — no rate floor, and instead
    #     nonrelayed_sym_sym == 0 pins that every such link went
    #     through the relay fallback rather than silently failing.
    # relayed_edge_fraction caps relay at fallback levels (measured
    # 0.25 with 2/16 of type slots symmetric); relay_wrap_bytes_copied
    # == 0 pins the per-path headroom contract on tunneled sends.
    # The CI job runs two legs through this suite: the attacker-free
    # soak (HostileSoak/<N>) and a --hijack-fraction leg
    # (HostileSoak/<N>/hijack) where a fraction of nodes forge
    # lease/ARP writes; hijacks_succeeded == 0 gates both, and each must
    # reproduce its golden trace digest.
    "hostile": {
        "default_baseline": "BENCH_hostile_soak.json",
        "zero": [
            (r"^HostileSoak/", "duplicate_leases"),
            (r"^HostileSoak/", "nonrelayed_sym_sym"),
            (r"^HostileSoak/", "relay_wrap_bytes_copied"),
            (r"^HostileSoak/", "bytes_copied_per_forward"),
            # Cryptographic ownership: forged lease/ARP writes (validly
            # signed by the attacker, bound to a victim's key) must all
            # be rejected at the storing node.  Every hostile run emits
            # the counter, so the attacker-free leg is pinned to 0 too
            # and the --hijack-fraction leg proves rejection under
            # active attack.
            (r"^HostileSoak/", "hijacks_succeeded"),
        ],
        "floor": [
            (r"^HostileSoak/", "resolution_success_rate", 0.99),
            (r"^HostileSoak/", "lease_acquired_fraction", 0.99),
        ],
        "ceiling": [
            (r"^HostileSoak/", "relayed_edge_fraction", 0.35),
        ],
        # (name regex, counter, floor, guard counter): fresh must be
        # >= floor, but only when the guard counter is present and
        # nonzero — an empty NAT-pair bucket reports a vacuous 1.0
        # that must neither pass nor fail the floor.
        "rate_floor": [
            (r"^HostileSoak/", "punch_success_rate_fc_fc", 0.90,
             "pairs_fc_fc"),
            (r"^HostileSoak/", "punch_success_rate_fc_rc", 0.90,
             "pairs_fc_rc"),
            (r"^HostileSoak/", "punch_success_rate_fc_pr", 0.90,
             "pairs_fc_pr"),
            (r"^HostileSoak/", "punch_success_rate_fc_sym", 0.75,
             "pairs_fc_sym"),
            (r"^HostileSoak/", "punch_success_rate_rc_rc", 0.50,
             "pairs_rc_rc"),
            (r"^HostileSoak/", "punch_success_rate_rc_pr", 0.85,
             "pairs_rc_pr"),
            (r"^HostileSoak/", "punch_success_rate_rc_sym", 0.75,
             "pairs_rc_sym"),
            (r"^HostileSoak/", "punch_success_rate_pr_pr", 0.80,
             "pairs_pr_pr"),
        ],
        "baseline_min": [
            (r"^HostileSoak/", "resolution_success_rate", 0.005),
        ],
        "baseline_equal": [
            (r"^HostileSoak/", "trace_digest"),
        ],
    },
}


def load(path):
    with open(path) as f:
        return json.load(f)


def runs(doc):
    return {
        b["name"]: b
        for b in doc.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }


def check(suite, fresh_doc, baseline_doc, skipped=None):
    """Returns a list of failure strings (empty = gate passes); runs a
    baseline_equal rule did not compare are appended to `skipped`."""
    failures = []
    skipped = [] if skipped is None else skipped
    fresh = runs(fresh_doc)
    baseline = runs(baseline_doc) if baseline_doc else {}

    def matching(rules_name_re):
        return [(n, b) for n, b in fresh.items() if re.search(rules_name_re, n)]

    for name_re, counter in suite["zero"]:
        matched = matching(name_re)
        if not matched:
            failures.append(f"no benchmark matches {name_re} (bench deleted?)")
            continue
        for name, bench in matched:
            value = bench.get(counter)
            if value is None:
                failures.append(f"{name}: counter {counter} missing")
            elif value != 0:
                failures.append(
                    f"{name}: {counter} = {value} (must be exactly 0)")

    for name_re, counter, floor in suite["floor"]:
        for name, bench in matching(name_re):
            value = bench.get(counter)
            if value is None:
                failures.append(f"{name}: counter {counter} missing")
            elif value < floor:
                failures.append(f"{name}: {counter} = {value} < floor {floor}")

    for name_re, counter, cap in suite.get("ceiling", ()):
        for name, bench in matching(name_re):
            value = bench.get(counter)
            if value is None:
                failures.append(f"{name}: counter {counter} missing")
            elif value > cap:
                failures.append(f"{name}: {counter} = {value} > ceiling {cap}")

    for name_re, counter, floor, guard in suite.get("rate_floor", ()):
        for name, bench in matching(name_re):
            population = bench.get(guard)
            if population is None:
                failures.append(f"{name}: guard counter {guard} missing")
                continue
            if population == 0:
                continue  # empty bucket: the rate is vacuous, not gated
            value = bench.get(counter)
            if value is None:
                failures.append(f"{name}: counter {counter} missing")
            elif value < floor:
                failures.append(
                    f"{name}: {counter} = {value} < floor {floor} "
                    f"(over {population} pairs)")

    for small_name, large_name, max_ratio in suite.get("scaling", ()):
        small, large = fresh.get(small_name), fresh.get(large_name)
        if small is None or large is None:
            failures.append(
                f"scaling rule {small_name} vs {large_name}: run missing "
                "(bench args trimmed?)")
            continue
        st, lt = small.get("cpu_time"), large.get("cpu_time")
        if not st or lt is None:
            failures.append(
                f"scaling rule {small_name} vs {large_name}: cpu_time missing")
        elif lt > st * max_ratio:
            failures.append(
                f"{large_name}: cpu_time {lt:.1f} > {max_ratio}x "
                f"{small_name} ({st:.1f}) — lookup no longer scales "
                "logarithmically")

    def single(name_re, rule_desc):
        matched = matching(name_re)
        if len(matched) != 1:
            failures.append(
                f"{rule_desc}: expected exactly one run matching {name_re}, "
                f"got {len(matched)} (soak leg missing or renamed?)")
            return None
        return matched[0]

    for base_re, other_re, counter in suite.get("equal", ()):
        desc = f"equal rule on {counter}"
        base, other = single(base_re, desc), single(other_re, desc)
        if base is None or other is None:
            continue
        bv, ov = base[1].get(counter), other[1].get(counter)
        if bv is None or ov is None:
            failures.append(f"{desc}: counter missing "
                            f"({base[0]}: {bv!r}, {other[0]}: {ov!r})")
        elif bv != ov:
            failures.append(
                f"{other[0]}: {counter} = {ov!r} != {base[0]}'s {bv!r} "
                "(shard legs must replay bit-for-bit)")

    for base_re, other_re, counter, max_ratio in suite.get("speedup", ()):
        desc = f"speedup rule on {counter}"
        base, other = single(base_re, desc), single(other_re, desc)
        if base is None or other is None:
            continue
        bv, ov = base[1].get(counter), other[1].get(counter)
        if not bv or ov is None:
            failures.append(f"{desc}: counter missing or zero "
                            f"({base[0]}: {bv!r}, {other[0]}: {ov!r})")
        elif ov > bv * max_ratio:
            failures.append(
                f"{other[0]}: {counter} {ov:.3f} > {max_ratio}x "
                f"{base[0]} ({bv:.3f}) — sharding no longer pays "
                "for itself")

    for name_re, counter, tolerance in suite["baseline_min"]:
        for name, bench in matching(name_re):
            base = baseline.get(name)
            if base is None or counter not in base:
                continue  # no committed reference for this run/counter
            value = bench.get(counter)
            if value is None:
                failures.append(f"{name}: counter {counter} missing")
            elif value < base[counter] - tolerance:
                failures.append(
                    f"{name}: {counter} regressed to {value} "
                    f"(baseline {base[counter]}, tolerance {tolerance})")

    for name_re, counter in suite.get("baseline_equal", ()):
        for name, bench in matching(name_re):
            base = baseline.get(name)
            if base is None:
                skipped.append(f"{name}: {counter} not compared, the "
                               "baseline has no run of that name")
                continue
            if bench.get("compiler") != base.get("compiler"):
                skipped.append(
                    f"{name}: {counter} not compared, built by "
                    f"{bench.get('compiler')!r} but the baseline by "
                    f"{base.get('compiler')!r}")
                continue
            value, want = bench.get(counter), base.get(counter)
            if value is None or want is None:
                failures.append(f"{name}: counter {counter} missing "
                                f"(fresh {value!r}, baseline {want!r})")
            elif value != want:
                failures.append(
                    f"{name}: {counter} = {value!r} != baseline {want!r} "
                    "(behaviour changed: regenerate the baseline and say "
                    "why, or find the divergence)")

    return failures


def self_test(suite, fresh_doc, baseline_doc):
    """The gate must fail when a gated counter is deliberately regressed."""
    clean = check(suite, fresh_doc, baseline_doc)
    if clean:
        print("self-test inconclusive: gate already failing:", file=sys.stderr)
        for f in clean:
            print(f"  {f}", file=sys.stderr)
        return 1

    def regress(counter_re, counter, value):
        doc = copy.deepcopy(fresh_doc)
        for b in doc["benchmarks"]:
            if re.search(counter_re, b["name"]) and counter in b:
                b[counter] = value
                break
        return doc

    # Regress every zero-rule counter on its first matching benchmark.
    for name_re, counter in suite["zero"]:
        if not check(suite, regress(name_re, counter, 1456.0), baseline_doc):
            print(f"self-test FAILED: regressed {counter} on {name_re} "
                  "was not caught", file=sys.stderr)
            return 1

    # Drop every floored counter below its floor.
    for name_re, counter, floor in suite["floor"]:
        if not check(suite, regress(name_re, counter, floor * 0.5),
                     baseline_doc):
            print(f"self-test FAILED: regressed {counter} on {name_re} "
                  "was not caught", file=sys.stderr)
            return 1

    # Push every ceilinged counter past its cap.
    for name_re, counter, cap in suite.get("ceiling", ()):
        if not check(suite, regress(name_re, counter, cap + 1), baseline_doc):
            print(f"self-test FAILED: regressed {counter} on {name_re} "
                  "was not caught", file=sys.stderr)
            return 1

    # Drop every guarded rate below its floor (only conclusive when the
    # guard bucket is populated in the fresh run), then verify the guard
    # itself: a regressed rate over an EMPTY bucket must NOT fail the
    # gate — that is the rule's defining semantic.
    for name_re, counter, floor, guard in suite.get("rate_floor", ()):
        populated = any(b.get(guard) for _n, b in runs(fresh_doc).items()
                        if re.search(name_re, _n))
        if populated:
            if not check(suite, regress(name_re, counter, floor * 0.5),
                         baseline_doc):
                print(f"self-test FAILED: regressed {counter} on {name_re} "
                      "was not caught", file=sys.stderr)
                return 1
        vacuous = regress(name_re, counter, 0.0)
        for b in vacuous["benchmarks"]:
            if re.search(name_re, b["name"]) and guard in b:
                b[guard] = 0
                break
        if check(suite, vacuous, baseline_doc):
            print(f"self-test FAILED: {counter} on {name_re} gated an "
                  "empty bucket (guard not honored)", file=sys.stderr)
            return 1

    # Blow the large run's cpu_time past every scaling ratio.
    for small_name, large_name, max_ratio in suite.get("scaling", ()):
        doc = copy.deepcopy(fresh_doc)
        for b in doc["benchmarks"]:
            if b["name"] == large_name and "cpu_time" in b:
                b["cpu_time"] = b["cpu_time"] * max_ratio * 100.0
                break
        if not check(suite, doc, baseline_doc):
            print(f"self-test FAILED: {large_name} scaling blow-up "
                  "was not caught", file=sys.stderr)
            return 1

    # Flip every equality-pinned counter on the non-base leg: a digest
    # or counter drift between shard legs must be caught.  The regressed
    # value keeps the counter's type (and stays above any floor) so only
    # the equal rule can be the one that fires.
    for _base_re, other_re, counter in suite.get("equal", ()):
        doc = copy.deepcopy(fresh_doc)
        for b in doc["benchmarks"]:
            if re.search(other_re, b["name"]) and counter in b:
                b[counter] = ("0xdeadbeef" if isinstance(b[counter], str)
                              else b[counter] + 1456.0)
                break
        if not check(suite, doc, baseline_doc):
            print(f"self-test FAILED: diverged {counter} on {other_re} "
                  "was not caught", file=sys.stderr)
            return 1

    # Blow the sharded leg's wall clock past every speedup ratio.
    for _base_re, other_re, counter, _max_ratio in suite.get("speedup", ()):
        if not check(suite, regress(other_re, counter, 1.0e12),
                     baseline_doc):
            print(f"self-test FAILED: regressed {counter} on {other_re} "
                  "was not caught", file=sys.stderr)
            return 1

    # Regress baseline-relative counters beyond their tolerance (only
    # conclusive when the committed baseline actually names this run).
    for name_re, counter, tolerance in suite["baseline_min"]:
        base_runs = runs(baseline_doc) if baseline_doc else {}
        if not any(re.search(name_re, n) and counter in b
                   for n, b in base_runs.items()):
            continue
        if not check(suite, regress(name_re, counter, -1.0), baseline_doc):
            print(f"self-test FAILED: regressed {counter} on {name_re} "
                  "was not caught", file=sys.stderr)
            return 1

    # Flip one character of every golden-pinned counter on a run the
    # baseline can compare (same name and compiler): the gate must fail.
    # The same flip on a run that claims another compiler must be skipped,
    # not failed.
    base_runs = runs(baseline_doc) if baseline_doc else {}
    flip_tested = False
    for name_re, counter in suite.get("baseline_equal", ()):
        for name, bench in runs(fresh_doc).items():
            base = base_runs.get(name)
            if not re.search(name_re, name) or base is None:
                continue
            value = str(bench.get(counter, ""))
            flipped = value[:-1] + ("0" if value[-1:] != "0" else "1")

            def mutated(compiler):
                doc = copy.deepcopy(fresh_doc)
                for b in doc["benchmarks"]:
                    if b["name"] == name:
                        b[counter] = flipped
                        b["compiler"] = compiler
                return doc

            if bench.get("compiler") == base.get("compiler"):
                flip_tested = True
                if not check(suite, mutated(base.get("compiler")),
                             baseline_doc):
                    print(f"self-test FAILED: flipped {counter} on {name} "
                          "was not caught", file=sys.stderr)
                    return 1
            other = f"not-{base.get('compiler')}"
            if check(suite, mutated(other), baseline_doc):
                print(f"self-test FAILED: {counter} on {name} was compared "
                      f"across compilers ({other!r} vs "
                      f"{base.get('compiler')!r})", file=sys.stderr)
                return 1

    if suite.get("baseline_equal") and not flip_tested:
        print("self-test note: no fresh run shares a name and compiler with "
              "the baseline, so the golden-digest flip was not exercised")
    print("self-test OK: gate fails on deliberately regressed counters")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("fresh", nargs="+",
                    help="bench JSON from this run; several files are "
                         "merged into one run table (scale suite: pass "
                         "the --shards 1 and --shards 4 legs together)")
    ap.add_argument("--suite", choices=sorted(SUITES), default="micro",
                    help="rule set to apply (default: %(default)s)")
    ap.add_argument("--baseline", default=None,
                    help="committed reference JSON "
                         "(default: the suite's committed file)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate catches regressed counters")
    args = ap.parse_args()

    suite = SUITES[args.suite]
    baseline_path = args.baseline or suite["default_baseline"]

    fresh_doc = load(args.fresh[0])
    for extra in args.fresh[1:]:
        fresh_doc.setdefault("benchmarks", []).extend(
            load(extra).get("benchmarks", []))
    baseline_doc = None
    if baseline_path is not None:
        try:
            baseline_doc = load(baseline_path)
        except FileNotFoundError:
            print(f"warning: baseline {baseline_path} not found; "
                  "baseline-relative rules skipped", file=sys.stderr)

    if args.self_test:
        sys.exit(self_test(suite, fresh_doc, baseline_doc))

    skipped = []
    failures = check(suite, fresh_doc, baseline_doc, skipped)
    for note in skipped:
        print(f"  skipped {note}")
    if failures:
        print(f"bench gate FAILED ({args.suite}):")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print(f"bench gate OK ({args.suite}): invariants hold, "
          "no key-counter regressions")


if __name__ == "__main__":
    main()
