//! End-to-end harness tests: the honest seed bank, execution
//! determinism, and the injected-bug detection pipeline (catch →
//! minimize → persist → replay).

use zugchain_chaos::{
    execute, minimize, parse_repro, run_seed, write_repro, ByzBehavior, ChaosPlan, NetPlan,
    ViolationKind,
};
use zugchain_pbft::{AuthMode, CommMode};
use zugchain_telemetry::{parse_jsonl, JsonValue, ParsedRecord, Stage};

/// Seeds checked on every `cargo test`. The extended bank (see
/// `honest_seed_bank_extended`) and the CI `chaos-smoke` job cover
/// hundreds more in release mode; EXPERIMENTS.md records the
/// convention.
const SEED_BANK: u64 = 24;

#[test]
fn honest_seed_bank_has_no_violations() {
    for seed in 0..SEED_BANK {
        let (plan, outcome) = run_seed(seed, false);
        assert!(
            outcome.violation.is_none(),
            "seed {seed} violated an invariant: {}\nplan: {plan:#?}",
            outcome.violation.unwrap(),
        );
        // Untouched majorities must actually make progress, otherwise
        // the invariant checks are vacuous.
        assert!(outcome.blocks_created > 0, "seed {seed} created no blocks");
        assert!(
            outcome.delivered_messages > 0,
            "seed {seed} delivered no messages"
        );
    }
}

/// Release-mode deep sweep (`cargo test --release -- --ignored`): the
/// acceptance target is 500+ seeds in under a minute.
#[test]
#[ignore = "release-mode sweep; run explicitly or via the chaos-smoke CI job"]
fn honest_seed_bank_extended() {
    for seed in 0..500 {
        let (_, outcome) = run_seed(seed, false);
        assert!(
            outcome.violation.is_none(),
            "seed {seed} violated an invariant: {}",
            outcome.violation.unwrap(),
        );
    }
}

/// The batched protocol under the same invariant battery: every seed is
/// forced onto `max_batch_size > 1`, and I1–I8 must hold for every
/// request *inside* each batch (the invariant hooks observe per-request
/// decides, so one bad unpacking shows up as a decide conflict or a
/// liveness loss).
#[test]
fn batched_seed_bank_has_no_violations() {
    for seed in 0..SEED_BANK {
        let plan = ChaosPlan::generate(seed).with_max_batch_size(2 + (seed as usize % 15));
        let outcome = execute(&plan);
        assert!(
            outcome.violation.is_none(),
            "seed {seed} (batch {}) violated an invariant: {}\nplan: {plan:#?}",
            plan.max_batch_size,
            outcome.violation.unwrap(),
        );
        assert!(outcome.blocks_created > 0, "seed {seed} created no blocks");
    }
}

/// The 128-seed batched smoke sweep the chaos-smoke CI job runs in
/// release mode.
#[test]
#[ignore = "release-mode sweep; run explicitly or via the chaos-smoke CI job"]
fn batched_seed_bank_extended() {
    for seed in 0..128 {
        let plan = ChaosPlan::generate(seed).with_max_batch_size(2 + (seed as usize % 15));
        let outcome = execute(&plan);
        assert!(
            outcome.violation.is_none(),
            "seed {seed} (batch {}) violated an invariant: {}",
            plan.max_batch_size,
            outcome.violation.unwrap(),
        );
    }
}

/// The same seeds pinned to *both* auth modes: the invariant battery
/// I1–I8 must hold under signatures and under session MACs, and —
/// because the schedules are drawn before the auth axis — every seed
/// runs the identical fault schedule in both modes.
#[test]
fn seed_bank_holds_invariants_in_both_auth_modes() {
    let mut mac_runs = 0;
    let mut forge_mac_runs = 0;
    for seed in 0..SEED_BANK {
        for mode in [AuthMode::Sig, AuthMode::MacWithSigFallback] {
            let plan = ChaosPlan::generate(seed).with_auth_mode(mode);
            if mode == AuthMode::MacWithSigFallback {
                mac_runs += 1;
                if plan
                    .byzantine
                    .iter()
                    .any(|b| b.behavior == ByzBehavior::ForgeMac)
                {
                    forge_mac_runs += 1;
                }
            }
            let outcome = execute(&plan);
            assert!(
                outcome.violation.is_none(),
                "seed {seed} ({mode:?}) violated an invariant: {}\nplan: {plan:#?}",
                outcome.violation.unwrap(),
            );
            assert!(
                outcome.blocks_created > 0,
                "seed {seed} ({mode:?}) created no blocks"
            );
        }
    }
    assert!(mac_runs > 0);
    // The generator really deals the MAC-forging behaviour (the seed
    // bank must exercise rejected forgeries, not only honest tags).
    assert!(
        forge_mac_runs > 0,
        "no ForgeMac assignment in {mac_runs} MAC-mode seeds"
    );
}

/// The same seeds pinned to *both* comm modes: the invariant battery
/// I1–I8 must hold under the all-to-all exchange and under the linear
/// collector fast path, and — because every schedule draw precedes the
/// comm axis — each seed runs the identical fault schedule in both
/// modes.
#[test]
fn seed_bank_holds_invariants_in_both_comm_modes() {
    let mut collector_attacks = 0;
    for seed in 0..SEED_BANK {
        for mode in [CommMode::AllToAll, CommMode::Collector] {
            let plan = ChaosPlan::generate(seed).with_comm_mode(mode);
            if mode == CommMode::Collector
                && plan.byzantine.iter().any(|b| {
                    matches!(
                        b.behavior,
                        ByzBehavior::ForgeCert | ByzBehavior::CollectorSilent
                    )
                })
            {
                collector_attacks += 1;
            }
            let outcome = execute(&plan);
            assert!(
                outcome.violation.is_none(),
                "seed {seed} ({mode:?}) violated an invariant: {}\nplan: {plan:#?}",
                outcome.violation.unwrap(),
            );
            assert!(
                outcome.blocks_created > 0,
                "seed {seed} ({mode:?}) created no blocks"
            );
        }
    }
    // The generator must actually deal attacks on the fast path itself
    // (forged certificates, swallowed certificates), not only honest
    // collectors.
    assert!(
        collector_attacks > 0,
        "no collector attack dealt across the seed bank"
    );
}

/// A certificate-forging collector on a quiet baseline: honest
/// receivers reject every forged inner signature, fall back to the
/// all-to-all exchange, and every invariant holds.
#[test]
fn forged_certificates_are_rejected_and_safety_holds() {
    let mut plan = honest_baseline(56, 8).with_comm_mode(CommMode::Collector);
    plan.byzantine = vec![zugchain_chaos::plan::ByzPlan {
        node: 2,
        behavior: ByzBehavior::ForgeCert,
    }];
    let outcome = execute(&plan);
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(outcome.blocks_created > 0, "no blocks");
}

/// A certificate-swallowing collector on a quiet baseline: the
/// per-phase fallback timers re-broadcast votes all-to-all, so the
/// cluster keeps deciding and every invariant holds.
#[test]
fn silent_collector_is_survived_and_safety_holds() {
    let mut plan = honest_baseline(57, 8).with_comm_mode(CommMode::Collector);
    plan.byzantine = vec![zugchain_chaos::plan::ByzPlan {
        node: 1,
        behavior: ByzBehavior::CollectorSilent,
    }];
    let outcome = execute(&plan);
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(outcome.blocks_created > 0, "no blocks");
}

/// A MAC-forging Byzantine node on a quiet baseline: honest receivers
/// drop every forged message, so the node looks silent — the untouched
/// majority keeps deciding and every invariant holds.
#[test]
fn forged_macs_are_dropped_and_safety_holds() {
    for mode in [AuthMode::Sig, AuthMode::MacWithSigFallback] {
        let mut plan = honest_baseline(55, 8).with_auth_mode(mode);
        plan.byzantine = vec![zugchain_chaos::plan::ByzPlan {
            node: 2,
            behavior: ByzBehavior::ForgeMac,
        }];
        let outcome = execute(&plan);
        assert!(
            outcome.violation.is_none(),
            "{mode:?}: {:?}",
            outcome.violation
        );
        assert!(outcome.blocks_created > 0, "{mode:?}: no blocks");
    }
}

#[test]
fn execution_is_deterministic() {
    for seed in [3, 11, 17] {
        let (_, first) = run_seed(seed, false);
        let (_, second) = run_seed(seed, false);
        assert_eq!(first.decided, second.decided, "seed {seed}");
        assert_eq!(first.max_view, second.max_view, "seed {seed}");
        assert_eq!(first.blocks_created, second.blocks_created, "seed {seed}");
        assert_eq!(
            first.delivered_messages, second.delivered_messages,
            "seed {seed}"
        );
    }
}

/// A quiet, fault-free baseline plan the mutation tests build on.
fn honest_baseline(seed: u64, n_ops: usize) -> ChaosPlan {
    ChaosPlan {
        seed,
        n_nodes: 4,
        block_size: 2,
        ops: (0..n_ops)
            .map(|i| zugchain_chaos::plan::OpPlan {
                at_ms: 20 + 40 * i as u64,
                size: 32,
            })
            .collect(),
        max_batch_size: 1,
        batch_delay_ms: 0,
        crashes: Vec::new(),
        partition: None,
        prepare_loss: None,
        byzantine: Vec::new(),
        exports: Vec::new(),
        net: NetPlan::RELIABLE,
        auth_mode: AuthMode::Sig,
        comm_mode: CommMode::AllToAll,
        mutation: false,
    }
}

#[test]
fn honest_baseline_passes() {
    let outcome = execute(&honest_baseline(99, 8));
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(outcome.blocks_created > 0);
}

/// I8 must actually run, not pass vacuously: an export round over an
/// honest run feeds the data centers' juridical archives, every
/// certified segment ingests cleanly, and its sampled audit bundles
/// verify offline (any failure surfaces as an `archive-audit`
/// violation).
#[test]
fn export_rounds_feed_the_juridical_archives() {
    let mut plan = honest_baseline(77, 8);
    plan.exports = vec![
        zugchain_chaos::plan::ExportPlan {
            at_ms: 250,
            dc: 0,
            blocks_from: 1,
        },
        zugchain_chaos::plan::ExportPlan {
            at_ms: 420,
            dc: 1,
            blocks_from: 2,
        },
    ];
    let outcome = execute(&plan);
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(outcome.exported_blocks > 0, "export rounds moved no blocks");
    assert!(
        outcome.archived_segments > 0,
        "no certified segment reached an archive — I8 never ran"
    );
}

/// The acceptance-gate test: arm the `mutation-hooks` equivocation bug
/// on the initial primary, catch it as a safety violation, minimize the
/// failing schedule, persist the repro file, parse it back, and replay
/// it — deterministically, twice.
#[test]
fn injected_equivocation_bug_is_caught_minimized_and_replayed() {
    // 1. Catch: the bug makes node 0 send a conflicting preprepare to
    //    one victim; the outbound-frame observer must flag it.
    let plan = honest_baseline(4242, 8).with_mutation();
    let outcome = execute(&plan);
    let violation = outcome.violation.expect("armed bug must be caught");
    assert_eq!(violation.kind, ViolationKind::Equivocation);

    // 1b. The trace rings must tell the same story: every node's dump
    //     parses back as JSONL and ends with the violation mark, and
    //     the buggy primary's tail shows the equivocating sends that
    //     tripped the invariant.
    assert_eq!(outcome.traces.len(), plan.n_nodes);
    let dumps: Vec<Vec<ParsedRecord>> = outcome
        .traces
        .iter()
        .enumerate()
        .map(|(node, trace)| {
            parse_jsonl(trace)
                .unwrap_or_else(|e| panic!("node {node} trace is not valid JSONL: {e}"))
        })
        .collect();
    for (node, records) in dumps.iter().enumerate() {
        assert!(!records.is_empty(), "node {node} trace is empty");
        let last = records.last().unwrap();
        assert_eq!(
            last.kind(),
            Some("mark"),
            "node {node} trace must end in the violation mark"
        );
        let label = last
            .field("label")
            .and_then(JsonValue::as_str)
            .expect("mark has a label");
        assert!(
            label.contains("equivocation"),
            "node {node} mark does not name the violation: {label}"
        );
    }
    let primary_trace = &dumps[0];
    assert!(
        primary_trace
            .iter()
            .rev()
            .any(|r| r.kind() == Some("effect")
                && r.field("effect").and_then(JsonValue::as_str) == Some("send")),
        "buggy primary's tail must show the equivocating per-peer sends"
    );

    // 1c. The same dumps carry the causal record of what the Byzantine
    //     primary itself did at the violating slot: its own batch_flush
    //     span at that sn, parented on the origin's submit span.
    let sn: u64 = violation
        .detail
        .split_once(", sn ")
        .and_then(|(_, rest)| rest.split_once(')'))
        .and_then(|(sn, _)| sn.parse().ok())
        .expect("an equivocation names its sn");
    let flush = primary_trace
        .iter()
        .filter_map(ParsedRecord::span)
        .find(|s| s.stage == Stage::BatchFlush && s.node == 0 && s.sn == sn)
        .unwrap_or_else(|| panic!("primary's dump must hold its batch_flush at sn {sn}"));
    assert!(
        dumps
            .iter()
            .flatten()
            .filter_map(ParsedRecord::span)
            .any(|s| s.stage == Stage::Submit && s.span_id == flush.parent_span),
        "batch_flush at sn {sn} must chain back to the origin's submit"
    );

    // 2. Minimize: a single op suffices to trigger a primary proposal,
    //    so the schedule must shrink to one.
    let minimized = minimize(&plan, violation.kind, 100);
    assert!(minimized.ops.len() <= 1, "minimized: {minimized:#?}");
    assert!(minimized.crashes.is_empty());
    assert!(minimized.exports.is_empty());

    // 3. Persist + parse back.
    let repro = write_repro(&minimized, violation.kind);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("chaos-repro-{}.ron", minimized.seed));
    std::fs::write(&path, &repro).expect("write repro file");
    let text = std::fs::read_to_string(&path).expect("read repro file");
    let (replay_plan, expected_kind) = parse_repro(&text).expect("parse repro file");
    assert_eq!(replay_plan, minimized);
    assert_eq!(expected_kind, ViolationKind::Equivocation);

    // 4. Replay, twice: same violation kind, same detail, same time.
    let first = execute(&replay_plan).violation.expect("replay reproduces");
    let second = execute(&replay_plan).violation.expect("replay reproduces");
    assert_eq!(first.kind, ViolationKind::Equivocation);
    assert_eq!(first, second, "replay must be deterministic");

    let _ = std::fs::remove_file(&path);
}

/// The bug must also be caught under full generated chaos (not just the
/// quiet baseline), as long as node 0 is neither crashed before it can
/// propose nor wrapped as Byzantine (which would exempt it from the
/// honest-node tripwire).
#[test]
fn injected_bug_is_caught_under_generated_chaos() {
    let mut caught = 0;
    let mut eligible = 0;
    for seed in 0..40u64 {
        let plan = ChaosPlan::generate(seed);
        let node0_clean = !plan.byzantine.iter().any(|b| b.node == 0)
            && !plan.crashes.iter().any(|c| c.node == 0)
            && plan
                .partition
                .as_ref()
                .is_none_or(|p| !p.island.contains(&0));
        if !node0_clean {
            continue;
        }
        eligible += 1;
        let outcome = execute(&plan.with_mutation());
        if let Some(v) = outcome.violation {
            assert_eq!(v.kind, ViolationKind::Equivocation, "seed {seed}");
            caught += 1;
        }
    }
    assert!(eligible > 0, "no eligible seeds in range");
    assert_eq!(
        caught, eligible,
        "equivocation must be caught on every eligible seed"
    );
}
