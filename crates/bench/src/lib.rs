//! # moqdns-bench
//!
//! The experiment harness: one binary per paper figure or claim (each
//! binary's doc comment says what it reproduces and which invariants it
//! gates; `run_all` runs E1–E10 and A1–A3 in sequence) plus Criterion
//! micro-benchmarks. This library holds what the binaries share:
//!
//! * [`worlds::RelayWorld`] — the one simulated relay tree (auth → relay
//!   tiers → stubs) behind every gated tree-family scenario. It is built
//!   from a [`RelayTreeSpec`](moqdns_workload::scenarios::RelayTreeSpec)
//!   preset — `ddns_tree`, `cdn_tree`, `mesh`, `federation`, `metro`,
//!   `planet`, `chaos`, `adversarial`, `chain`, `ddns`, `relay_fanout`,
//!   each with a CI `.smoke()` variant — single-threaded or region-sharded
//!   with a bit-identical event history. Its verbs (update a track or a
//!   round, crash or restart a node, attach an edge with a stub cohort,
//!   sum stub counters over a node set, per-tier stats) exist once; each
//!   binary composes them into its own gates;
//! * [`worlds::World`] — the E1–E9 resolution hierarchy (root → TLD →
//!   auth, recursive, stubs);
//! * [`cli`], [`gate`] and [`report`] — the shared `--smoke --check --par
//!   --json` flags, the invariant gate behind `--check`, and table/CSV
//!   output.

pub mod cli;
pub mod gate;
pub mod report;
pub mod worlds;
