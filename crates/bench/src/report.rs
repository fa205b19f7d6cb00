//! Experiment output: markdown to stdout, CSV into `results/`.

use moqdns_core::metrics::TierRelayStats;
use moqdns_stats::Table;
use std::path::PathBuf;

/// Workspace-level `results/` directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results")
}

/// Prints the table as markdown and writes `results/<name>.csv`.
pub fn emit(table: &Table, name: &str) {
    println!("{}", table.to_markdown());
    let path = results_dir().join(format!("{name}.csv"));
    if let Err(e) = table.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[csv] {}\n", path.display());
    }
}

/// Prints a section heading.
pub fn heading(title: &str) {
    println!("\n== {title} ==\n");
}

/// Per-tier relay stats as a table, one row per tier, with the named
/// `columns` (`"tier"`, `"relays"`, `"down subs"`, `"up subs (live)"`,
/// `"objects fwd"`, `"cache hit"`, `"cache miss"`/`"fetch miss"`,
/// `"coalesced"`, `"up fetches"`, `"waiters served"`, `"reroutes"`,
/// `"rebalances"`, `"peer fetches"`, `"peer objects"`, `"origin offload"`,
/// `"redials"`, `"failed dials"`, `"agg factor"`).
pub fn tier_table(title: impl Into<String>, tiers: &[TierRelayStats], columns: &[&str]) -> Table {
    let mut table = Table::new(title, columns);
    for t in tiers {
        let s = &t.totals;
        let row: Vec<String> = columns
            .iter()
            .map(|&c| match c {
                "tier" => t.tier.clone(),
                "relays" => t.relays.to_string(),
                "down subs" => s.downstream_subscribes.to_string(),
                "up subs (live)" => t.upstream_subscriptions.to_string(),
                "objects fwd" => s.objects_forwarded.to_string(),
                "cache hit" => s.fetch_cache_hits.to_string(),
                "cache miss" | "fetch miss" => s.fetch_cache_misses.to_string(),
                "coalesced" => s.fetch_coalesced.to_string(),
                "up fetches" => s.upstream_fetches.to_string(),
                "waiters served" => s.fetch_waiters_served.to_string(),
                "reroutes" => s.reroutes.to_string(),
                "rebalances" => s.rebalances.to_string(),
                "peer fetches" => s.peer_fetches.to_string(),
                "peer objects" => s.peer_objects.to_string(),
                "origin offload" => s.origin_offload.to_string(),
                "redials" => s.redials.to_string(),
                "failed dials" => s.failed_dials.to_string(),
                "agg factor" => format!("{:.1}", t.aggregation_factor()),
                other => panic!("unknown tier column `{other}`"),
            })
            .collect();
        table.push(&row);
    }
    table
}
