//! Fleet golden snapshot: one small, fully pinned fleet run is rendered as
//! its deterministic fold plus the sampled JSONL timelines and
//! byte-compared against a checked-in fixture. The shard-count and
//! repeat-run gates only compare a build against itself; this pins the
//! fleet's exact output across commits, so a refactor of the member
//! pipeline that perturbs one packet, RNG draw or trace record shows up
//! here as a diff.
//!
//! To regenerate after an *intentional* change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p converge-integration --test fleet_golden
//! ```
//!
//! then review the fixture diff like any other code change.

use converge_net::SimDuration;
use converge_sim::{FleetConfig, FleetEngine};

/// Renders the pinned fleet: 6 sessions in two 3-member conferences
/// behind a 6 Mbps ingress (so ingress drops, NACKs, FEC recovery and
/// SBD regrouping all contribute), the first conference traced, 2.5 s,
/// seed 7.
fn render_golden() -> String {
    let mut cfg = FleetConfig::new(6, 3);
    cfg.duration = SimDuration::from_millis(2_500);
    cfg.bottleneck_ingress_bps = 6_000_000;
    cfg.seed = 7;
    cfg.sbd = true;
    cfg.trace_conferences = 1;
    let report = FleetEngine::new(cfg).run();
    assert!(!report.sampled_traces.is_empty(), "golden fleet must trace a conference");
    let mut out = report.fold_text();
    for (_, doc) in &report.sampled_traces {
        out.push_str(doc);
    }
    out
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("fleet_golden.txt")
}

#[test]
fn fleet_golden_matches_checked_in_fixture() {
    let rendered = render_golden();
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write fixture");
        eprintln!("fleet golden fixture regenerated at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if rendered != expected {
        let diverged = rendered
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .map(|i| {
                let got = rendered.lines().nth(i).unwrap_or("<eof>");
                let want = expected.lines().nth(i).unwrap_or("<eof>");
                format!("first divergence at line {}:\n  got:  {got}\n  want: {want}", i + 1)
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: got {}, want {}",
                    rendered.lines().count(),
                    expected.lines().count()
                )
            });
        panic!(
            "fleet golden drifted from {} — {diverged}\n\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1 \
             and review the fixture diff.",
            path.display()
        );
    }
}
