//! End-to-end checks of the call-graph rules (`rng-leak`, `epoch-drift`,
//! `unordered-iteration`) against the fixture mini-workspaces under
//! `tests/fixtures/epoch_good/` and `tests/fixtures/epoch_bad/`.

use std::path::PathBuf;

use topple_lint::config::{Config, Severity};
use topple_lint::{epoch, lex_workspace, lint_workspace};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The lexical `hash-iter` rule intentionally overlaps the cross-statement
/// `unordered-iteration` check (it flags the collect itself); silence it so
/// these tests isolate the graph rules. `unordered-iteration` is escalated
/// the way `lint.toml` escalates it for result-path crates.
fn graph_config() -> Config {
    Config::parse(
        "[default]\nhash-iter = \"allow\"\n\n\
         [crate.fixture-sim]\nunordered-iteration = \"deny\"\n",
    )
    .expect("config is valid")
}

#[test]
fn good_workspace_is_silent_on_graph_rules() {
    let report =
        lint_workspace(&fixture_root("epoch_good"), &graph_config()).expect("workspace lints");
    let graph: Vec<_> = report
        .findings
        .iter()
        .filter(|f| matches!(f.rule, "rng-leak" | "epoch-drift" | "unordered-iteration"))
        .collect();
    assert!(
        graph.is_empty(),
        "known-good workspace tripped graph rules: {graph:?}"
    );
}

#[test]
fn bad_workspace_trips_all_three_graph_rules() {
    let report =
        lint_workspace(&fixture_root("epoch_bad"), &graph_config()).expect("workspace lints");

    let leak = report
        .findings
        .iter()
        .find(|f| f.rule == "rng-leak")
        .expect("unreachable RNG consumer must be flagged");
    assert!(
        leak.message.contains("side_channel"),
        "wrong function flagged: {leak:?}"
    );
    assert_eq!(
        leak.severity,
        Severity::Deny,
        "rng-leak must deny: {leak:?}"
    );

    let drift = report
        .findings
        .iter()
        .find(|f| f.rule == "epoch-drift")
        .expect("extra draw must surface as epoch-drift");
    assert!(
        drift.message.contains("simulate_day_into"),
        "drift must name the changed site: {drift:?}"
    );
    assert_eq!(drift.severity, Severity::Deny);
    assert!(
        drift.file.ends_with("lib.rs"),
        "changed sites anchor at the function: {drift:?}"
    );

    let unordered = report
        .findings
        .iter()
        .find(|f| f.rule == "unordered-iteration")
        .expect("unsorted hash-order consumption must be flagged");
    assert!(
        unordered.message.contains("picked"),
        "must name the collected binding: {unordered:?}"
    );
    assert_eq!(
        unordered.severity,
        Severity::Deny,
        "config escalates unordered-iteration for fixture-sim"
    );
}

#[test]
fn emitted_manifest_round_trips_against_the_good_fixture() {
    let root = fixture_root("epoch_good");
    let files = lex_workspace(&root).expect("workspace lexes");
    let analysis = epoch::analyze(&files);
    assert!(analysis.roots_found, "fixture must define both roots");
    assert_eq!(analysis.epoch_const, Some(1));
    assert_eq!(
        analysis.contracts(),
        [epoch::Contract::Traffic],
        "fixture without a generator has only the traffic contract"
    );

    let computed = epoch::Manifest::from_analysis(&analysis, epoch::Contract::Traffic);
    let pinned = epoch::Manifest::load(&root, epoch::MANIFEST_FILE)
        .expect("manifest parses")
        .expect("manifest present");
    let drift = epoch::drift(&computed, &pinned, epoch::MANIFEST_FILE);
    assert!(drift.is_empty(), "good fixture drifted: {drift:#?}");

    // The rendered form parses back to the same manifest (emit → verify).
    let reparsed = epoch::Manifest::parse(&computed.render(epoch::Contract::Traffic))
        .expect("rendered manifest parses");
    assert_eq!(reparsed, computed);
}

#[test]
fn drift_messages_name_every_difference_kind() {
    let root = fixture_root("epoch_bad");
    let files = lex_workspace(&root).expect("workspace lexes");
    let computed =
        epoch::Manifest::from_analysis(&epoch::analyze(&files), epoch::Contract::Traffic);
    let pinned = epoch::Manifest::load(&root, epoch::MANIFEST_FILE)
        .expect("manifest parses")
        .expect("manifest present");
    let msgs = epoch::drift(&computed, &pinned, epoch::MANIFEST_FILE);
    assert_eq!(msgs.len(), 1, "exactly the changed site: {msgs:#?}");
    assert!(
        msgs[0].contains("draw sequence changed")
            && msgs[0].contains("simulate_day_into")
            && msgs[0].contains("uniform"),
        "message must carry pinned vs computed sequences: {}",
        msgs[0]
    );
}
