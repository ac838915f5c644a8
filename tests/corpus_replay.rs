//! Replay every `tests/corpus/*.case` file on each `cargo test` run.
//!
//! The corpus is the fuzzer's long-term memory: every failure
//! `reo-fuzz` ever found — a panic in the compilation pipeline, a trace
//! divergence between runtime modes, a hang, a lost or duplicated
//! value — is minimized and committed here, alongside hand-written seed
//! scenarios promoted from the mode-equivalence suite. The corpus only
//! grows; a replay failure means a past bug is back, and the message
//! names the case file. `reo_fuzz::corpus` has the file format and the
//! discipline.

use std::path::Path;

use reo_fuzz::{load_dir, replay, CorpusCase};

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn the_corpus_is_not_empty() {
    // An empty directory would make `every_corpus_case_replays_clean`
    // pass vacuously — e.g. after a bad checkout or an overzealous
    // clean. The seed cases are committed; they must be here.
    let cases = load_dir(&corpus_dir()).expect("corpus must load");
    assert!(
        cases.len() >= 10,
        "expected the seed corpus (>= 10 cases), found {}",
        cases.len()
    );
}

#[test]
fn every_corpus_case_replays_clean() {
    let cases = load_dir(&corpus_dir()).expect("corpus must load");
    let mut regressions = Vec::new();
    for (path, case) in &cases {
        if let Err(e) = replay(case) {
            regressions.push(format!("{}: {e}", path.display()));
        }
    }
    assert!(
        regressions.is_empty(),
        "corpus regressions:\n{}",
        regressions.join("\n")
    );
}

#[test]
fn corpus_files_round_trip_through_the_text_format() {
    // Guards the format itself: a hand-edited case that no longer
    // serializes identically would silently drift from what the fuzzer
    // writes. (Provenance is free text and is not preserved.)
    for (path, case) in load_dir(&corpus_dir()).expect("corpus must load") {
        let text = reo_fuzz::to_text(&case, "");
        let reparsed = reo_fuzz::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", path.display()));
        match (&case, &reparsed) {
            (CorpusCase::Pipeline { source: a }, CorpusCase::Pipeline { source: b }) => {
                assert_eq!(a, b, "{}", path.display())
            }
            (CorpusCase::Diff(a), CorpusCase::Diff(b))
            | (CorpusCase::Fault(a), CorpusCase::Fault(b)) => {
                assert_eq!(a.scenario.steps, b.scenario.steps, "{}", path.display());
                assert_eq!(a.scenario.source, b.scenario.source, "{}", path.display());
                assert_eq!(a.expected, b.expected, "{}", path.display());
            }
            _ => panic!("{}: kind changed across round-trip", path.display()),
        }
    }
}
