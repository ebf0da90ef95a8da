//! `expected.json`: parsing, comparison, and agreement of the committed
//! file with the workload list.

use s2e_benchmark::expected::{fold_digests, parse, Counts};
use s2e_benchmark::workloads::NAMES;
use std::collections::BTreeMap;

fn sample() -> Counts {
    Counts {
        paths: 3,
        forks: 2,
        guest_instrs: 40,
        reasons: Some(BTreeMap::from([
            ("Halted".to_string(), 2),
            ("Fault".to_string(), 1),
        ])),
        bugs: Some(0),
        digest: Some("00ff".to_string()),
    }
}

#[test]
fn counts_round_trip_through_json() {
    let text = format!("{{\"w\": {}}}", sample().to_json().render());
    assert_eq!(parse(&text).unwrap()["w"], sample());
    // A tier that cannot see a field pins null.
    let blind = Counts {
        reasons: None,
        bugs: None,
        digest: None,
        ..sample()
    };
    let text = format!("{{\"w\": {}}}", blind.to_json().render());
    assert_eq!(parse(&text).unwrap()["w"], blind);
}

#[test]
fn every_differing_field_is_named() {
    assert!(sample().mismatches(&sample()).is_empty());
    let mut got = sample();
    got.paths = 4;
    got.reasons
        .as_mut()
        .unwrap()
        .insert("SolverTimeout".to_string(), 1);
    got.digest = Some("00fe".to_string());
    let m = got.mismatches(&sample());
    assert_eq!(m.len(), 3, "{m:?}");
    assert!(m[0].starts_with("paths: got 4, expected 3"));
    assert!(m[1].starts_with("reasons:"));
    assert!(m[2].starts_with("digest:"));
    // A field the expectation pins must be observed: null is not "any".
    let blind = Counts {
        bugs: None,
        ..sample()
    };
    assert_eq!(blind.mismatches(&sample()).len(), 1);
}

#[test]
fn malformed_files_are_errors() {
    assert!(parse("").is_err());
    assert!(parse("[]").is_err());
    assert!(
        parse(r#"{"w": {"paths": 1, "forks": 0}}"#).is_err(),
        "guest_instrs missing"
    );
    assert!(parse(r#"{"w": {"paths": "1", "forks": 0, "guest_instrs": 2}}"#).is_err());
    assert!(
        parse(r#"{"w": {"paths": 1, "forks": 0, "guest_instrs": 2, "bugs": "none"}}"#).is_err()
    );
}

#[test]
fn digest_fold_depends_on_content_and_multiplicity() {
    assert_eq!(fold_digests(&[1, 2]), fold_digests(&[1, 2]));
    assert_ne!(fold_digests(&[1, 2]), fold_digests(&[1, 3]));
    assert_ne!(fold_digests(&[1, 2]), fold_digests(&[1, 2, 2]));
    assert_eq!(fold_digests(&[]).len(), 16);
}

#[test]
fn committed_file_pins_every_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    let all = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(all.keys().map(String::as_str).collect::<Vec<_>>(), {
        let mut names = NAMES.to_vec();
        names.sort_unstable();
        names
    });
    // The three 91C111 tiers explore one path set.
    let tiers = ["91c111-lc", "91c111-lc-par2", "91c111-lc-dist2"].map(|n| &all[n]);
    for t in &tiers[1..] {
        assert_eq!(
            (t.paths, t.forks, t.guest_instrs, &t.digest),
            (
                tiers[0].paths,
                tiers[0].forks,
                tiers[0].guest_instrs,
                &tiers[0].digest
            )
        );
    }
    // The checksum's kill status follows the seed, so its digest cannot be pinned.
    assert_eq!(all["checksum-concrete"].digest, None);
    assert_eq!(all["checksum-concrete"].forks, 0);
}
