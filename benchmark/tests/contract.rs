//! The metric tables in `src/contract.rs` against `BENCHMARK.json` at
//! the repo root: a metric renamed in one place only fails here.

use s2e_benchmark::contract::{END_TO_END, PER_LAYER, RUN_SECONDS};
use s2e_benchmark::workloads::NAMES;
use s2e_obs::json::{parse, Json};

fn field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no `{key}` in {j:?}"))
}

#[test]
fn benchmark_json_declares_what_the_source_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let root = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(
        root.get("run_seconds").and_then(Json::as_u64),
        Some(RUN_SECONDS)
    );

    let workloads = root.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(
        workloads
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Vec<_>>(),
        NAMES
    );

    let end_to_end = root.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (j, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(
            field(j, "better") == "lower",
            m.lower_is_better,
            "{}",
            m.name
        );
        assert_eq!(
            j.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "set-up time has the largest bound"
    );

    let per_layer = root.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (j, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(
            field(j, "better") == "higher",
            m.higher_is_better,
            "{}",
            m.name
        );
    }
}
