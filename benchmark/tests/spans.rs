//! Span nesting, self time, and the trace file's shape.

use s2e_benchmark::spans::{self_times, trace_json, Span, Tracer};
use s2e_obs::json::Json;

fn span(
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    exploration: u32,
) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        exploration,
    }
}

#[test]
fn self_time_is_span_minus_direct_children() {
    let spans = vec![
        span("explore", 0, 100, None, 0),
        span("Engine::new", 0, 10, Some(0), 0),
        span("Engine::step", 10, 50, Some(0), 0),
        span("Engine::step", 50, 90, Some(0), 0),
        // A grandchild shortens its parent's self time, not the root's.
        span("inner", 55, 60, Some(3), 0),
    ];
    let t = self_times(&spans);
    assert_eq!(t["explore"].total_ns, 100);
    assert_eq!(t["explore"].self_ns, 10);
    assert_eq!(t["Engine::step"].count, 2);
    assert_eq!(t["Engine::step"].total_ns, 80);
    assert_eq!(t["Engine::step"].self_ns, 75);
    assert_eq!(t["inner"].self_ns, 5);
    let accounted: u64 = t.values().map(|x| x.self_ns).sum();
    assert_eq!(accounted, 100, "self times partition the root span");
}

#[test]
fn tracer_records_parents_and_explorations() {
    let mut tracer = Tracer::new(true);
    tracer.set_exploration(3);
    let outer = tracer.enter("outer");
    let value = tracer.scope("inner", || 42);
    tracer.exit(outer);
    assert_eq!(value, 42);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(
        (spans[0].name, spans[0].parent, spans[0].exploration),
        ("outer", None, 3)
    );
    assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut tracer = Tracer::new(false);
    let id = tracer.enter("x");
    tracer.exit(id);
    assert_eq!(tracer.scope("y", || 1), 1);
    assert!(tracer.spans().is_empty());
}

#[test]
fn exit_closes_the_spans_a_caught_panic_left_open() {
    let mut tracer = Tracer::new(true);
    let outer = tracer.enter("outer");
    let _abandoned = tracer.enter("inner");
    tracer.exit(outer);
    let spans = tracer.spans();
    assert_eq!(spans[0].end_ns, spans[1].end_ns);
    // Nothing is open any more, so the tracer may be toggled.
    tracer.set_enabled(false);
}

#[test]
#[should_panic(expected = "not open")]
fn exiting_twice_is_a_bug() {
    let mut tracer = Tracer::new(true);
    let a = tracer.enter("a");
    tracer.exit(a);
    tracer.exit(a);
}

#[test]
fn trace_file_lists_only_the_kept_explorations_and_remaps_parents() {
    let spans = vec![
        span("explore", 0, 10, None, 1),
        span("explore", 10, 20, None, 0),
        span("Engine::step", 12, 18, Some(1), 0),
    ];
    let j = trace_json("w", &spans, 1);
    assert_eq!(j.get("spans_recorded").and_then(Json::as_u64), Some(3));
    let listed = j.get("spans").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), 2);
    // The step's parent was index 1 of the recording, index 0 of the file.
    assert_eq!(listed[1].get("parent").and_then(Json::as_u64), Some(0));
    assert_eq!(listed[0].get("parent"), Some(&Json::Null));
    let summary = j.get("summary").and_then(Json::as_arr).unwrap();
    let explore = summary
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("explore"))
        .unwrap();
    assert_eq!(
        explore.get("count").and_then(Json::as_u64),
        Some(2),
        "the summary covers every exploration"
    );
}
