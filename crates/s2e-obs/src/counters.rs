//! One definition per counter (DESIGN.md §16).
//!
//! Every stats struct the engine reports is declared through
//! [`counters!`](crate::counters!) in its home crate. One row of the
//! table (doc, field, type, merge kind) is the only place a counter is
//! spelled: the macro turns it into the struct field, its line of the
//! generated `merge`, its key in the `RunReport` section and its
//! live-registry counter. The hot path does not see the table: the
//! struct is plain `pub` integers, incremented in place.

use crate::metrics::MergeKind;

/// One row of a [`counters!`](crate::counters!) table.
#[derive(Clone, Copy, Debug)]
pub struct CounterRow {
    /// Key within the report section: the field name, `_ns`-suffixed
    /// for a `Duration` (reported in nanoseconds).
    pub key: &'static str,
    /// How two values combine, in the generated `merge` and across
    /// live-registry shards alike.
    pub merge: MergeKind,
    /// False for a `report_only` row, whose live form is written by
    /// hand beside the table.
    pub live: bool,
}

/// A stats struct declared through [`counters!`](crate::counters!).
pub trait Counters {
    /// `RunReport` section name; the live counters are `SECTION.key`.
    const SECTION: &'static str;

    /// Calls `f` with every row and its current value, in field order.
    fn visit(&self, f: &mut dyn FnMut(&CounterRow, u64));
}

/// `key`, or `prefix.key` for a prefixed table instance.
pub(crate) fn prefixed(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// Declares a stats struct from a table of rows `field: Type = Merge`
/// (`EngineStats` in `s2e-core` is a full example).
///
/// `Type` is `u64`, `usize` or `Duration` (reported in nanoseconds as
/// `<field>_ns`), and `Merge` is `Sum` or `Max`. A trailing
/// `report_only` keeps a row out of the generated live publish. A row
/// may instead hold an array of another table, with merge `Each`: it
/// merges elementwise and reports through that table.
///
/// The macro emits the struct with `pub` fields in row order and the
/// given attributes, an inherent `merge`, and a [`Counters`] impl, which
/// drives [`MetricSection::of`](crate::MetricSection::of),
/// [`CounterSchema::table`] and
/// [`TelemetryHandle::publish`](crate::TelemetryHandle::publish).
#[macro_export]
macro_rules! counters {
    (@merge Sum, $a:expr, $b:expr) => {
        $a += $b
    };
    (@merge Max, $a:expr, $b:expr) => {
        $a = ::std::cmp::max($a, $b)
    };
    (@merge Each, $a:expr, $b:expr) => {
        for (a, b) in $a.iter_mut().zip($b.iter()) {
            a.merge(b);
        }
    };
    (@live) => { true };
    (@live report_only) => { false };
    (@visit $f:ident, $v:expr, $field:ident, $ty:tt, Each, $live:expr) => {};
    (@visit $f:ident, $v:expr, $field:ident, Duration, $merge:ident, $live:expr) => {
        $crate::counters!(@row $f, concat!(stringify!($field), "_ns"), $merge, $live, $v.as_nanos())
    };
    (@visit $f:ident, $v:expr, $field:ident, $ty:tt, $merge:ident, $live:expr) => {
        $crate::counters!(@row $f, stringify!($field), $merge, $live, $v)
    };
    (@row $f:ident, $key:expr, $merge:ident, $live:expr, $value:expr) => {
        $f(
            &$crate::CounterRow { key: $key, merge: $crate::MergeKind::$merge, live: $live },
            $value as u64,
        )
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident in $section:literal {
            $(
                $(#[doc = $doc:expr])*
                $field:ident : $ty:tt = $merge:ident $($report_only:ident)?,
            )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[doc = $doc])*
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Folds `other` into `self` row by row: `Sum` rows add,
            /// `Max` rows keep the larger value, `Each` rows merge
            /// elementwise.
            pub fn merge(&mut self, other: &$name) {
                $( $crate::counters!(@merge $merge, self.$field, other.$field); )*
            }
        }

        impl $crate::Counters for $name {
            const SECTION: &'static str = $section;

            fn visit(&self, f: &mut dyn FnMut(&$crate::CounterRow, u64)) {
                $( $crate::counters!(
                    @visit f, self.$field, $field, $ty, $merge,
                    $crate::counters!(@live $($report_only)?)
                ); )*
            }
        }
    };
}

/// The table-backed counters a [`crate::MetricsRegistry`] is built
/// with: per `counters!` table instance, its `(section, prefix)` and
/// first slot, then one `(name, merge)` slot per live row.
#[derive(Clone, Debug, Default)]
pub struct CounterSchema {
    blocks: Vec<(&'static str, String, usize)>,
    slots: Vec<(String, MergeKind)>,
}

impl CounterSchema {
    /// Adds the live rows of table `T`, named `SECTION.key`.
    pub fn table<T: Counters + Default>(self) -> CounterSchema {
        self.table_prefixed::<T>("")
    }

    /// Adds one instance of table `T` whose rows are named
    /// `SECTION.prefix.key`: a struct holding a copy of a table per
    /// query kind, say, adds each copy under its own prefix.
    pub fn table_prefixed<T: Counters + Default>(mut self, prefix: &str) -> CounterSchema {
        assert!(self.block(T::SECTION, prefix).is_none(), "{} {prefix} added twice", T::SECTION);
        self.blocks.push((T::SECTION, prefix.to_string(), self.slots.len()));
        T::default().visit(&mut |row, _| {
            if row.live {
                let name = format!("{}.{}", T::SECTION, prefixed(prefix, row.key));
                self.slots.push((name, row.merge));
            }
        });
        self
    }

    /// Live counter names and merge kinds, in slot order.
    pub(crate) fn slots(&self) -> &[(String, MergeKind)] {
        &self.slots
    }

    /// First slot of a table instance, if the schema holds it.
    pub(crate) fn block(&self, section: &str, prefix: &str) -> Option<usize> {
        self.blocks
            .iter()
            .find(|(s, p, _)| *s == section && p == prefix)
            .map(|&(_, _, first)| first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::report::MetricSection;
    use std::time::Duration;

    crate::counters! {
        /// Every scalar row shape.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Probe in "probe" {
            /// Summed count.
            events: u64 = Sum,
            /// Peak count.
            peak: u64 = Max,
            /// Summed size.
            bytes: usize = Sum,
            /// Peak size.
            peak_bytes: usize = Max,
            /// Summed time.
            busy: Duration = Sum,
            /// Peak time.
            longest: Duration = Max,
            /// Reported, but published by hand.
            hits: u64 = Sum report_only,
        }
    }

    crate::counters! {
        /// A table holding copies of another.
        #[derive(Default)]
        pub struct Lanes in "lanes" {
            /// Summed count.
            total: u64 = Sum,
            /// One probe table per lane.
            lanes: [Probe; 2] = Each,
        }
    }

    fn probe(n: u64) -> Probe {
        let d = Duration::from_nanos(n);
        let bytes = n as usize;
        Probe { events: n, peak: n, bytes, peak_bytes: bytes, busy: d, longest: d, hits: n }
    }

    #[test]
    fn merge_adds_sum_rows_and_maxes_max_rows_and_durations_report_ns() {
        for (a, b) in [(3, 5), (5, 3)] {
            let mut merged = probe(a);
            merged.merge(&probe(b));
            let (busy, longest) = (Duration::from_nanos(8), Duration::from_nanos(5));
            let want =
                Probe { events: 8, peak: 5, bytes: 8, peak_bytes: 5, busy, longest, hits: 8 };
            assert_eq!(merged, want);
        }
        let mut lanes = Lanes { total: 1, lanes: [probe(1), probe(7)] };
        lanes.merge(&Lanes { total: 2, lanes: [probe(4), probe(2)] });
        assert_eq!(lanes.total, 3);
        assert_eq!(lanes.lanes.map(|p| (p.events, p.peak)), [(5, 4), (9, 7)]);

        let mut rows = Vec::new();
        probe(2).visit(&mut |row, v| rows.push((row.key, row.merge, row.live, v)));
        let (sum, max) = (MergeKind::Sum, MergeKind::Max);
        let want = [
            ("events", sum, true, 2),
            ("peak", max, true, 2),
            ("bytes", sum, true, 2),
            ("peak_bytes", max, true, 2),
            ("busy_ns", sum, true, 2),
            ("longest_ns", max, true, 2),
            ("hits", sum, false, 2),
        ];
        assert_eq!(rows, want);
        let mut keys = Vec::new();
        Lanes::default().visit(&mut |row, _| keys.push(row.key));
        assert_eq!(keys, ["total"], "an `Each` row reports through its own table");
    }

    #[test]
    fn section_schema_and_publish_follow_the_rows() {
        let section = MetricSection::of(&probe(4)).table(&probe(6), "lane");
        assert_eq!((section.name.as_str(), section.counters.len()), ("probe", 14));
        assert_eq!(section.get("hits"), Some(4.0));
        assert_eq!(section.get("lane.longest_ns"), Some(6.0));

        let schema = CounterSchema::default().table::<Probe>().table_prefixed::<Probe>("lane");
        let names: Vec<&str> = schema.slots().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), 12, "report_only rows get no slot");
        assert_eq!((names[4], names[6]), ("probe.busy_ns", "probe.lane.events"));

        let reg = MetricsRegistry::new(2, &schema);
        reg.handle(0).publish(&probe(3));
        reg.handle(1).publish(&probe(5));
        reg.handle(1).publish_prefixed(&probe(9), "lane");
        let snap = reg.snapshot();
        assert_eq!(snap.counter_named("probe.events"), Some(8));
        assert_eq!(snap.counter_named("probe.peak_bytes"), Some(5));
        assert_eq!(snap.counter_named("probe.lane.longest_ns"), Some(9));
        assert_eq!(snap.counter_named("probe.hits"), None);
    }
}
