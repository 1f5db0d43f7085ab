//! The counter table: every counter in the tree is one row of a
//! [`counters!`](macro@crate::counters) declaration — process scope
//! ([`ProcessCounters`](crate::ProcessCounters)), server scope and tenant
//! scope (both in `lotusx-serve`) use the same form.
//!
//! A row is `kind name: "help",`. From the row list the macro derives
//! the struct of atomics the increment sites bump (`stats.name.fetch_add`),
//! the plain-value snapshot struct, and the [`CounterRow`] table that the
//! `/stats` JSON object ([`counter_members`]) and the `/metrics` families
//! ([`PromWriter::counter_rows`](crate::PromWriter::counter_rows)) are
//! rendered from. Adding a counter is one row plus its increment site.

/// How a row's value moves, which decides its Prometheus family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterKind {
    /// Monotonic: family `<prefix><name>_total`, `# TYPE … counter`.
    Counter,
    /// Rises and falls, or a high-water mark: family `<prefix><name>`,
    /// `# TYPE … gauge`.
    Gauge,
}

/// One declared counter: everything its renderings are derived from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterRow {
    /// The field identifier, JSON key and Prometheus family stem.
    pub name: &'static str,
    /// The field's doc comment and its `# HELP` text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: CounterKind,
}

impl CounterRow {
    /// The row's Prometheus family name and `# TYPE` under `prefix`
    /// (e.g. `lotusx_server_`).
    pub fn family(&self, prefix: &str) -> (String, &'static str) {
        match self.kind {
            CounterKind::Counter => (format!("{prefix}{}_total", self.name), "counter"),
            CounterKind::Gauge => (format!("{prefix}{}", self.name), "gauge"),
        }
    }
}

/// Appends one scope as the members of a compact JSON object
/// (`"a":1,"b":2` — the caller adds the braces and anything it nests
/// beside them), keys in declared order; `values` is the snapshot's
/// `values()`.
pub fn counter_members(out: &mut String, rows: &[CounterRow], values: &[u64]) {
    let names = rows.iter().map(|row| row.name);
    crate::json::push_u64_members(out, names.zip(values.iter().copied()));
}

/// Declares one scope's counters (see the [module docs](mod@crate::counters);
/// [`ProcessCounters`](crate::ProcessCounters) is the nearest example).
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Atomics:ident => $Snapshot:ident {
            $($kind:ident $field:ident: $help:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $Atomics {
            $(#[doc = $help] pub $field: ::std::sync::atomic::AtomicU64,)*
        }

        #[doc = concat!("A plain-value copy of [`", stringify!($Atomics), "`].")]
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $Snapshot {
            $(#[doc = $help] pub $field: u64,)*
        }

        impl $Atomics {
            /// The declaration, one row per field, in declared order.
            pub const ROWS: &'static [$crate::CounterRow] = &[$($crate::CounterRow {
                name: stringify!($field),
                help: $help,
                kind: $crate::counters!(@kind $kind),
            },)*];

            /// Every cell, in [`Self::ROWS`] order.
            pub fn cells(&self) -> [&::std::sync::atomic::AtomicU64; Self::ROWS.len()] {
                [$(&self.$field,)*]
            }

            /// A consistent-enough snapshot (each field read relaxed).
            pub fn snapshot(&self) -> $Snapshot {
                $Snapshot {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                }
            }
        }

        impl $Snapshot {
            /// Every value, in `ROWS` order.
            pub fn values(&self) -> [u64; $Atomics::ROWS.len()] {
                [$(self.$field,)*]
            }
        }
    };
    (@kind counter) => { $crate::CounterKind::Counter };
    (@kind gauge) => { $crate::CounterKind::Gauge };
}
