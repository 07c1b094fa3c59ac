//! Property tests for the shard wire protocol: every frame must survive
//! `encode` → `decode` exactly, including the observability family
//! (telemetry batches, trace configs, lease grant ids) added alongside
//! the original lease frames.
//!
//! Interned fields (`category`, `name`, arg keys) are drawn from a small
//! fixed vocabulary: the decoder's bounded interner is a deliberate leak
//! cap, and unbounded random names would exhaust it across cases.

use flagsim_shard::{JobSpec, Message, TelemetryBatch, TraceConfig};
use flagsim_telemetry::{FlowRecord, Level, LogRecord, SpanRecord};
use proptest::prelude::*;

/// Short strings over a palette that exercises the JSON escaper: quotes,
/// backslashes, braces, control characters, and multi-byte unicode.
fn small_string() -> impl Strategy<Value = String> {
    const PALETTE: [char; 20] = [
        ' ', 'a', 'Z', '0', '9', '_', '.', '"', '\\', '/', '{', '}', '[', ']', ':', ',', '\n',
        '\t', 'ü', '⚑',
    ];
    proptest::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|idxs| idxs.into_iter().map(|i| PALETTE[i]).collect())
}

fn static_name() -> impl Strategy<Value = &'static str> {
    const NAMES: [&str; 6] = ["sim", "shard", "runtime", "sweep.rep", "lease", "merge"];
    (0usize..NAMES.len()).prop_map(|i| NAMES[i])
}

fn level() -> impl Strategy<Value = Level> {
    (0u8..5).prop_map(|l| match l {
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        3 => Level::Debug,
        _ => Level::Trace,
    })
}

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn span() -> impl Strategy<Value = SpanRecord> {
    (
        (any::<u64>(), opt_u64(), opt_u64()),
        (static_name(), static_name(), small_string()),
        (any::<u64>(), any::<u64>()),
        proptest::collection::vec((static_name(), small_string()), 0..4),
    )
        .prop_map(
            |((id, parent, link), (category, name, track), (start_ns, end_ns), args)| {
                SpanRecord {
                    id,
                    parent,
                    link,
                    category,
                    name,
                    track,
                    // Process labels are never on the wire: the
                    // coordinator stamps them after decode, so a
                    // round-tripped record carries "".
                    process: String::new(),
                    start_ns,
                    end_ns,
                    args,
                }
            },
        )
}

fn log_record() -> impl Strategy<Value = LogRecord> {
    (
        any::<u64>(),
        level(),
        small_string(),
        small_string(),
        proptest::collection::vec((small_string(), small_string()), 0..4),
        small_string(),
    )
        .prop_map(|(ts_ns, level, target, message, fields, track)| LogRecord {
            ts_ns,
            level,
            target,
            message,
            fields,
            track,
            process: String::new(),
        })
}

fn flow() -> impl Strategy<Value = FlowRecord> {
    (
        any::<u64>(),
        static_name(),
        any::<u64>(),
        small_string(),
        any::<bool>(),
    )
        .prop_map(|(id, name, ts_ns, track, start)| FlowRecord {
            id,
            name,
            ts_ns,
            track,
            process: String::new(),
            start,
        })
}

fn batch() -> impl Strategy<Value = TelemetryBatch> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(span(), 0..5),
        proptest::collection::vec(log_record(), 0..4),
        proptest::collection::vec(flow(), 0..4),
        proptest::collection::vec((small_string(), any::<u64>()), 0..3),
    )
        .prop_map(
            |(seq, dropped, spans, logs, flows, counters)| TelemetryBatch {
                seq,
                dropped,
                spans,
                logs,
                flows,
                counters,
            },
        )
}

fn trace_config() -> impl Strategy<Value = Option<TraceConfig>> {
    (
        any::<bool>(),
        small_string(),
        level(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(some, campaign, level, spans, sample)| {
            some.then_some(TraceConfig {
                campaign,
                level,
                spans,
                sample,
            })
        })
}

fn round_trips(msg: &Message) {
    let encoded = msg.encode();
    let decoded =
        Message::decode(&encoded).unwrap_or_else(|e| panic!("decode failed: {e} for {encoded}"));
    assert_eq!(
        &decoded, msg,
        "wire round-trip changed the frame: {encoded}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Telemetry frames round-trip bit-exactly for arbitrary contents.
    #[test]
    fn telemetry_frames_round_trip(b in batch()) {
        round_trips(&Message::Telemetry(b));
    }

    /// Hello frames round-trip with and without a trace context.
    /// (Protocol versions ride as bare JSON numbers through the
    /// f64-based parser, so stay inside exactly-representable range.)
    #[test]
    fn hello_trace_config_round_trips(trace in trace_config(), protocol in 0u64..1_000_000) {
        let job = JobSpec {
            scenario: "4".into(),
            flag: "Mauritius".into(),
            kind: "dauber".into(),
            seed: 7,
            reps: 3,
            team: 4,
            warmup: false,
        };
        round_trips(&Message::Hello { protocol, job, trace });
    }

    /// Lease and lease-done frames round-trip for arbitrary ranges and
    /// grant ids (these ride as decimal strings: full u64 precision).
    #[test]
    fn lease_frames_round_trip(start in any::<u64>(), len in any::<u32>(), grant in any::<u64>()) {
        let end = start.saturating_add(u64::from(len));
        round_trips(&Message::Lease { start, end, grant });
        round_trips(&Message::LeaseDone { start, end });
    }
}
