//! The coordinator↔worker wire protocol.
//!
//! Framing is deliberately primitive: a 4-byte big-endian length prefix
//! followed by that many bytes of UTF-8 JSON. The JSON is written by
//! hand and parsed back with `telemetry::json` (the workspace is
//! offline — no serde), and every float crosses the wire as its IEEE-754
//! bit pattern via [`f64_bits_hex`], because the merged statistics must
//! be *bit-for-bit* identical to a serial sweep and decimal round-trips
//! are lossy.
//!
//! Session shape (coordinator drives, worker answers):
//!
//! ```text
//! C → W   hello   {protocol, job, trace?}
//! W → C   hello_ok {worker}
//! C → W   lease   {start, end, grant}   # end exclusive
//! W → C   rep     {rep, ok, completion, waiting | error}   × (end-start)
//! W → C   telemetry {seq, dropped, spans, logs, flows, counters}  # 0+
//! W → C   lease_done {start, end}
//! ...more leases...
//! C → W   shutdown
//! W → C   bye
//! ```
//!
//! Any frame a worker sends doubles as a heartbeat: a worker flushes its
//! `rep` frames at each lease end and at least every 25 ms within one,
//! so a healthy worker is never silent for long, and the coordinator's
//! lease supervisor treats prolonged silence as death. The coordinator
//! keeps up to two leases in flight, so the next `lease` frame is
//! already waiting when a worker sends `lease_done`; each side still
//! sends the same frames in the same order as with one lease at a time.
//!
//! `telemetry` frames are strictly *observational*: the coordinator
//! routes them into its collector and fleet view only — never into the
//! statistics merge — so shipping (on, off, or lossy) cannot perturb the
//! bit-for-bit result. The optional `trace` field on `hello` is likewise
//! ignored by older decoders, so [`PROTOCOL_VERSION`] stays at 1.

use crate::job::JobSpec;
use crate::merge::RepOutcome;
use flagsim_telemetry::json::{self, f64_bits_hex, f64_from_bits_hex, json_string, Value};
use flagsim_telemetry::{intern, FlowRecord, Level, LogRecord, SpanRecord};
use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Protocol revision; both sides must agree exactly.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame body, to fail fast on a corrupt or hostile
/// length prefix instead of attempting a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: u32 = 4 * 1024 * 1024;

/// Write one length-prefixed frame and flush it.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    queue_frame(w, body)?;
    w.flush()
}

/// Write one length-prefixed frame into `w` without flushing.
fn queue_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    let len = body.len() as u64;
    if len > MAX_FRAME_BYTES as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    w.write_all(&(len as u32).to_be_bytes())?;
    w.write_all(body.as_bytes())
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed the connection); timeouts and
/// mid-frame EOFs surface as `Err`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Trace context a coordinator propagates to its workers in `hello`:
/// the campaign identity plus what the worker should record and ship.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Campaign trace id (hex of the job fingerprint); every span a
    /// worker ships is stamped with it.
    pub campaign: String,
    /// Minimum severity of log records worth shipping.
    pub level: Level,
    /// Whether the worker should record and ship spans at all.
    pub spans: bool,
    /// Rep-sampling stride: instrument every `sample`-th repetition
    /// (0 and 1 both mean every rep). Sampling bounds shipping cost on
    /// large campaigns; lease spans and logs are never sampled away.
    pub sample: u64,
}

/// One batch of observability records shipped worker → coordinator.
/// Contents are ids/timestamps from the *worker's* counters and epoch;
/// the coordinator remaps ids into its own space on receipt.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryBatch {
    /// Batch sequence number within the session (1-based, monotonic) —
    /// lets the coordinator count gaps a lossy worker dropped.
    pub seq: u64,
    /// Records the worker discarded (bounded buffers) before this batch.
    pub dropped: u64,
    /// Completed spans since the previous batch.
    pub spans: Vec<SpanRecord>,
    /// Structured log records since the previous batch.
    pub logs: Vec<LogRecord>,
    /// Flow-arrow halves since the previous batch.
    pub flows: Vec<FlowRecord>,
    /// Counter deltas since the previous batch, `(name, delta)`.
    pub counters: Vec<(String, u64)>,
}

/// Every message either side can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Coordinator → worker: open a session for `job`.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        protocol: u64,
        /// The campaign both sides will compute identically.
        job: JobSpec,
        /// Trace context when the coordinator is collecting telemetry;
        /// `None` (and absent on the wire) otherwise.
        trace: Option<TraceConfig>,
    },
    /// Worker → coordinator: session accepted.
    HelloOk {
        /// Worker's self-chosen name (diagnostics only).
        worker: String,
    },
    /// Coordinator → worker: run reps `start..end` (end exclusive).
    Lease {
        /// First repetition of the lease.
        start: u64,
        /// One past the last repetition.
        end: u64,
        /// Grant id pairing the coordinator's flow-arrow start with the
        /// worker's finish in a merged trace. Zero when untraced.
        grant: u64,
    },
    /// Worker → coordinator: a batch of observability records.
    Telemetry(TelemetryBatch),
    /// Worker → coordinator: one repetition's outcome.
    Rep {
        /// Repetition index.
        rep: u64,
        /// Metrics or failure, bit-exact.
        outcome: RepOutcome,
    },
    /// Worker → coordinator: every rep of the lease has been reported.
    LeaseDone {
        /// Echo of the lease start.
        start: u64,
        /// Echo of the lease end.
        end: u64,
    },
    /// Worker → coordinator: still alive (sent when idle; any other
    /// frame also refreshes the heartbeat).
    Heartbeat,
    /// Coordinator → worker: wind down the session.
    Shutdown,
    /// Worker → coordinator: acknowledging shutdown, about to close.
    Bye,
    /// Either direction: a protocol-level failure, before closing.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Message {
    /// Encode as one JSON object (the body of one frame).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        match self {
            Message::Hello { protocol, job, trace } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"hello\",\"protocol\":{protocol},\"job\":{}",
                    job.to_json()
                );
                if let Some(t) = trace {
                    let _ = write!(
                        out,
                        ",\"trace\":{{\"campaign\":{},\"level\":\"{}\",\"spans\":{},\"sample\":\"{}\"}}",
                        json_string(&t.campaign),
                        t.level,
                        t.spans,
                        t.sample
                    );
                }
                out.push('}');
            }
            Message::HelloOk { worker } => {
                let _ = write!(out, "{{\"type\":\"hello_ok\",\"worker\":{}}}", json_string(worker));
            }
            Message::Lease { start, end, grant } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"lease\",\"start\":\"{start}\",\"end\":\"{end}\",\"grant\":\"{grant}\"}}"
                );
            }
            Message::Telemetry(batch) => encode_telemetry(&mut out, batch),
            Message::Rep { rep, outcome } => match outcome {
                RepOutcome::Ok { completion, waiting } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"rep\",\"rep\":\"{rep}\",\"ok\":true,\"completion\":\"{}\",\"waiting\":\"{}\"}}",
                        f64_bits_hex(*completion),
                        f64_bits_hex(*waiting)
                    );
                }
                RepOutcome::Failed { error } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"rep\",\"rep\":\"{rep}\",\"ok\":false,\"error\":{}}}",
                        json_string(error)
                    );
                }
            },
            Message::LeaseDone { start, end } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"lease_done\",\"start\":\"{start}\",\"end\":\"{end}\"}}"
                );
            }
            Message::Heartbeat => out.push_str("{\"type\":\"heartbeat\"}"),
            Message::Shutdown => out.push_str("{\"type\":\"shutdown\"}"),
            Message::Bye => out.push_str("{\"type\":\"bye\"}"),
            Message::Error { message } => {
                let _ = write!(out, "{{\"type\":\"error\",\"message\":{}}}", json_string(message));
            }
        }
        out
    }

    /// Decode one frame body.
    pub fn decode(body: &str) -> Result<Message, String> {
        let v = json::parse(body).map_err(|e| format!("bad frame: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("bad frame: missing \"type\"")?;
        let u64_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("bad {ty:?} frame: missing field {key:?}"))?
                .parse::<u64>()
                .map_err(|_| format!("bad {ty:?} frame: field {key:?} is not a u64"))
        };
        match ty {
            "hello" => {
                let protocol = v
                    .get("protocol")
                    .and_then(Value::as_f64)
                    .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                    .ok_or("bad hello frame: missing protocol")? as u64;
                let job = v.get("job").ok_or("bad hello frame: missing job")?;
                // `trace` is optional: its absence means "don't collect",
                // and a malformed one is ignored rather than fatal — the
                // campaign must not fail over observability config.
                let trace = v.get("trace").and_then(decode_trace_config);
                Ok(Message::Hello {
                    protocol,
                    job: JobSpec::from_value(job)?,
                    trace,
                })
            }
            "hello_ok" => Ok(Message::HelloOk {
                worker: v
                    .get("worker")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_owned(),
            }),
            "lease" => Ok(Message::Lease {
                start: u64_field("start")?,
                end: u64_field("end")?,
                // Absent from pre-observability coordinators: untraced.
                grant: u64_field("grant").unwrap_or(0),
            }),
            "telemetry" => decode_telemetry(&v).map(Message::Telemetry),
            "rep" => {
                let rep = u64_field("rep")?;
                let ok = match v.get("ok") {
                    Some(Value::Bool(b)) => *b,
                    _ => return Err("bad rep frame: missing bool \"ok\"".into()),
                };
                let outcome = if ok {
                    let bits = |key: &str| -> Result<f64, String> {
                        let s = v
                            .get(key)
                            .and_then(Value::as_str)
                            .ok_or_else(|| format!("bad rep frame: missing {key:?}"))?;
                        f64_from_bits_hex(s)
                    };
                    RepOutcome::Ok {
                        completion: bits("completion")?,
                        waiting: bits("waiting")?,
                    }
                } else {
                    RepOutcome::Failed {
                        error: v
                            .get("error")
                            .and_then(Value::as_str)
                            .unwrap_or("unknown worker error")
                            .to_owned(),
                    }
                };
                Ok(Message::Rep { rep, outcome })
            }
            "lease_done" => Ok(Message::LeaseDone {
                start: u64_field("start")?,
                end: u64_field("end")?,
            }),
            "heartbeat" => Ok(Message::Heartbeat),
            "shutdown" => Ok(Message::Shutdown),
            "bye" => Ok(Message::Bye),
            "error" => Ok(Message::Error {
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown peer error")
                    .to_owned(),
            }),
            other => Err(format!("bad frame: unknown type {other:?}")),
        }
    }
}

fn encode_telemetry(out: &mut String, batch: &TelemetryBatch) {
    let _ = write!(
        out,
        "{{\"type\":\"telemetry\",\"seq\":\"{}\",\"dropped\":\"{}\",\"spans\":[",
        batch.seq, batch.dropped
    );
    for (i, s) in batch.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":\"{}\"", s.id);
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":\"{p}\"");
        }
        if let Some(l) = s.link {
            let _ = write!(out, ",\"link\":\"{l}\"");
        }
        let _ = write!(
            out,
            ",\"cat\":{},\"name\":{},\"track\":{},\"start\":\"{}\",\"end\":\"{}\",\"args\":[",
            json_string(s.category),
            json_string(s.name),
            json_string(&s.track),
            s.start_ns,
            s.end_ns
        );
        for (j, (k, val)) in s.args.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", json_string(k), json_string(val));
        }
        out.push_str("]}");
    }
    out.push_str("],\"logs\":[");
    for (i, l) in batch.logs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ts\":\"{}\",\"level\":\"{}\",\"target\":{},\"msg\":{},\"track\":{},\"fields\":[",
            l.ts_ns,
            l.level,
            json_string(&l.target),
            json_string(&l.message),
            json_string(&l.track)
        );
        for (j, (k, val)) in l.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", json_string(k), json_string(val));
        }
        out.push_str("]}");
    }
    out.push_str("],\"flows\":[");
    for (i, f) in batch.flows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":\"{}\",\"name\":{},\"ts\":\"{}\",\"track\":{},\"start\":{}}}",
            f.id,
            json_string(f.name),
            f.ts_ns,
            json_string(&f.track),
            f.start
        );
    }
    out.push_str("],\"counters\":[");
    for (i, (name, delta)) in batch.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},\"{delta}\"]", json_string(name));
    }
    out.push_str("]}");
}

/// A u64 shipped as a decimal string (the JSON parser is f64-based, so
/// bare numbers would lose precision past 2^53).
fn u64_of(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_str).and_then(|s| s.parse().ok())
}

fn str_of<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    v.get(key).and_then(Value::as_str)
}

fn pairs_of(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|pair| {
                    let kv = pair.as_array()?;
                    match kv {
                        [k, val] => Some((k.as_str()?.to_owned(), val.as_str()?.to_owned())),
                        _ => None,
                    }
                })
                .collect()
        })
        .unwrap_or_default()
}

fn decode_trace_config(v: &Value) -> Option<TraceConfig> {
    Some(TraceConfig {
        campaign: str_of(v, "campaign")?.to_owned(),
        level: Level::parse(str_of(v, "level")?).ok()?,
        spans: matches!(v.get("spans"), Some(Value::Bool(true))),
        // Absent on frames from a pre-sampling coordinator: every rep.
        sample: u64_of(v, "sample").unwrap_or(1),
    })
}

fn decode_span(v: &Value) -> Option<SpanRecord> {
    Some(SpanRecord {
        id: u64_of(v, "id")?,
        parent: u64_of(v, "parent"),
        link: u64_of(v, "link"),
        category: intern(str_of(v, "cat")?),
        name: intern(str_of(v, "name")?),
        track: str_of(v, "track").unwrap_or_default().to_owned(),
        process: String::new(),
        start_ns: u64_of(v, "start")?,
        end_ns: u64_of(v, "end")?,
        args: pairs_of(v, "args")
            .into_iter()
            .map(|(k, val)| (intern(&k), val))
            .collect(),
    })
}

fn decode_log(v: &Value) -> Option<LogRecord> {
    Some(LogRecord {
        ts_ns: u64_of(v, "ts")?,
        level: Level::parse(str_of(v, "level")?).ok()?,
        target: str_of(v, "target")?.to_owned(),
        message: str_of(v, "msg")?.to_owned(),
        fields: pairs_of(v, "fields"),
        track: str_of(v, "track").unwrap_or_default().to_owned(),
        process: String::new(),
    })
}

fn decode_flow(v: &Value) -> Option<FlowRecord> {
    Some(FlowRecord {
        id: u64_of(v, "id")?,
        name: intern(str_of(v, "name")?),
        ts_ns: u64_of(v, "ts")?,
        track: str_of(v, "track").unwrap_or_default().to_owned(),
        process: String::new(),
        start: matches!(v.get("start"), Some(Value::Bool(true))),
    })
}

fn decode_telemetry(v: &Value) -> Result<TelemetryBatch, String> {
    let records = |key: &str| -> Vec<Value> {
        v.get(key)
            .and_then(Value::as_array)
            .map(|a| a.to_vec())
            .unwrap_or_default()
    };
    // Individually malformed records are skipped, not fatal: telemetry
    // is observational, and a coordinator must not kill a session (and
    // re-run its reps) over one bad record from a skewed worker build.
    Ok(TelemetryBatch {
        seq: u64_of(v, "seq").ok_or("bad telemetry frame: missing seq")?,
        dropped: u64_of(v, "dropped").unwrap_or(0),
        spans: records("spans").iter().filter_map(decode_span).collect(),
        logs: records("logs").iter().filter_map(decode_log).collect(),
        flows: records("flows").iter().filter_map(decode_flow).collect(),
        counters: pairs_of(v, "counters")
            .into_iter()
            .filter_map(|(name, delta)| Some((name, delta.parse().ok()?)))
            .collect(),
    })
}

/// Write one encoded [`Message`] as a frame and flush it.
pub fn send(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    write_frame(w, &msg.encode())
}

/// Write one encoded [`Message`] as a frame without flushing, so a
/// buffered writer can carry several frames in one `write`.
pub fn queue(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    queue_frame(w, &msg.encode())
}

/// Read and decode one [`Message`]; `Ok(None)` on clean EOF.
pub fn recv(r: &mut impl Read) -> io::Result<Option<Message>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Message::decode(&body)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobSpec {
        JobSpec {
            scenario: "4".into(),
            flag: "Mauritius".into(),
            kind: "thick".into(),
            seed: 0xDEAD_BEEF_DEAD_BEEF,
            reps: 1 << 60,
            team: 4,
            warmup: true,
        }
    }

    #[test]
    fn every_message_round_trips() {
        let messages = vec![
            Message::Hello { protocol: PROTOCOL_VERSION, job: job(), trace: None },
            Message::Hello {
                protocol: PROTOCOL_VERSION,
                job: job(),
                trace: Some(TraceConfig {
                    campaign: "00c0ffee00c0ffee".into(),
                    level: Level::Debug,
                    spans: true,
                    sample: u64::MAX - 3,
                }),
            },
            Message::HelloOk { worker: "w-1".into() },
            Message::Lease { start: u64::MAX - 8, end: u64::MAX, grant: 17 },
            Message::Telemetry(TelemetryBatch {
                seq: 3,
                dropped: 2,
                spans: vec![SpanRecord {
                    id: u64::MAX - 1,
                    parent: Some(4),
                    link: None,
                    category: "sim",
                    name: "rep",
                    track: "session \"q\"".into(),
                    process: String::new(),
                    start_ns: 1,
                    end_ns: u64::MAX,
                    args: vec![("rep", "9".into())],
                }],
                logs: vec![LogRecord {
                    ts_ns: 5,
                    level: Level::Warn,
                    target: "shard.worker".into(),
                    message: "lease retried".into(),
                    fields: vec![("attempt".into(), "2".into())],
                    track: "session".into(),
                    process: String::new(),
                }],
                flows: vec![FlowRecord {
                    id: 17,
                    name: "lease",
                    ts_ns: 6,
                    track: "session".into(),
                    process: String::new(),
                    start: false,
                }],
                counters: vec![("shard.worker_reps".into(), u64::MAX)],
            }),
            Message::Telemetry(TelemetryBatch::default()),
            Message::Rep {
                rep: 7,
                outcome: RepOutcome::Ok { completion: 123.456789, waiting: -0.0 },
            },
            Message::Rep {
                rep: 8,
                outcome: RepOutcome::Failed { error: "team too small \"quoted\"".into() },
            },
            Message::LeaseDone { start: 0, end: 16 },
            Message::Heartbeat,
            Message::Shutdown,
            Message::Bye,
            Message::Error { message: "protocol 2 != 1".into() },
        ];
        for m in messages {
            let back = Message::decode(&m.encode()).unwrap_or_else(|e| {
                panic!("{e} for {:?}", m.encode());
            });
            assert_eq!(back, m);
        }
    }

    #[test]
    fn rep_metrics_cross_the_wire_bit_exactly() {
        let x = 1.0f64 / 3.0;
        let m = Message::Rep {
            rep: 0,
            outcome: RepOutcome::Ok { completion: x, waiting: x * 1e-300 },
        };
        match Message::decode(&m.encode()).unwrap() {
            Message::Rep { outcome: RepOutcome::Ok { completion, waiting }, .. } => {
                assert_eq!(completion.to_bits(), x.to_bits());
                assert_eq!(waiting.to_bits(), (x * 1e-300).to_bits());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn pre_observability_frames_still_decode() {
        // A coordinator from before telemetry shipping sends leases with
        // no grant and hellos with no trace; both must decode cleanly.
        let lease = Message::decode("{\"type\":\"lease\",\"start\":\"0\",\"end\":\"8\"}").unwrap();
        assert_eq!(lease, Message::Lease { start: 0, end: 8, grant: 0 });
        let hello = Message::Hello { protocol: PROTOCOL_VERSION, job: job(), trace: None };
        match Message::decode(&hello.encode()).unwrap() {
            Message::Hello { trace, .. } => assert_eq!(trace, None),
            other => panic!("wrong decode: {other:?}"),
        }
        // A malformed trace config is ignored, not fatal.
        let mut body = hello.encode();
        body.truncate(body.len() - 1);
        body.push_str(",\"trace\":{\"campaign\":\"x\",\"level\":\"loud\",\"spans\":true}}");
        match Message::decode(&body).unwrap() {
            Message::Hello { trace, .. } => assert_eq!(trace, None),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn telemetry_decode_skips_malformed_records() {
        let body = "{\"type\":\"telemetry\",\"seq\":\"1\",\"dropped\":\"0\",\
                    \"spans\":[{\"id\":\"1\",\"cat\":\"sim\",\"name\":\"ok\",\"track\":\"t\",\
                    \"start\":\"0\",\"end\":\"1\",\"args\":[]},{\"name\":\"no id\"}],\
                    \"logs\":[{\"level\":\"nope\"}],\"flows\":[],\
                    \"counters\":[[\"good\",\"3\"],[\"bad\",\"x\"]]}";
        match Message::decode(body).unwrap() {
            Message::Telemetry(batch) => {
                assert_eq!(batch.spans.len(), 1);
                assert_eq!(batch.spans[0].name, "ok");
                assert!(batch.logs.is_empty());
                assert_eq!(batch.counters, vec![("good".to_owned(), 3)]);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\":\"heartbeat\"}").unwrap();
        write_frame(&mut buf, "{\"type\":\"bye\"}").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"type\":\"heartbeat\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"type\":\"bye\"}");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        // A hostile length prefix must not allocate.
        let mut r = io::Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(read_frame(&mut r).is_err());
        // EOF mid-frame is an error, not a clean close.
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\":\"bye\"}").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
        // Garbage bodies fail to decode.
        assert!(Message::decode("{\"type\":\"warp\"}").is_err());
        assert!(Message::decode("not json").is_err());
    }

    #[test]
    fn nesting_bombs_under_the_frame_cap_are_errors() {
        // 1 MB of nesting fits under MAX_FRAME_BYTES; decoding it must fail
        // cleanly rather than overflow the stack of the receiving thread.
        for bomb in ["[".repeat(1_000_000), "{\"type\":".repeat(200_000)] {
            assert!(bomb.len() < MAX_FRAME_BYTES as usize);
            let err = Message::decode(&bomb).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
    }
}
