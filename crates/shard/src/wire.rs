//! The coordinator↔worker wire protocol.
//!
//! Framing is deliberately primitive: a 4-byte big-endian length prefix
//! followed by that many bytes of UTF-8 JSON. The JSON is written by
//! hand (the workspace is offline — no serde), and every float crosses
//! the wire as its IEEE-754 bit pattern in 16 hex digits (what
//! [`f64_bits_hex`](flagsim_telemetry::json::f64_bits_hex) writes),
//! because the merged statistics must be *bit-for-bit* identical to a
//! serial sweep and decimal round-trips are lossy.
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
//! A lease covers [`LeaseConfig::chunk`](crate::LeaseConfig::chunk)
//! reps, 64 by default: one lease round trip and one flush per 64 `rep`
//! frames, whose ~7 KB still fit the worker's 8 KiB write buffer. Any
//! frame a worker sends doubles as a heartbeat: a worker flushes its
//! `rep` frames at each lease end and at least every 25 ms within one,
//! so a healthy worker is never silent for long, and the coordinator's
//! lease supervisor treats prolonged silence as death. The coordinator
//! keeps up to two leases in flight, so the next `lease` frame is
//! already waiting when a worker sends `lease_done`; each side still
//! sends the same frames in the same order as with one lease at a time.
//!
//! The codec allocates nothing per `rep` frame. [`queue`] writes a frame
//! straight into the caller's writer: one pass over the [`Message`]
//! counts the body's bytes for the length prefix and a second writes
//! them, with integers and float bits formatted on the stack. A
//! [`Receiver`] reads every frame into one reused buffer. The flat
//! frames (`rep`, `lease`, `lease_done`, `heartbeat`, `shutdown`, `bye`,
//! `hello_ok`, `error`) decode from one borrowed scan of the body's
//! top-level fields (`telemetry::json::scan_object`); only the nested
//! `hello` and `telemetry` frames are parsed into a tree. The scan runs
//! the tree parser's own grammar, so it accepts exactly the bodies that
//! `json::parse` accepts (any key order, whitespace, escapes, unknown
//! fields, later duplicates winning), and a frame body is plain JSON.
//!
//! `telemetry` frames are strictly *observational*: the coordinator
//! routes them into its collector and fleet view only — never into the
//! statistics merge — so shipping (on, off, or lossy) cannot perturb the
//! bit-for-bit result. The optional `trace` field on `hello` is likewise
//! ignored by older decoders, so [`PROTOCOL_VERSION`] stays at 1.

use crate::job::JobSpec;
use flagsim_core::sweep::RepOutcome;
use flagsim_telemetry::json::{self, f64_from_bits_hex, json_escape_into, Scalar, Value};
use flagsim_telemetry::{intern, FlowRecord, Level, LogRecord, SpanRecord};
use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol revision; both sides must agree exactly.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame body, to fail fast on a corrupt or hostile
/// length prefix instead of attempting a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: u32 = 4 * 1024 * 1024;

/// Write one length-prefixed frame and flush it.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    w.write_all(&frame_len(body.len())?.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// The length prefix of a `len`-byte body; refused past the cap.
fn frame_len(len: usize) -> io::Result<u32> {
    u32::try_from(len)
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
            )
        })
}

/// Read one frame's body into `buf`, which is cleared first and keeps
/// its allocation. Returns `Ok(false)` on a clean EOF at a frame
/// boundary (the peer closed the connection); timeouts and mid-frame
/// EOFs surface as `Err`.
fn fill_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(true)
}

fn not_utf8() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8")
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed the connection); timeouts and
/// mid-frame EOFs surface as `Err`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    if !fill_frame(r, &mut buf)? {
        return Ok(None);
    }
    String::from_utf8(buf).map(Some).map_err(|_| not_utf8())
}

/// The receiving end of a session: reads and decodes frames through one
/// buffer that every frame reuses, so a steady stream of flat frames
/// allocates nothing.
pub struct Receiver<R> {
    reader: R,
    buf: Vec<u8>,
}

impl<R: Read> Receiver<R> {
    /// Receive from `reader`.
    pub fn new(reader: R) -> Self {
        Receiver {
            reader,
            buf: Vec::new(),
        }
    }

    /// Read and decode one [`Message`]; `Ok(None)` on clean EOF. A body
    /// that is not UTF-8 or not a valid frame is an `InvalidData` error.
    pub fn recv(&mut self) -> io::Result<Option<Message>> {
        if !fill_frame(&mut self.reader, &mut self.buf)? {
            return Ok(None);
        }
        let body = std::str::from_utf8(&self.buf).map_err(|_| not_utf8())?;
        Message::decode(body)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
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
        let _ = self.encode_into(&mut out);
        out
    }

    /// Write the frame body into `out`: the one encoder behind
    /// [`encode`](Message::encode) and [`queue`].
    fn encode_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Message::Hello { protocol, job, trace } => {
                write!(
                    out,
                    "{{\"type\":\"hello\",\"protocol\":{protocol},\"job\":{}",
                    job.to_json()
                )?;
                if let Some(t) = trace {
                    out.write_str(",\"trace\":{\"campaign\":")?;
                    put_string(out, &t.campaign)?;
                    write!(
                        out,
                        ",\"level\":\"{}\",\"spans\":{},\"sample\":\"{}\"}}",
                        t.level, t.spans, t.sample
                    )?;
                }
                out.write_char('}')
            }
            Message::HelloOk { worker } => {
                out.write_str("{\"type\":\"hello_ok\",\"worker\":")?;
                put_string(out, worker)?;
                out.write_char('}')
            }
            Message::Lease { start, end, grant } => write!(
                out,
                "{{\"type\":\"lease\",\"start\":\"{start}\",\"end\":\"{end}\",\"grant\":\"{grant}\"}}"
            ),
            Message::Telemetry(batch) => encode_telemetry(out, batch),
            Message::Rep { rep, outcome } => {
                out.write_str("{\"type\":\"rep\",")?;
                write_outcome(out, *rep, outcome)?;
                out.write_char('}')
            }
            Message::LeaseDone { start, end } => write!(
                out,
                "{{\"type\":\"lease_done\",\"start\":\"{start}\",\"end\":\"{end}\"}}"
            ),
            Message::Heartbeat => out.write_str("{\"type\":\"heartbeat\"}"),
            Message::Shutdown => out.write_str("{\"type\":\"shutdown\"}"),
            Message::Bye => out.write_str("{\"type\":\"bye\"}"),
            Message::Error { message } => {
                out.write_str("{\"type\":\"error\",\"message\":")?;
                put_string(out, message)?;
                out.write_char('}')
            }
        }
    }

    /// Decode one frame body. Flat frames decode from a scan of their
    /// top-level fields; `hello` and `telemetry` from a parsed tree.
    pub fn decode(body: &str) -> Result<Message, String> {
        let frame = Flat::scan(body).map_err(|e| format!("bad frame: {e}"))?;
        let ty = frame.str("type").ok_or("bad frame: missing \"type\"")?;
        let u64_field = |key: &str| -> Result<u64, String> {
            frame
                .str(key)
                .ok_or_else(|| format!("bad {ty:?} frame: missing field {key:?}"))?
                .parse::<u64>()
                .map_err(|_| format!("bad {ty:?} frame: field {key:?} is not a u64"))
        };
        let tree = || json::parse(body).map_err(|e| format!("bad frame: {e}"));
        match &*ty {
            "hello" => decode_hello(&tree()?),
            "hello_ok" => Ok(Message::HelloOk {
                worker: frame
                    .str("worker")
                    .map_or_else(|| "?".to_owned(), Cow::into_owned),
            }),
            "lease" => Ok(Message::Lease {
                start: u64_field("start")?,
                end: u64_field("end")?,
                // Absent from pre-observability coordinators: untraced.
                grant: frame.u64("grant").unwrap_or(0),
            }),
            "telemetry" => decode_telemetry(&tree()?).map(Message::Telemetry),
            "rep" => read_outcome(&frame, "bad \"rep\" frame")
                .map(|(rep, outcome)| Message::Rep { rep, outcome }),
            "lease_done" => Ok(Message::LeaseDone {
                start: u64_field("start")?,
                end: u64_field("end")?,
            }),
            "heartbeat" => Ok(Message::Heartbeat),
            "shutdown" => Ok(Message::Shutdown),
            "bye" => Ok(Message::Bye),
            "error" => Ok(Message::Error {
                message: frame
                    .str("message")
                    .map_or_else(|| "unknown peer error".to_owned(), Cow::into_owned),
            }),
            other => Err(format!("bad frame: unknown type {other:?}")),
        }
    }
}

/// Write `s` as a complete JSON string, quotes included.
fn put_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    json_escape_into(s, out);
    out.write_char('"')
}

/// Write `items` as the elements of a JSON array (no brackets), each by
/// `each`.
fn put_list<W: fmt::Write, T>(
    out: &mut W,
    items: &[T],
    mut each: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        each(out, item)?;
    }
    Ok(())
}

/// Write `[key,value]` string pairs as array elements.
fn put_pairs<W: fmt::Write>(
    out: &mut W,
    pairs: &[(impl AsRef<str>, impl AsRef<str>)],
) -> fmt::Result {
    put_list(out, pairs, |out, (k, v)| {
        out.write_char('[')?;
        put_string(out, k.as_ref())?;
        out.write_char(',')?;
        put_string(out, v.as_ref())?;
        out.write_char(']')
    })
}

fn encode_telemetry<W: fmt::Write>(out: &mut W, batch: &TelemetryBatch) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"telemetry\",\"seq\":\"{}\",\"dropped\":\"{}\",\"spans\":[",
        batch.seq, batch.dropped
    )?;
    put_list(out, &batch.spans, |out, s| {
        write!(out, "{{\"id\":\"{}\"", s.id)?;
        if let Some(p) = s.parent {
            write!(out, ",\"parent\":\"{p}\"")?;
        }
        if let Some(l) = s.link {
            write!(out, ",\"link\":\"{l}\"")?;
        }
        out.write_str(",\"cat\":")?;
        put_string(out, s.category)?;
        out.write_str(",\"name\":")?;
        put_string(out, s.name)?;
        out.write_str(",\"track\":")?;
        put_string(out, &s.track)?;
        write!(
            out,
            ",\"start\":\"{}\",\"end\":\"{}\",\"args\":[",
            s.start_ns, s.end_ns
        )?;
        put_pairs(out, &s.args)?;
        out.write_str("]}")
    })?;
    out.write_str("],\"logs\":[")?;
    put_list(out, &batch.logs, |out, l| {
        write!(
            out,
            "{{\"ts\":\"{}\",\"level\":\"{}\",\"target\":",
            l.ts_ns, l.level
        )?;
        put_string(out, &l.target)?;
        out.write_str(",\"msg\":")?;
        put_string(out, &l.message)?;
        out.write_str(",\"track\":")?;
        put_string(out, &l.track)?;
        out.write_str(",\"fields\":[")?;
        put_pairs(out, &l.fields)?;
        out.write_str("]}")
    })?;
    out.write_str("],\"flows\":[")?;
    put_list(out, &batch.flows, |out, f| {
        write!(out, "{{\"id\":\"{}\",\"name\":", f.id)?;
        put_string(out, f.name)?;
        write!(out, ",\"ts\":\"{}\",\"track\":", f.ts_ns)?;
        put_string(out, &f.track)?;
        write!(out, ",\"start\":{}}}", f.start)
    })?;
    out.write_str("],\"counters\":[")?;
    put_list(out, &batch.counters, |out, (name, delta)| {
        out.write_char('[')?;
        put_string(out, name)?;
        write!(out, ",\"{delta}\"]")
    })?;
    out.write_str("]}")
}

/// `n` in decimal, formatted into the tail of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

/// The bit pattern of `x` as 16 lowercase hex digits, formatted into
/// `buf`: the text `f64_bits_hex` returns.
fn bits_hex(x: f64, buf: &mut [u8; 16]) -> &str {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bits = x.to_bits();
    for (i, digit) in buf.iter_mut().enumerate() {
        *digit = DIGITS[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    std::str::from_utf8(buf).unwrap_or_default()
}

/// Write one repetition's outcome as the `"rep"`, `"ok"` and result
/// fields that a `rep` frame and a checkpoint's pending entry share.
pub(crate) fn write_outcome<W: fmt::Write>(
    out: &mut W,
    rep: u64,
    outcome: &RepOutcome,
) -> fmt::Result {
    out.write_str("\"rep\":\"")?;
    out.write_str(decimal(rep, &mut [0; 20]))?;
    match outcome {
        RepOutcome::Ok {
            completion,
            waiting,
        } => {
            out.write_str("\",\"ok\":true,\"completion\":\"")?;
            out.write_str(bits_hex(*completion, &mut [0; 16]))?;
            out.write_str("\",\"waiting\":\"")?;
            out.write_str(bits_hex(*waiting, &mut [0; 16]))?;
            out.write_char('"')
        }
        RepOutcome::Failed { error } => {
            out.write_str("\",\"ok\":false,\"error\":")?;
            put_string(out, error)
        }
    }
}

/// Reading one JSON object's fields the same way from a parsed [`Value`]
/// (a checkpoint's pending entry) and from a scanned flat frame.
pub(crate) trait Fields {
    /// The field `key`, if it is a string.
    fn str(&self, key: &str) -> Option<Cow<'_, str>>;

    /// The field `key`, if it is a boolean.
    fn bool(&self, key: &str) -> Option<bool>;

    /// A u64 shipped as a decimal string (the JSON parser is f64-based,
    /// so bare numbers would lose precision past 2^53).
    fn u64(&self, key: &str) -> Option<u64> {
        self.str(key)?.parse().ok()
    }
}

impl Fields for Value {
    fn str(&self, key: &str) -> Option<Cow<'_, str>> {
        str_of(self, key).map(Cow::Borrowed)
    }

    fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

/// Read the fields [`write_outcome`] writes; errors start with `what`.
pub(crate) fn read_outcome(v: &impl Fields, what: &str) -> Result<(u64, RepOutcome), String> {
    let rep = v
        .u64("rep")
        .ok_or_else(|| format!("{what}: missing u64 \"rep\""))?;
    let field = |key: &str| v.str(key).ok_or_else(|| format!("{what}: missing {key:?}"));
    let outcome = match v.bool("ok") {
        Some(true) => RepOutcome::Ok {
            completion: f64_from_bits_hex(&field("completion")?)?,
            waiting: f64_from_bits_hex(&field("waiting")?)?,
        },
        Some(false) => RepOutcome::Failed {
            error: field("error")?.into_owned(),
        },
        None => return Err(format!("{what}: missing bool \"ok\"")),
    };
    Ok((rep, outcome))
}

/// Every top-level field a flat frame's decoder reads.
const FLAT_KEYS: [&str; 11] = [
    "type",
    "rep",
    "ok",
    "completion",
    "waiting",
    "error",
    "start",
    "end",
    "grant",
    "worker",
    "message",
];

/// The [`FLAT_KEYS`] fields of one frame body, scanned without building
/// a tree; a later duplicate key wins, as in `json::parse`.
struct Flat<'a> {
    fields: [Option<Scalar<'a>>; FLAT_KEYS.len()],
}

impl<'a> Flat<'a> {
    /// Scan `body`, which must be one JSON document. A document that is
    /// not an object has none of the fields.
    fn scan(body: &'a str) -> Result<Flat<'a>, String> {
        let mut flat = Flat {
            fields: [None; FLAT_KEYS.len()],
        };
        json::scan_object(body, |key, value| {
            let key = key.value();
            if let Some(i) = FLAT_KEYS.iter().position(|k| *k == key) {
                flat.fields[i] = Some(value);
            }
        })?;
        Ok(flat)
    }

    fn field(&self, key: &str) -> Option<Scalar<'a>> {
        let i = FLAT_KEYS.iter().position(|k| *k == key)?;
        self.fields[i]
    }
}

impl Fields for Flat<'_> {
    fn str(&self, key: &str) -> Option<Cow<'_, str>> {
        match self.field(key)? {
            Scalar::Str(s) => Some(s.value()),
            _ => None,
        }
    }

    fn bool(&self, key: &str) -> Option<bool> {
        match self.field(key)? {
            Scalar::Bool(b) => Some(b),
            _ => None,
        }
    }
}

pub(crate) fn str_of<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
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

fn decode_hello(v: &Value) -> Result<Message, String> {
    let protocol = v
        .get("protocol")
        .and_then(Value::as_f64)
        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
        .ok_or("bad hello frame: missing protocol")? as u64;
    let job = v.get("job").ok_or("bad hello frame: missing job")?;
    // `trace` is optional: its absence means "don't collect", and a
    // malformed one is ignored rather than fatal — the campaign must not
    // fail over observability config.
    let trace = v.get("trace").and_then(decode_trace_config);
    Ok(Message::Hello {
        protocol,
        job: JobSpec::from_value(job)?,
        trace,
    })
}

fn decode_trace_config(v: &Value) -> Option<TraceConfig> {
    Some(TraceConfig {
        campaign: str_of(v, "campaign")?.to_owned(),
        level: Level::parse(str_of(v, "level")?).ok()?,
        spans: matches!(v.get("spans"), Some(Value::Bool(true))),
        // Absent on frames from a pre-sampling coordinator: every rep.
        sample: v.u64("sample").unwrap_or(1),
    })
}

fn decode_span(v: &Value) -> Option<SpanRecord> {
    Some(SpanRecord {
        id: v.u64("id")?,
        parent: v.u64("parent"),
        link: v.u64("link"),
        category: intern(str_of(v, "cat")?),
        name: intern(str_of(v, "name")?),
        track: str_of(v, "track").unwrap_or_default().to_owned(),
        process: String::new(),
        start_ns: v.u64("start")?,
        end_ns: v.u64("end")?,
        args: pairs_of(v, "args")
            .into_iter()
            .map(|(k, val)| (intern(&k), val))
            .collect(),
    })
}

fn decode_log(v: &Value) -> Option<LogRecord> {
    Some(LogRecord {
        ts_ns: v.u64("ts")?,
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
        id: v.u64("id")?,
        name: intern(str_of(v, "name")?),
        ts_ns: v.u64("ts")?,
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
        seq: v.u64("seq").ok_or("bad telemetry frame: missing seq")?,
        dropped: v.u64("dropped").unwrap_or(0),
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
    queue(w, msg)?;
    w.flush()
}

/// Write one encoded [`Message`] as a frame without flushing, so a
/// buffered writer can carry several frames in one `write`. The body is
/// encoded straight into `w`, so a flat frame allocates nothing.
pub fn queue(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    let mut len = ByteCount(0);
    let _ = msg.encode_into(&mut len);
    w.write_all(&frame_len(len.0)?.to_be_bytes())?;
    let mut sink = IoSink { w, error: None };
    let written = msg.encode_into(&mut sink);
    match sink.error {
        Some(e) => Err(e),
        None => written.map_err(|_| io::Error::other("frame encoder failed")),
    }
}

/// A `fmt::Write` that only counts the bytes written to it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// A `fmt::Write` over an `io::Write` that keeps the first I/O error.
struct IoSink<'w, W> {
    w: &'w mut W,
    error: Option<io::Error>,
}

impl<W: Write> fmt::Write for IoSink<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.w.write_all(s.as_bytes()).map_err(|e| {
            self.error.get_or_insert(e);
            fmt::Error
        })
    }
}

/// Read and decode one [`Message`]; `Ok(None)` on clean EOF. A session
/// that receives many frames keeps a [`Receiver`] instead.
pub fn recv(r: &mut impl Read) -> io::Result<Option<Message>> {
    Receiver::new(r).recv()
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
            Message::Hello {
                protocol: PROTOCOL_VERSION,
                job: job(),
                trace: None,
            },
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
            Message::HelloOk {
                worker: "w-1".into(),
            },
            Message::Lease {
                start: u64::MAX - 8,
                end: u64::MAX,
                grant: 17,
            },
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
                outcome: RepOutcome::Ok {
                    completion: 123.456789,
                    waiting: -0.0,
                },
            },
            Message::Rep {
                rep: 8,
                outcome: RepOutcome::Failed {
                    error: "team too small \"quoted\"".into(),
                },
            },
            Message::LeaseDone { start: 0, end: 16 },
            Message::Heartbeat,
            Message::Shutdown,
            Message::Bye,
            Message::Error {
                message: "protocol 2 != 1".into(),
            },
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
            outcome: RepOutcome::Ok {
                completion: x,
                waiting: x * 1e-300,
            },
        };
        match Message::decode(&m.encode()).unwrap() {
            Message::Rep {
                outcome:
                    RepOutcome::Ok {
                        completion,
                        waiting,
                    },
                ..
            } => {
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
        assert_eq!(
            lease,
            Message::Lease {
                start: 0,
                end: 8,
                grant: 0
            }
        );
        let hello = Message::Hello {
            protocol: PROTOCOL_VERSION,
            job: job(),
            trace: None,
        };
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
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            "{\"type\":\"heartbeat\"}"
        );
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
        // A failed rep must say why, as a checkpoint's pending entry must.
        let err = Message::decode("{\"type\":\"rep\",\"rep\":\"3\",\"ok\":false}").unwrap_err();
        assert!(err.contains("missing \"error\""), "{err}");
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
