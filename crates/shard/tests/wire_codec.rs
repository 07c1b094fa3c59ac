//! The flat-frame codec against a reference built on `telemetry::json`.
//!
//! The reference decoder parses a frame into a `json::Value` tree and
//! reads its fields, and the reference encoder formats through `String`s;
//! both are what the codec did before it scanned and streamed frames.
//! Seeded random frames, with keys reordered, duplicated and escaped,
//! whitespace between tokens, unknown fields, wrong field types and the
//! awkward `f64` bit patterns, must decode to the same `Message` or be
//! refused by both. Truncated, bit-flipped and spliced bodies, and length
//! prefixes that lie, must come back as errors and never panic.
//!
//! The seed is printed; `WIRE_CODEC_SEED=N` replays one.

use flagsim_shard::wire::{self, Receiver};
use flagsim_shard::{JobSpec, Message, RepOutcome, TelemetryBatch, TraceConfig};
use flagsim_telemetry::json::{self, f64_bits_hex, f64_from_bits_hex, json_string, Value};
use flagsim_telemetry::{FlowRecord, Level, LogRecord, SpanRecord};
use std::fmt::Write as _;
use std::io::{self, Cursor};

/// splitmix64: small, seedable, good enough to pick test cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True `pct` percent of the time.
    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

fn seeded() -> Rng {
    let seed = std::env::var("WIRE_CODEC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
        });
    println!("wire codec seed {seed} (replay with WIRE_CODEC_SEED={seed})");
    Rng(seed)
}

/// The tree decoder for flat frames: `json::parse`, then field lookups.
fn tree_decode(body: &str) -> Result<Message, String> {
    let v = json::parse(body)?;
    let str_of = |key: &str| v.get(key).and_then(Value::as_str);
    let u64_of = |key: &str| str_of(key).and_then(|s| s.parse::<u64>().ok());
    let need = |key: &str| u64_of(key).ok_or(format!("missing u64 {key}"));
    let ty = str_of("type").ok_or("missing type")?;
    Ok(match ty {
        "hello_ok" => Message::HelloOk {
            worker: str_of("worker").unwrap_or("?").to_owned(),
        },
        "lease" => Message::Lease {
            start: need("start")?,
            end: need("end")?,
            grant: u64_of("grant").unwrap_or(0),
        },
        "rep" => {
            let rep = need("rep")?;
            let field = |key: &str| str_of(key).ok_or(format!("missing {key}"));
            let outcome = match v.get("ok") {
                Some(Value::Bool(true)) => RepOutcome::Ok {
                    completion: f64_from_bits_hex(field("completion")?)?,
                    waiting: f64_from_bits_hex(field("waiting")?)?,
                },
                Some(Value::Bool(false)) => RepOutcome::Failed {
                    error: field("error")?.to_owned(),
                },
                _ => return Err("missing ok".into()),
            };
            Message::Rep { rep, outcome }
        }
        "lease_done" => Message::LeaseDone {
            start: need("start")?,
            end: need("end")?,
        },
        "heartbeat" => Message::Heartbeat,
        "shutdown" => Message::Shutdown,
        "bye" => Message::Bye,
        "error" => Message::Error {
            message: str_of("message").unwrap_or("unknown peer error").to_owned(),
        },
        other => return Err(format!("not a flat frame: {other:?}")),
    })
}

/// The string-building encoder for every frame.
fn string_encode(m: &Message) -> String {
    let pairs = |out: &mut String, pairs: &mut dyn Iterator<Item = (&str, &str)>| {
        for (j, (k, v)) in pairs.enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", json_string(k), json_string(v));
        }
    };
    let mut out = String::new();
    match m {
        Message::Hello {
            protocol,
            job,
            trace,
        } => {
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
            let _ = write!(
                out,
                "{{\"type\":\"hello_ok\",\"worker\":{}}}",
                json_string(worker)
            );
        }
        Message::Lease { start, end, grant } => {
            let _ = write!(
                out,
                "{{\"type\":\"lease\",\"start\":\"{start}\",\"end\":\"{end}\",\"grant\":\"{grant}\"}}"
            );
        }
        Message::Telemetry(b) => {
            let _ = write!(
                out,
                "{{\"type\":\"telemetry\",\"seq\":\"{}\",\"dropped\":\"{}\",\"spans\":[",
                b.seq, b.dropped
            );
            for (i, s) in b.spans.iter().enumerate() {
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
                pairs(&mut out, &mut s.args.iter().map(|(k, v)| (*k, v.as_str())));
                out.push_str("]}");
            }
            out.push_str("],\"logs\":[");
            for (i, l) in b.logs.iter().enumerate() {
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
                pairs(
                    &mut out,
                    &mut l.fields.iter().map(|(k, v)| (k.as_str(), v.as_str())),
                );
                out.push_str("]}");
            }
            out.push_str("],\"flows\":[");
            for (i, f) in b.flows.iter().enumerate() {
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
            for (i, (name, delta)) in b.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},\"{delta}\"]", json_string(name));
            }
            out.push_str("]}");
        }
        Message::Rep { rep, outcome } => {
            let _ = match outcome {
                RepOutcome::Ok { completion, waiting } => write!(
                    out,
                    "{{\"type\":\"rep\",\"rep\":\"{rep}\",\"ok\":true,\"completion\":\"{}\",\"waiting\":\"{}\"}}",
                    f64_bits_hex(*completion),
                    f64_bits_hex(*waiting)
                ),
                RepOutcome::Failed { error } => write!(
                    out,
                    "{{\"type\":\"rep\",\"rep\":\"{rep}\",\"ok\":false,\"error\":{}}}",
                    json_string(error)
                ),
            };
        }
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
            let _ = write!(
                out,
                "{{\"type\":\"error\",\"message\":{}}}",
                json_string(message)
            );
        }
    }
    out
}

/// Equal as frames: float fields compare by bits, so NaNs match.
fn same(a: &Message, b: &Message) -> bool {
    match (a, b) {
        (
            Message::Rep {
                rep: ra,
                outcome:
                    RepOutcome::Ok {
                        completion: ca,
                        waiting: wa,
                    },
            },
            Message::Rep {
                rep: rb,
                outcome:
                    RepOutcome::Ok {
                        completion: cb,
                        waiting: wb,
                    },
            },
        ) => ra == rb && ca.to_bits() == cb.to_bits() && wa.to_bits() == wb.to_bits(),
        _ => a == b,
    }
}

/// Decode `body` with the codec and the tree decoder; they must agree.
fn agree(body: &str) {
    match (Message::decode(body), tree_decode(body)) {
        (Ok(new), Ok(old)) => assert!(same(&new, &old), "{body:?}: {new:?} != {old:?}"),
        (Err(_), Err(_)) => {}
        (new, old) => panic!("{body:?}: codec says {new:?}, tree decoder says {old:?}"),
    }
}

/// Float bit patterns that must cross bit for bit.
const BITS: [u64; 12] = [
    0x7ff8_0000_0000_0000, // quiet NaN
    0xfff8_0000_0000_0001, // negative NaN with payload
    0x7ff0_0000_0000_0001, // signalling NaN
    0x8000_0000_0000_0000, // -0.0
    0x0000_0000_0000_0000, // +0.0
    0x0000_0000_0000_0001, // smallest subnormal
    0x000f_ffff_ffff_ffff, // largest subnormal
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x7fef_ffff_ffff_ffff, // f64::MAX
    0x3ff0_0000_0000_0000, // 1.0
    0x4058_ed2f_1a9f_be77, // an ordinary completion time
];

const PALETTE: [&str; 16] = [
    "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\r", "\u{1}", "\u{1f}", "ü", "⚑", "{", "]",
];

fn text(rng: &mut Rng) -> String {
    (0..rng.below(10)).map(|_| rng.pick(&PALETTE)).collect()
}

fn u64_value(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next() % 1000,
        _ => rng.next(),
    }
}

fn bits(rng: &mut Rng) -> f64 {
    f64::from_bits(if rng.chance(70) {
        rng.pick(&BITS)
    } else {
        rng.next()
    })
}

/// One random flat frame, as a message.
fn flat_message(rng: &mut Rng) -> Message {
    match rng.below(9) {
        0 | 1 => Message::Rep {
            rep: u64_value(rng),
            outcome: RepOutcome::Ok {
                completion: bits(rng),
                waiting: bits(rng),
            },
        },
        2 => Message::Rep {
            rep: u64_value(rng),
            outcome: RepOutcome::Failed { error: text(rng) },
        },
        3 => Message::Lease {
            start: u64_value(rng),
            end: u64_value(rng),
            grant: u64_value(rng),
        },
        4 => Message::LeaseDone {
            start: u64_value(rng),
            end: u64_value(rng),
        },
        5 => Message::HelloOk { worker: text(rng) },
        6 => Message::Error { message: text(rng) },
        7 => [Message::Heartbeat, Message::Shutdown, Message::Bye][rng.below(3)].clone(),
        _ => Message::Lease {
            start: u64_value(rng),
            end: u64_value(rng),
            grant: 0,
        },
    }
}

/// `s` as a JSON string, with some characters spelled as escapes the
/// encoder never writes (`\uXXXX` in either case, `\/`).
fn spelled(rng: &mut Rng, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if rng.chance(15) && (c as u32) < 0x10000 {
            if rng.chance(50) {
                let _ = write!(out, "\\u{:04x}", c as u32);
            } else {
                let _ = write!(out, "\\u{:04X}", c as u32);
            }
        } else if c == '/' && rng.chance(50) {
            out.push_str("\\/");
        } else {
            let quoted = json_string(&c.to_string());
            out.push_str(&quoted[1..quoted.len() - 1]);
        }
    }
    out.push('"');
    out
}

/// A value of the wrong shape, or an unknown field's value.
fn stray_value(rng: &mut Rng, depth: usize) -> String {
    match rng.below(if depth > 3 { 6 } else { 8 }) {
        0 => "null".into(),
        1 => rng.pick(&["true", "false"]).into(),
        2 => rng
            .pick(&["0", "-0", "12", "1.5e3", "-2E-2", "9007199254740993"])
            .into(),
        3 => {
            let t = text(rng);
            spelled(rng, &t)
        }
        4 => rng
            .pick(&["\"\\ud800\"", "\"\\udc00x\"", "\"\"", "\"+5\"", "\"-1\""])
            .into(),
        5 => "[]".into(),
        6 => format!(
            "[{},{}]",
            stray_value(rng, depth + 1),
            stray_value(rng, depth + 1)
        ),
        _ => format!(
            "{{\"k\":{},\"type\":{}}}",
            stray_value(rng, depth + 1),
            stray_value(rng, depth + 1)
        ),
    }
}

/// A spelling of `v`'s decimal-string u64 that the tree decoder may or
/// may not accept: signs, blanks, overflow, non-strings.
fn u64_spelling(rng: &mut Rng, v: u64) -> String {
    match rng.below(12) {
        0 => format!("\"+{v}\""),
        1 => format!("{v}"),
        2 => format!("\" {v}\""),
        3 => "\"18446744073709551616\"".into(),
        4 => format!("\"0{v}\""),
        _ => spelled(rng, &v.to_string()),
    }
}

fn hex_spelling(rng: &mut Rng, x: f64) -> String {
    let hex = f64_bits_hex(x);
    match rng.below(10) {
        0 => format!("\"{}\"", hex.to_uppercase()),
        1 => format!("\"{}\"", &hex[1..]),
        2 => format!("\"+{}\"", &hex[1..]),
        3 => format!("\"{hex}0\""),
        _ => spelled(rng, &hex),
    }
}

/// The members of `m`'s frame body as (key, value) JSON text, with the
/// odd field spelled strangely.
fn members(rng: &mut Rng, m: &Message) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let ty = |m: &Message| match m {
        Message::Rep { .. } => "rep",
        Message::Lease { .. } => "lease",
        Message::LeaseDone { .. } => "lease_done",
        Message::HelloOk { .. } => "hello_ok",
        Message::Error { .. } => "error",
        Message::Heartbeat => "heartbeat",
        Message::Shutdown => "shutdown",
        _ => "bye",
    };
    let odd = rng.chance(25);
    let num = |rng: &mut Rng, key: &str, v: u64| {
        let spelling = if odd && rng.chance(30) {
            u64_spelling(rng, v)
        } else {
            spelled(rng, &v.to_string())
        };
        (key.to_owned(), spelling)
    };
    out.push(("type".to_owned(), spelled(rng, ty(m))));
    match m {
        Message::Rep { rep, outcome } => {
            out.push(num(rng, "rep", *rep));
            match outcome {
                RepOutcome::Ok {
                    completion,
                    waiting,
                } => {
                    out.push(("ok".into(), "true".into()));
                    for (key, x) in [("completion", *completion), ("waiting", *waiting)] {
                        let spelling = if odd && rng.chance(30) {
                            hex_spelling(rng, x)
                        } else {
                            spelled(rng, &f64_bits_hex(x))
                        };
                        out.push((key.into(), spelling));
                    }
                }
                RepOutcome::Failed { error } => {
                    out.push(("ok".into(), "false".into()));
                    out.push(("error".into(), spelled(rng, error)));
                }
            }
        }
        Message::Lease { start, end, grant } => {
            out.push(num(rng, "start", *start));
            out.push(num(rng, "end", *end));
            if *grant != 0 || rng.chance(50) {
                out.push(num(rng, "grant", *grant));
            }
        }
        Message::LeaseDone { start, end } => {
            out.push(num(rng, "start", *start));
            out.push(num(rng, "end", *end));
        }
        Message::HelloOk { worker } => out.push(("worker".into(), spelled(rng, worker))),
        Message::Error { message } => out.push(("message".into(), spelled(rng, message))),
        _ => {}
    }
    if odd {
        // A field of the wrong type, dropped, or unknown.
        let i = rng.below(out.len());
        match rng.below(3) {
            0 => out[i].1 = stray_value(rng, 0),
            1 => {
                out.remove(i);
            }
            _ => out[i].0 = rng.pick(&["tipe", "Type", "ok ", ""]).into(),
        }
    }
    for _ in 0..rng.below(3) {
        let key = rng
            .pick(&["x", "trace", "job", "spans", "grant2", "\u{e9}"])
            .to_owned();
        out.push((key, stray_value(rng, 0)));
    }
    out
}

fn blank(rng: &mut Rng) -> &'static str {
    if rng.chance(70) {
        ""
    } else {
        rng.pick(&[" ", "\n", "\t", "\r\n  "])
    }
}

/// A frame body from `members`, shuffled, with a key duplicated now and
/// then (the later one wins) and whitespace around the tokens.
fn body(rng: &mut Rng, mut members: Vec<(String, String)>) -> String {
    for i in (1..members.len()).rev() {
        let j = rng.below(i + 1);
        members.swap(i, j);
    }
    if !members.is_empty() && rng.chance(15) {
        let (key, _) = members[rng.below(members.len())].clone();
        members.insert(0, (key, stray_value(rng, 0)));
    }
    let mut out = String::new();
    out.push_str(blank(rng));
    out.push('{');
    for (i, (k, v)) in members.iter().enumerate() {
        if i > 0 {
            out.push_str(blank(rng));
            out.push(',');
        }
        let _ = write!(
            out,
            "{}{}{}:{}{}",
            blank(rng),
            spelled(rng, k),
            blank(rng),
            blank(rng),
            v
        );
    }
    out.push_str(blank(rng));
    out.push('}');
    out.push_str(blank(rng));
    out
}

#[test]
fn every_flat_frame_decodes_as_the_tree_decoder_decodes_it() {
    let mut rng = seeded();
    for _ in 0..20_000 {
        let m = flat_message(&mut rng);
        let decoded = Message::decode(&m.encode()).unwrap_or_else(|e| panic!("{m:?}: {e}"));
        assert!(same(&decoded, &m), "{m:?} came back as {decoded:?}");
        let members = members(&mut rng, &m);
        agree(&body(&mut rng, members));
    }
}

#[test]
fn the_encoder_writes_the_string_encoders_bytes() {
    let mut rng = seeded();
    let job = JobSpec {
        scenario: "4".into(),
        flag: "Mauritius \"m\"".into(),
        kind: "thick".into(),
        seed: u64::MAX,
        reps: 8192,
        team: 4,
        warmup: true,
    };
    let names = ["sim", "shard", "lease", "sweep.rep"];
    for round in 0..2_000 {
        let m = match round % 4 {
            0 => Message::Hello {
                protocol: 1,
                job: job.clone(),
                trace: rng.chance(50).then(|| TraceConfig {
                    campaign: text(&mut rng),
                    level: Level::Debug,
                    spans: rng.chance(50),
                    sample: u64_value(&mut rng),
                }),
            },
            1 => Message::Telemetry(TelemetryBatch {
                seq: u64_value(&mut rng),
                dropped: u64_value(&mut rng),
                spans: (0..rng.below(3))
                    .map(|_| SpanRecord {
                        id: u64_value(&mut rng),
                        parent: rng.chance(50).then(|| u64_value(&mut rng)),
                        link: rng.chance(50).then(|| u64_value(&mut rng)),
                        category: rng.pick(&names),
                        name: rng.pick(&names),
                        track: text(&mut rng),
                        process: String::new(),
                        start_ns: u64_value(&mut rng),
                        end_ns: u64_value(&mut rng),
                        args: (0..rng.below(3))
                            .map(|_| (rng.pick(&names), text(&mut rng)))
                            .collect(),
                    })
                    .collect(),
                logs: (0..rng.below(3))
                    .map(|_| LogRecord {
                        ts_ns: u64_value(&mut rng),
                        level: Level::Warn,
                        target: text(&mut rng),
                        message: text(&mut rng),
                        fields: (0..rng.below(3))
                            .map(|_| (text(&mut rng), text(&mut rng)))
                            .collect(),
                        track: text(&mut rng),
                        process: String::new(),
                    })
                    .collect(),
                flows: (0..rng.below(3))
                    .map(|_| FlowRecord {
                        id: u64_value(&mut rng),
                        name: rng.pick(&names),
                        ts_ns: u64_value(&mut rng),
                        track: text(&mut rng),
                        process: String::new(),
                        start: rng.chance(50),
                    })
                    .collect(),
                counters: (0..rng.below(3))
                    .map(|_| (text(&mut rng), u64_value(&mut rng)))
                    .collect(),
            }),
            _ => flat_message(&mut rng),
        };
        let want = string_encode(&m);
        assert_eq!(m.encode(), want);
        let mut framed = Vec::new();
        wire::queue(&mut framed, &m).expect("queued");
        assert_eq!(framed[..4], (want.len() as u32).to_be_bytes(), "{want}");
        assert_eq!(&framed[4..], want.as_bytes());
    }
}

#[test]
fn damaged_bodies_are_refused_as_the_tree_decoder_refuses_them() {
    let mut rng = seeded();
    for _ in 0..2_000 {
        let m = flat_message(&mut rng);
        let members = members(&mut rng, &m);
        let whole = body(&mut rng, members);
        // Every truncation: the codec must refuse what the tree refuses.
        for cut in (0..whole.len()).filter(|&i| whole.is_char_boundary(i)) {
            agree(&whole[..cut]);
        }
        // Bit flips: a body that is still UTF-8 decodes as the tree says;
        // one that is not is refused at the frame layer.
        for _ in 0..8 {
            let mut bytes = whole.clone().into_bytes();
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
            match String::from_utf8(bytes.clone()) {
                Ok(flipped) => agree(&flipped),
                Err(_) => {
                    let mut framed = (bytes.len() as u32).to_be_bytes().to_vec();
                    framed.extend(&bytes);
                    let err = Receiver::new(Cursor::new(framed)).recv().unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                }
            }
        }
        // Splices of two frames' bodies.
        let other = flat_message(&mut rng).encode();
        for _ in 0..4 {
            let (a, b) = (rng.below(whole.len() + 1), rng.below(other.len() + 1));
            if whole.is_char_boundary(a) && other.is_char_boundary(b) {
                agree(&format!("{}{}", &whole[..a], &other[b..]));
            }
        }
    }
}

#[test]
fn length_prefixes_that_lie_are_errors_not_panics() {
    let mut rng = seeded();
    for _ in 0..2_000 {
        let frames: Vec<Message> = (0..3).map(|_| flat_message(&mut rng)).collect();
        let mut stream = Vec::new();
        for m in &frames {
            wire::queue(&mut stream, m).expect("queued");
        }
        // Rewrite the first prefix to claim a different length.
        let len = u32::from_be_bytes([stream[0], stream[1], stream[2], stream[3]]);
        let lie = match rng.below(4) {
            0 => len.saturating_sub(1 + rng.below(len as usize) as u32),
            1 => len + 1 + rng.below(64) as u32,
            2 => wire::MAX_FRAME_BYTES + 1,
            _ => rng.next() as u32,
        };
        if lie == len {
            continue;
        }
        stream[..4].copy_from_slice(&lie.to_be_bytes());
        let mut rx = Receiver::new(Cursor::new(stream));
        // Each read consumes at least a prefix, so this ends; it must end
        // in an error or a clean EOF, never a panic. A prefix past the
        // cap or past the stream's end is an error on the first read.
        let first = rx.recv();
        if lie > wire::MAX_FRAME_BYTES {
            assert_eq!(first.unwrap_err().kind(), io::ErrorKind::InvalidData);
            continue;
        }
        let mut next = first;
        while let Ok(Some(_)) = next {
            next = rx.recv();
        }
    }
}

#[test]
fn oversized_messages_are_refused_before_any_byte_is_written() {
    let m = Message::Error {
        message: "x".repeat(wire::MAX_FRAME_BYTES as usize),
    };
    let mut out = Vec::new();
    let err = wire::queue(&mut out, &m).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(
        out.is_empty(),
        "wrote {} byte(s) of a refused frame",
        out.len()
    );
}
