//! Durable sweep checkpoints: kill the process, resume the campaign,
//! finish with bit-identical statistics.
//!
//! A checkpoint is the coordinator's merge state frozen to JSON: the
//! job's canonical spec and fingerprint, the merged-rep *watermark*,
//! exact bit-level [`StreamingStats`]
//! snapshots of both accumulators (every float as IEEE-754 hex bits —
//! see `metrics::streaming`), the recorded per-rep failures, and any
//! completed-but-unmerged repetitions still parked in the reorder
//! buffer. Restoring replays the pending set into a fresh
//! [`MergeState`], so the resumed campaign owes exactly the reps the
//! killed one never finished, and the accumulators continue from the
//! same internal state they would have had — which is what makes
//! resume-after-kill equal an uninterrupted run bit for bit.
//!
//! Files are written atomically (temp file + rename) so a kill *during*
//! a checkpoint write leaves the previous checkpoint intact, and
//! [`load`](Checkpoint::load) refuses files whose fingerprint does not
//! match their own job spec (truncation, tampering, or a spec edit) or
//! whose parts contradict each other ([`Inconsistency`]).

use crate::job::JobSpec;
use crate::wire::{read_outcome, str_of, write_outcome, Fields as _};
use flagsim_core::sweep::{MergeState, RepOutcome, SweepFailure};
use flagsim_metrics::StreamingStats;
use flagsim_telemetry::json::{self, json_string, Value};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Checkpoint file format revision.
pub const CHECKPOINT_VERSION: u64 = 1;

/// How a checkpoint's parts can contradict each other. Each would resume
/// into wrong statistics without an error, so
/// [`from_json`](Checkpoint::from_json) refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inconsistency {
    /// The watermark is past the job's reps, or is not the merged
    /// successes plus the recorded failures.
    Watermark,
    /// The completion and waiting accumulators hold different counts.
    AccumulatorCounts,
    /// This failure rep is not above the one before it and below the
    /// watermark.
    FailureRep(u64),
    /// This pending rep is not above the one before it and strictly
    /// between the watermark and the job's rep count.
    PendingRep(u64),
}

impl std::fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inconsistency::Watermark => {
                f.write_str("watermark is past the job's reps or not successes + failures")
            }
            Inconsistency::AccumulatorCounts => {
                f.write_str("completion and waiting hold different counts")
            }
            Inconsistency::FailureRep(rep) => {
                write!(
                    f,
                    "failure rep {rep} is out of order or not below the watermark"
                )
            }
            Inconsistency::PendingRep(rep) => {
                write!(
                    f,
                    "pending rep {rep} is out of order or outside (watermark, reps)"
                )
            }
        }
    }
}

impl std::error::Error for Inconsistency {}

/// A sweep campaign frozen mid-flight.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The campaign's job spec (source of truth on resume).
    pub job: JobSpec,
    /// Reps `0..watermark` are folded into the accumulators.
    pub watermark: u64,
    /// Completion-seconds accumulator, bit-exact.
    pub completion: StreamingStats,
    /// Waiting-seconds accumulator, bit-exact.
    pub waiting: StreamingStats,
    /// Per-rep failures recorded so far, in rep order.
    pub failures: Vec<SweepFailure>,
    /// Completed-but-unmerged outcomes (above the watermark, behind a
    /// gap).
    pub pending: Vec<(u64, RepOutcome)>,
}

impl Checkpoint {
    /// Freeze a merge state (plus its job) into a checkpoint.
    pub fn from_merge(job: &JobSpec, merge: &MergeState) -> Self {
        let (completion, waiting) = merge.accumulators();
        Checkpoint {
            job: job.clone(),
            watermark: merge.merged(),
            completion: completion.clone(),
            waiting: waiting.clone(),
            failures: merge.failures().to_vec(),
            pending: merge.pending_outcomes(),
        }
    }

    /// Thaw back into a merge state ready to accept the missing reps.
    pub fn into_merge(self) -> MergeState {
        MergeState::restore(
            self.job.reps,
            self.watermark,
            self.completion,
            self.waiting,
            self.failures,
            self.pending,
        )
    }

    /// Check that the parts agree with each other and with the job:
    /// every rep below the watermark merged exactly once, as a success in
    /// both accumulators or as a failure below the watermark, and every
    /// pending rep lies above it, inside the job, in ascending order.
    pub fn check(&self) -> Result<(), Inconsistency> {
        let successes = self.completion.n();
        let merged = successes.checked_add(self.failures.len() as u64);
        if self.watermark > self.job.reps || merged != Some(self.watermark) {
            return Err(Inconsistency::Watermark);
        }
        if self.waiting.n() != successes {
            return Err(Inconsistency::AccumulatorCounts);
        }
        let failures = self.failures.iter().map(|f| f.rep);
        rising(failures, 0, self.watermark).map_err(Inconsistency::FailureRep)?;
        let pending = self.pending.iter().map(|&(rep, _)| rep);
        let above = self.watermark.saturating_add(1);
        rising(pending, above, self.job.reps).map_err(Inconsistency::PendingRep)
    }

    /// Serialize to the checkpoint JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"version\":{CHECKPOINT_VERSION},\"fingerprint\":{},\"job\":{},\"watermark\":\"{}\"",
            json_string(&self.job.fingerprint()),
            self.job.to_json(),
            self.watermark,
        );
        let _ = write!(out, ",\"completion\":{}", self.completion.to_json());
        let _ = write!(out, ",\"waiting\":{}", self.waiting.to_json());
        out.push_str(",\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rep\":\"{}\",\"error\":{}}}",
                f.rep,
                json_string(&f.error)
            );
        }
        out.push_str("],\"pending\":[");
        for (i, (rep, outcome)) in self.pending.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            let _ = write_outcome(&mut out, *rep, outcome);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a checkpoint document, verifying version, fingerprint and
    /// [`check`](Checkpoint::check).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("checkpoint: {e}"))?;
        let version = v
            .get("version")
            .and_then(Value::as_f64)
            .filter(|n| n.fract() == 0.0)
            .ok_or("checkpoint: missing version")? as u64;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint: version {version} unsupported (this build reads {CHECKPOINT_VERSION})"
            ));
        }
        let job_v = v.get("job").ok_or("checkpoint: missing job")?;
        let job = JobSpec::from_value(job_v)?;
        let recorded = v
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or("checkpoint: missing fingerprint")?;
        if recorded != job.fingerprint() {
            return Err(format!(
                "checkpoint: fingerprint {recorded:?} does not match its own job spec \
                 ({:?}) — file corrupt or hand-edited",
                job.fingerprint()
            ));
        }
        let watermark = v
            .u64("watermark")
            .ok_or("checkpoint: missing u64 watermark")?;
        let completion = StreamingStats::from_value(
            v.get("completion")
                .ok_or("checkpoint: missing completion")?,
        )?;
        let waiting =
            StreamingStats::from_value(v.get("waiting").ok_or("checkpoint: missing waiting")?)?;
        let mut failures = Vec::new();
        for f in v
            .get("failures")
            .and_then(Value::as_array)
            .ok_or("checkpoint: missing failures")?
        {
            let rep = f.u64("rep").ok_or("checkpoint: failure missing u64 rep")?;
            let error = str_of(f, "error").ok_or("checkpoint: failure missing error")?;
            failures.push(SweepFailure {
                rep,
                error: error.to_owned(),
            });
        }
        let pending = v
            .get("pending")
            .and_then(Value::as_array)
            .ok_or("checkpoint: missing pending")?
            .iter()
            .map(|p| read_outcome(p, "checkpoint: pending entry"))
            .collect::<Result<_, _>>()?;
        let checkpoint = Checkpoint {
            job,
            watermark,
            completion,
            waiting,
            failures,
            pending,
        };
        checkpoint.check().map_err(|e| format!("checkpoint: {e}"))?;
        Ok(checkpoint)
    }

    /// Write atomically: serialize to `<path>.tmp`, fsync, rename over
    /// `path`. A kill mid-write leaves the previous checkpoint intact.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, self.to_json().as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Read and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }
}

/// Ok when `reps` rise strictly from `floor` and stay below `end`;
/// otherwise the first rep that does not.
fn rising(reps: impl Iterator<Item = u64>, mut floor: u64, end: u64) -> Result<(), u64> {
    for rep in reps {
        if rep < floor || rep >= end {
            return Err(rep);
        }
        floor = rep + 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobSpec {
        JobSpec {
            scenario: "4".into(),
            flag: "Mauritius".into(),
            kind: "dauber".into(),
            seed: 42,
            reps: 12,
            team: 4,
            warmup: false,
        }
    }

    fn merge_with_gap() -> MergeState {
        let mut m = MergeState::new(12);
        for i in 0..5u64 {
            m.accept(
                i,
                RepOutcome::Ok {
                    completion: 1.0 / (i + 1) as f64,
                    waiting: 0.5,
                },
            );
        }
        m.accept(
            5,
            RepOutcome::Failed {
                error: "marker ran dry".into(),
            },
        );
        m.accept(
            8,
            RepOutcome::Ok {
                completion: 0.125,
                waiting: 0.25,
            },
        ); // buffered
        m
    }

    #[test]
    fn round_trip_preserves_every_bit_of_merge_state() {
        let m = merge_with_gap();
        let ck = Checkpoint::from_merge(&job(), &m);
        let back = Checkpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(back.watermark, 6);
        assert_eq!(back.failures.len(), 1);
        assert_eq!(
            back.pending,
            vec![(
                8,
                RepOutcome::Ok {
                    completion: 0.125,
                    waiting: 0.25
                }
            )]
        );
        assert_eq!(back.completion.to_json(), ck.completion.to_json());
        assert_eq!(back.waiting.to_json(), ck.waiting.to_json());
        // Thawed merge owes exactly the missing reps.
        let restored = back.into_merge();
        assert_eq!(restored.missing_ranges(), vec![(6, 8), (9, 12)]);
    }

    #[test]
    fn resumed_merge_finishes_identically_to_uninterrupted() {
        let outcome = |i: u64| RepOutcome::Ok {
            completion: (i as f64).sin().abs() + 0.01,
            waiting: (i as f64).cos().abs(),
        };
        let mut whole = MergeState::new(12);
        for i in 0..12 {
            whole.accept(i, outcome(i));
        }
        let mut head = MergeState::new(12);
        for i in 0..7 {
            head.accept(i, outcome(i));
        }
        head.accept(10, outcome(10));
        let ck = Checkpoint::from_merge(&job(), &head);
        let mut resumed = Checkpoint::from_json(&ck.to_json()).unwrap().into_merge();
        for (s, e) in resumed.missing_ranges() {
            for i in s..e {
                resumed.accept(i, outcome(i));
            }
        }
        assert!(resumed.is_complete());
        let (a, aw) = resumed.finish().unwrap();
        let (b, bw) = whole.finish().unwrap();
        for (x, y) in [
            (a.mean, b.mean),
            (a.stddev, b.stddev),
            (a.median, b.median),
            (a.min, b.min),
            (a.max, b.max),
            (aw.mean, bw.mean),
            (aw.stddev, bw.stddev),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let ck = Checkpoint::from_merge(&job(), &merge_with_gap());
        let text = ck.to_json();
        // Tamper with the job's seed; the recorded fingerprint no longer
        // matches the spec it sits next to.
        let tampered = text.replace("\"seed\":\"42\"", "\"seed\":\"43\"");
        assert_ne!(tampered, text);
        let err = Checkpoint::from_json(&tampered).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(Checkpoint::from_json("not json").is_err());
        assert!(Checkpoint::from_json("{\"version\":9}").is_err());
        let ck = Checkpoint::from_merge(&job(), &merge_with_gap());
        let text = ck
            .to_json()
            .replace("\"watermark\":\"6\"", "\"watermark\":\"99\"");
        let err = Checkpoint::from_json(&text).unwrap_err();
        assert!(err.contains("watermark"), "{err}");
    }

    /// `ck`, which breaks one consistency rule, is refused both by
    /// [`Checkpoint::check`] with `want` and when loaded from its JSON.
    fn assert_inconsistent(ck: Checkpoint, want: Inconsistency) {
        assert_eq!(ck.check(), Err(want));
        let err = Checkpoint::from_json(&ck.to_json()).unwrap_err();
        assert!(err.contains(&want.to_string()), "{err}");
    }

    #[test]
    fn watermark_must_count_successes_and_failures() {
        // Watermark 6 over 5 successes and 1 failure; claim 8 instead.
        let mut ck = Checkpoint::from_merge(&job(), &merge_with_gap());
        ck.watermark = 8;
        ck.pending.clear();
        assert_inconsistent(ck, Inconsistency::Watermark);
        // Counts that add up, past the job's 12 reps.
        let mut m = MergeState::new(20);
        for i in 0..13 {
            m.accept(
                i,
                RepOutcome::Ok {
                    completion: 1.0,
                    waiting: 0.5,
                },
            );
        }
        assert_inconsistent(Checkpoint::from_merge(&job(), &m), Inconsistency::Watermark);
    }

    #[test]
    fn accumulators_must_agree_on_their_count() {
        let mut ck = Checkpoint::from_merge(&job(), &merge_with_gap());
        ck.waiting.push(0.5);
        assert_inconsistent(ck, Inconsistency::AccumulatorCounts);
    }

    #[test]
    fn failure_reps_must_rise_below_the_watermark() {
        let base = Checkpoint::from_merge(&job(), &merge_with_gap());
        // At the watermark: that rep has not merged yet.
        let mut at_watermark = base.clone();
        at_watermark.failures[0].rep = 6;
        assert_inconsistent(at_watermark, Inconsistency::FailureRep(6));
        // Two failures out of order (one success traded for a failure,
        // so the counts still add up to the watermark).
        let mut m = MergeState::new(12);
        m.accept(0, RepOutcome::Failed { error: "a".into() });
        m.accept(
            1,
            RepOutcome::Ok {
                completion: 1.0,
                waiting: 0.5,
            },
        );
        m.accept(2, RepOutcome::Failed { error: "b".into() });
        let mut swapped = Checkpoint::from_merge(&job(), &m);
        swapped.failures.swap(0, 1);
        assert_inconsistent(swapped, Inconsistency::FailureRep(0));
    }

    #[test]
    fn pending_reps_must_rise_between_watermark_and_rep_count() {
        let base = Checkpoint::from_merge(&job(), &merge_with_gap());
        let outcome = RepOutcome::Ok {
            completion: 0.5,
            waiting: 0.5,
        };
        for (rep, pending) in [
            (6, vec![6]),
            (12, vec![12]),
            (7, vec![8, 7]),
            (8, vec![8, 8]),
        ] {
            let mut ck = base.clone();
            ck.pending = pending.into_iter().map(|r| (r, outcome.clone())).collect();
            assert_inconsistent(ck, Inconsistency::PendingRep(rep));
        }
    }

    #[test]
    fn nesting_bomb_checkpoint_file_is_rejected() {
        let dir = std::env::temp_dir().join(format!("flagsim-ckpt-bomb-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for (name, bomb) in [
            ("arrays", "[".repeat(1_000_000)),
            ("objects", "{\"job\":".repeat(200_000)),
        ] {
            let path = dir.join(format!("{name}.ckpt"));
            fs::write(&path, bomb).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("flagsim-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let ck = Checkpoint::from_merge(&job(), &merge_with_gap());
        ck.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.watermark, ck.watermark);
        ck.save(&path).unwrap(); // overwrite in place works too
        fs::remove_dir_all(&dir).ok();
    }
}
