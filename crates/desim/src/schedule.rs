//! Schedule policies: the engine's tie-breaks as explicit choice points.
//!
//! The engine is deterministic, but two of its rules are arbitrary in a
//! way the classroom is not: when several students' wake-ups land on the
//! same millisecond, insertion order picks who moves first, and when a
//! marker frees up with several students having asked for it *at the same
//! instant*, queue order picks who gets it. Both are exactly the ties
//! simcheck's SC302 flags on a single observed trace. A [`SchedulePolicy`]
//! makes those ties explicit: with a policy installed the engine stops
//! silently tie-breaking and instead asks the policy to choose among the
//! *semantically unordered* candidates, reporting enough context (a
//! canonical state hash, the cascade footprints) for a model checker to
//! enumerate every resolution. Without a policy the engine's behavior is
//! bit-for-bit what it always was.
//!
//! Candidate lists are canonicalized by process id, *not* by insertion
//! sequence: two schedules that reach the same semantic state through
//! different interleavings present identical choice points, which is what
//! makes state hashing and partial-order reduction sound.
//!
//! The policy is the engine's second type parameter. The default,
//! [`NoPolicy`], is zero-sized and answers [`SchedulePolicy::policed`]
//! with `false`, so every policy branch in the event loop compiles away.
//!
//! The state hash costs a pass over every slot and resource, so the
//! engine computes it only for a choice point whose policy reads it
//! ([`SchedulePolicy::reads_state_hash`]). A [`ForcedSchedule`] reads the
//! hash of each decision past its script, up to the first that reaches a
//! state in its [`KnownStates`]; a decision it replays from the script
//! carries 0. Reaching a known state also ends the run
//! ([`SchedulePolicy::ends_run`]) once the engine has finished that
//! simulated instant: the rest of the run is already explored.

use crate::engine::ProcId;
use crate::resource::ResourceId;
use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME_POW[k]` is `FNV_PRIME` to the `k`-th power, wrapping.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Fold one `u64` into an FNV-1a 64-bit hash: its eight little-endian
/// bytes, low byte first, bit for bit. XOR with a zero byte changes
/// nothing, so the value's zero high bytes fold into one multiply by a
/// power of the prime together with its top significant byte: a value
/// below 256 costs one multiply, not eight.
#[inline]
pub fn fnv_mix(mut hash: u64, mut value: u64) -> u64 {
    // Significant bytes, at least one (zero's lone byte joins the tail).
    let bytes = (u64::BITS - value.leading_zeros()).div_ceil(8).max(1) as usize;
    for _ in 1..bytes {
        hash = (hash ^ (value & 0xff)).wrapping_mul(FNV_PRIME);
        value >>= 8;
    }
    (hash ^ value).wrapping_mul(FNV_PRIME_POW[9 - bytes])
}

/// Fold one `u64` into a running hash a whole word at a time: one
/// rotate, xor and multiply, where [`fnv_mix`] spends eight dependent
/// multiplies. Each step is a bijection of `hash` for a fixed `value` (and
/// of `value` for a fixed `hash`), so two word sequences of equal length
/// that differ in one word never collide. The engine's state hash and
/// poll-history fingerprints use it; persisted fingerprints stay FNV-1a.
#[inline]
pub(crate) fn word_mix(hash: u64, value: u64) -> u64 {
    (hash.rotate_left(5) ^ value).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Fold a string into an FNV-1a 64-bit hash.
#[inline]
pub fn fnv_mix_str(mut hash: u64, s: &str) -> u64 {
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    // Length terminator so "ab","c" and "a","bc" hash differently.
    fnv_mix(hash, s.len() as u64)
}

/// Which of the engine's two tie-break rules a choice point comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceKind {
    /// Several wake-ups are due at the same instant: who fires first?
    Wakeup,
    /// A unit of this resource freed up with several waiters blocked
    /// since the same instant: who is granted?
    Grant(ResourceId),
}

/// One choice point, presented to a [`SchedulePolicy`].
#[derive(Debug)]
pub struct ChoicePoint<'a> {
    /// Wake-up tie or grant tie.
    pub kind: ChoiceKind,
    /// Simulation time at which the tie occurs.
    pub at: SimTime,
    /// The tied processes, sorted by process id (canonical order,
    /// independent of how the tie was reached). Always ≥ 2 entries —
    /// singletons are not choice points.
    pub candidates: &'a [ProcId],
    /// Canonical hash of the engine state at this choice point (see
    /// `Engine::state_hash`): equal hashes mean the remaining schedule
    /// space is identical. Computed only when the policy's
    /// [`SchedulePolicy::reads_state_hash`] says so beforehand; 0
    /// otherwise.
    pub state_hash: u64,
}

/// A pluggable tie-breaker for the engine's two nondeterministic rules.
///
/// The engine's policy type parameter (installed with
/// `Engine::with_policy` or `Engine::with_schedule_policy`). The engine
/// only consults the policy when a tie has two or more candidates, so the
/// sequence of [`ChoicePoint`]s a run presents is exactly its decision
/// vector.
pub trait SchedulePolicy {
    /// Whether the engine consults this policy at all. `false` only for
    /// [`NoPolicy`]: the engine then keeps its insertion-order tie-breaks,
    /// and, because the answer is known per type, the check and every
    /// branch behind it compile away.
    fn policed() -> bool
    where
        Self: Sized,
    {
        true
    }

    /// Pick a candidate by index into `choice.candidates`. Out-of-range
    /// answers are clamped by the engine.
    fn choose(&mut self, choice: &ChoicePoint<'_>) -> usize;

    /// Observe one completed poll cascade: process `pid` was advanced at
    /// `at` and touched `resources` (acquired, blocked on, or released,
    /// in order, duplicates preserved). `spawned_same_time` reports
    /// whether the cascade scheduled any event at `at` itself (zero-length
    /// work, an immediate hand-off, a `WaitUntil(now)`). Exploration uses
    /// these footprints for its commutativity pruning; the default does
    /// nothing.
    fn observe_cascade(
        &mut self,
        pid: ProcId,
        at: SimTime,
        resources: &[ResourceId],
        spawned_same_time: bool,
    ) {
        let _ = (pid, at, resources, spawned_same_time);
    }

    /// Whether the next choice point's [`ChoicePoint::state_hash`] is read.
    /// The engine asks before each choice point and computes the hash only
    /// on `true`, passing 0 otherwise. The default reads every hash.
    fn reads_state_hash(&self) -> bool {
        true
    }

    /// Whether the run should end once the current simulated instant is
    /// over. The engine asks before it moves time forward: on `true` it
    /// stops there, with events still pending, and returns the time
    /// reached without settling accounts or checking for a stall. Every
    /// event of the instant in which the policy decided still runs, so
    /// its cascades are all observed. The default never ends a run.
    fn ends_run(&self) -> bool {
        false
    }
}

/// The default policy: no policy. Ties fall to insertion order, and the
/// engine's hot loop carries no policy bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoPolicy;

impl SchedulePolicy for NoPolicy {
    fn policed() -> bool {
        false
    }

    fn choose(&mut self, _choice: &ChoicePoint<'_>) -> usize {
        0
    }
}

/// The `dyn` shim, for callers that pick a policy at run time.
impl<T: SchedulePolicy + ?Sized> SchedulePolicy for Box<T> {
    fn choose(&mut self, choice: &ChoicePoint<'_>) -> usize {
        (**self).choose(choice)
    }

    fn observe_cascade(
        &mut self,
        pid: ProcId,
        at: SimTime,
        resources: &[ResourceId],
        spawned_same_time: bool,
    ) {
        (**self).observe_cascade(pid, at, resources, spawned_same_time);
    }

    fn reads_state_hash(&self) -> bool {
        (**self).reads_state_hash()
    }

    fn ends_run(&self) -> bool {
        (**self).ends_run()
    }
}

/// One recorded decision: where the tie was, who was tied, and which
/// candidate was picked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Wake-up tie or grant tie.
    pub kind: ChoiceKind,
    /// When the tie occurred.
    pub at: SimTime,
    /// Where the tied processes, in canonical (pid) order, sit in
    /// [`ScheduleLog::candidates`]; read them with
    /// [`ScheduleLog::candidates_of`].
    pub candidates: std::ops::Range<usize>,
    /// Index into the tied processes that was chosen.
    pub chosen: usize,
    /// Canonical state hash at the choice point, or 0 where the policy
    /// did not read it: a [`ForcedSchedule`] reads it for decisions past
    /// its script, up to and including the first one at a known state.
    pub state_hash: u64,
}

/// One recorded poll cascade, for footprint-based pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeRec {
    /// The advanced process.
    pub pid: ProcId,
    /// When the cascade ran.
    pub at: SimTime,
    /// Where the resources the cascade touched sit in
    /// [`ScheduleLog::footprints`]; read them with
    /// [`ScheduleLog::footprint`].
    pub footprint: std::ops::Range<usize>,
    /// Whether the cascade scheduled an event at its own timestamp.
    pub spawned_same_time: bool,
}

/// Everything a [`ForcedSchedule`] run observed: the decision vector and
/// the cascade log, in execution order. [`ScheduleLog::clear`] empties it
/// for the next run and keeps its buffers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleLog {
    /// Every choice point the run hit, with what was chosen.
    pub decisions: Vec<Decision>,
    /// Every decision's tied processes, end to end in decision order: one
    /// flat buffer rather than one `Vec` per decision.
    pub candidates: Vec<ProcId>,
    /// Every poll cascade, with its resource footprint.
    pub cascades: Vec<CascadeRec>,
    /// Every cascade's footprint, end to end in cascade order: one flat
    /// buffer rather than one `Vec` per cascade.
    pub footprints: Vec<ResourceId>,
}

impl ScheduleLog {
    /// The processes tied at decision `d`, in canonical (pid) order.
    pub fn candidates_of(&self, d: &Decision) -> &[ProcId] {
        &self.candidates[d.candidates.clone()]
    }

    /// The resources cascade `c` touched (acquired, blocked on, or
    /// released, in order, duplicates preserved).
    pub fn footprint(&self, c: &CascadeRec) -> &[ResourceId] {
        &self.footprints[c.footprint.clone()]
    }

    /// The chosen indices of the first `n` decisions — the script that
    /// replays this run's prefix.
    pub fn script_prefix(&self, n: usize) -> Vec<usize> {
        self.decisions.iter().take(n).map(|d| d.chosen).collect()
    }

    /// Empty the log for the next run, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.decisions.clear();
        self.candidates.clear();
        self.cascades.clear();
        self.footprints.clear();
    }
}

/// What an exploration learned about one choice state it branched from.
/// Every schedule that reaches the state and takes the default (0) at it
/// and at each later decision runs as the first one did, so it lands in
/// the same outcome class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownState {
    /// The outcome class of the schedules through this state, numbered by
    /// the explorer.
    pub class: usize,
    /// The alternatives that state-hash pruning skips at the decisions
    /// after this one: one less than the candidate count, summed over
    /// every later decision.
    pub pruned_after: usize,
}

/// Explored choice states, keyed by state hash.
pub type KnownStates = BTreeMap<u64, KnownState>;

/// A scripted tie-breaker: decision `i` picks `script[i]`, and every
/// decision past the end of the script picks candidate 0 (the canonical
/// default). Records the full [`ScheduleLog`] through a shared handle so
/// the log survives the engine consuming itself in `try_run`.
///
/// A decision past the script whose state is in the schedule's
/// [`KnownStates`] ends the run when its instant closes
/// ([`SchedulePolicy::ends_run`]); with no known states, the default, the
/// run goes to the end. Only decisions past the script, up to that one,
/// read the state hash.
///
/// Replaying the same script against the same engine build is
/// byte-deterministic: same trace, same log. One policy serves many
/// schedules of a reused engine: [`ForcedSchedule::restart`] it under the
/// next script, and between runs read the log and
/// [`ScheduleLog::clear`] it (or swap in an empty one), since a run
/// appends to whatever the handle holds.
#[derive(Debug)]
pub struct ForcedSchedule {
    script: Vec<usize>,
    cursor: usize,
    log: Rc<RefCell<ScheduleLog>>,
    known: KnownStates,
    /// Whether this run reached a known state.
    ended: bool,
}

impl ForcedSchedule {
    /// A forced schedule following `script`, plus the shared log handle
    /// to read after the run completes.
    pub fn new(script: Vec<usize>) -> (Box<ForcedSchedule>, Rc<RefCell<ScheduleLog>>) {
        let log = Rc::new(RefCell::new(ScheduleLog::default()));
        (
            Box::new(ForcedSchedule {
                script,
                cursor: 0,
                log: Rc::clone(&log),
                known: KnownStates::new(),
                ended: false,
            }),
            log,
        )
    }

    /// Start over under `script`: the next decision is decision 0 again.
    /// The log is left as it is; the caller takes it between runs.
    pub fn restart(&mut self, script: &[usize]) {
        self.script.clear();
        self.script.extend_from_slice(script);
        self.cursor = 0;
        self.ended = false;
    }

    /// The explored states a run past its script stops at, e.g. to swap
    /// an explorer's map in before a run and out after it.
    pub fn known_mut(&mut self) -> &mut KnownStates {
        &mut self.known
    }
}

impl SchedulePolicy for ForcedSchedule {
    fn choose(&mut self, choice: &ChoicePoint<'_>) -> usize {
        let replayed = self.cursor < self.script.len();
        let raw = self.script.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        if !replayed && !self.ended {
            self.ended = self.known.contains_key(&choice.state_hash);
        }
        // Clamp defensively: within an exploration the script is always
        // in range (the prefix replays deterministically), but a stale
        // hand-written script must not crash the run.
        let chosen = raw.min(choice.candidates.len().saturating_sub(1));
        let mut log = self.log.borrow_mut();
        let start = log.candidates.len();
        log.candidates.extend_from_slice(choice.candidates);
        let candidates = start..log.candidates.len();
        log.decisions.push(Decision {
            kind: choice.kind,
            at: choice.at,
            candidates,
            chosen,
            state_hash: choice.state_hash,
        });
        chosen
    }

    fn observe_cascade(
        &mut self,
        pid: ProcId,
        at: SimTime,
        resources: &[ResourceId],
        spawned_same_time: bool,
    ) {
        let mut log = self.log.borrow_mut();
        let start = log.footprints.len();
        log.footprints.extend_from_slice(resources);
        let footprint = start..log.footprints.len();
        log.cascades.push(CascadeRec {
            pid,
            at,
            footprint,
            spawned_same_time,
        });
    }

    fn reads_state_hash(&self) -> bool {
        self.cursor >= self.script.len() && !self.ended
    }

    fn ends_run(&self) -> bool {
        self.ended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_mix_is_order_sensitive() {
        let a = fnv_mix(fnv_mix(FNV_OFFSET, 1), 2);
        let b = fnv_mix(fnv_mix(FNV_OFFSET, 2), 1);
        assert_ne!(a, b);
    }

    /// FNV-1a over `value`'s eight little-endian bytes, one at a time.
    fn fnv_mix_bytewise(mut hash: u64, value: u64) -> u64 {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    #[test]
    fn fnv_mix_equals_the_bytewise_fold() {
        let mut values = vec![0, 1, 255, 256, u64::MAX, u64::MAX - 1];
        for k in 1..64 {
            let p = 1u64 << k;
            values.extend([p - 1, p, p + 1]);
        }
        let seeds = [FNV_OFFSET, 0, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        for &seed in &seeds {
            for &v in &values {
                let want = fnv_mix_bytewise(seed, v);
                assert_eq!(fnv_mix(seed, v), want, "{seed:#x} <- {v:#x}");
            }
        }
        // A seeded sweep over every byte length: xorshift values, each
        // shifted right by 0..64 bits, folded as a running hash.
        let (mut x, mut fast, mut slow) = (0x9e37_79b9_7f4a_7c15u64, FNV_OFFSET, FNV_OFFSET);
        for i in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x >> (i % 64);
            fast = fnv_mix(fast, v);
            slow = fnv_mix_bytewise(slow, v);
            assert_eq!(fast, slow, "step {i}, value {v:#x}");
        }
    }

    #[test]
    fn fnv_str_terminator_prevents_concat_collisions() {
        let a = fnv_mix_str(fnv_mix_str(FNV_OFFSET, "ab"), "c");
        let b = fnv_mix_str(fnv_mix_str(FNV_OFFSET, "a"), "bc");
        assert_ne!(a, b);
    }

    #[test]
    fn forced_schedule_defaults_to_zero_and_clamps() {
        let (mut policy, log) = ForcedSchedule::new(vec![1, 99]);
        let cands = [ProcId::from_index(0), ProcId::from_index(1)];
        let choice = |hash| ChoicePoint {
            kind: ChoiceKind::Wakeup,
            at: SimTime::ZERO,
            candidates: &cands,
            state_hash: hash,
        };
        assert_eq!(policy.choose(&choice(7)), 1);
        assert_eq!(policy.choose(&choice(8)), 1, "99 clamps to last candidate");
        assert_eq!(policy.choose(&choice(9)), 0, "past the script: default 0");
        let mut log = log.borrow_mut();
        assert_eq!(log.decisions.len(), 3);
        assert_eq!(log.script_prefix(2), vec![1, 1]);
        assert_eq!(log.decisions[0].state_hash, 7);
        assert_eq!(log.candidates_of(&log.decisions[2]), &cands);
        log.clear();
        assert_eq!(*log, ScheduleLog::default());
    }
}
