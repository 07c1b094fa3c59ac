//! Rep-range leases with heartbeats, deadlines, and recovery.
//!
//! The supervision brain of the shard, kept as a *pure* state machine:
//! time is a `u64` millisecond counter supplied by the caller, never
//! read from a wall clock, so every failure interleaving — heartbeat
//! miss, backoff schedule, reassignment under each policy — is testable
//! deterministically with a fake clock.
//!
//! A worker's life: `Connecting` (with exponential backoff between
//! attempts) → `Active` (holding at most two contiguous rep-range
//! leases that still owe reps, in grant order) → `Dead` (deadline miss,
//! connection exhaustion, protocol violation, or explicit error). The
//! second lease is the pipelining: it waits in the worker's socket
//! buffer while the first runs, so the worker never idles for a round
//! trip between leases. Any protocol
//! frame from the worker refreshes its heartbeat. The worker runs reps
//! in ascending order and reports each, so the table accepts only the
//! next unreported rep of the oldest lease that owes one, and a
//! `lease_done` only for the oldest lease once all its reps are in;
//! anything else declares the worker dead. When a worker dies the
//! *unfinished* part of every lease it holds goes back to the pool, in
//! ascending order, under the campaign's
//! [`RecoveryPolicy`]:
//!
//! * `Rebalance` — returned ranges are immediately grantable to
//!   survivors.
//! * `SpareSwap { replacement_delay_secs }` — returned ranges are
//!   embargoed for the replacement delay (modelling a spare being
//!   fetched) before anyone may claim them.
//! * `AbortAndReport` — the campaign stops granting and reports.

use flagsim_core::faults::RecoveryPolicy;

/// Leases that still owe reps an `Active` worker may hold at once: the
/// one it is running plus one queued behind it.
const LEASES_IN_FLIGHT: usize = 2;

/// Handle for one worker slot in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerId(pub usize);

/// Tuning for lease granting and failure detection.
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// Reps per lease grant. The default, 64, is the cap `core::sweep`'s
    /// claim loop puts on a thread's claim, for the same reason: one
    /// round trip (there, one lock) per 64 reps keeps the coordinator off
    /// the per-rep path, and a lease's 64 `rep` frames still fit the
    /// worker's 8 KiB write buffer.
    pub chunk: u64,
    /// Silence longer than this (ms) declares a worker dead.
    pub heartbeat_timeout_ms: u64,
    /// First reconnect delay (ms); doubles each failed attempt.
    pub backoff_base_ms: u64,
    /// Ceiling on the reconnect delay (ms).
    pub backoff_cap_ms: u64,
    /// Connection attempts before a worker slot is given up on.
    pub max_connect_attempts: u32,
    /// What to do with a dead worker's unfinished lease.
    pub policy: RecoveryPolicy,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            chunk: 64,
            heartbeat_timeout_ms: 2_000,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            max_connect_attempts: 5,
            policy: RecoveryPolicy::Rebalance,
        }
    }
}

/// What the table says when a worker asks for work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseGrant {
    /// Run reps `start..end` (half-open), in ascending order.
    Range {
        /// First rep of the lease.
        start: u64,
        /// One past the last rep.
        end: u64,
    },
    /// No grantable range right now (embargoed returns, or all work is
    /// out on other leases) — ask again later.
    Wait,
    /// Every rep has been leased out and completed or is owed by live
    /// leases; nothing will ever be granted again.
    Finished,
}

/// One granted lease: its range as granted, and the next rep the
/// worker still owes on it.
#[derive(Debug, Clone, Copy)]
struct Lease {
    start: u64,
    next: u64,
    end: u64,
}

impl Lease {
    /// Whether the worker still owes reps on this lease.
    fn owes(&self) -> bool {
        self.next < self.end
    }
}

#[derive(Debug, Clone)]
enum WorkerState {
    Connecting {
        attempt: u32,
        next_try_at: u64,
    },
    /// `leases` holds every granted lease in grant order until its
    /// `lease_done`. Reporting a lease's last rep retires it (it no
    /// longer counts as held for granting or deadlines); the entry
    /// stays so that the `lease_done` can be checked against it.
    Active {
        leases: Vec<Lease>,
        last_seen: u64,
    },
    Dead {
        reason: String,
    },
}

/// Check rep `rep` against `leases`: only the next unreported rep of the
/// oldest lease that still owes reps is accepted.
fn accept_rep(leases: &mut [Lease], rep: u64) -> Result<(), String> {
    match leases.iter_mut().find(|l| l.owes()) {
        Some(l) if rep == l.next => {
            l.next += 1;
            Ok(())
        }
        Some(l) => Err(format!(
            "rep {rep} while lease {}..{} owes rep {}",
            l.start, l.end, l.next
        )),
        None => Err(format!("rep {rep} while it owes none")),
    }
}

/// Check a `lease_done` against `leases`: it must name the oldest lease
/// (`None` means whichever that is) after every rep of it was reported.
fn accept_lease_done(leases: &mut Vec<Lease>, range: Option<(u64, u64)>) -> Result<(), String> {
    let Some(oldest) = leases.first() else {
        return Err(match range {
            Some((start, end)) => format!("lease_done for a lease it never held ({start}..{end})"),
            None => "lease_done while holding no lease".to_owned(),
        });
    };
    let (start, end) = range.unwrap_or((oldest.start, oldest.end));
    if (oldest.start, oldest.end) == (start, end) {
        if oldest.owes() {
            return Err(format!(
                "lease_done for {start}..{end} before rep {}",
                oldest.next
            ));
        }
        leases.remove(0);
        Ok(())
    } else if leases.iter().any(|l| (l.start, l.end) == (start, end)) {
        Err(format!(
            "lease_done for {start}..{end} while lease {}..{} is still open",
            oldest.start, oldest.end
        ))
    } else {
        Err(format!(
            "lease_done for a lease it never held ({start}..{end})"
        ))
    }
}

/// The unfinished suffixes `next..end` of `leases`.
fn unfinished(leases: &[Lease]) -> impl Iterator<Item = (u64, u64)> + '_ {
    leases.iter().filter(|l| l.owes()).map(|l| (l.next, l.end))
}

#[derive(Debug, Clone)]
struct WorkerSlot {
    name: String,
    state: WorkerState,
}

/// The coordinator-side ledger of who owes which repetitions.
#[derive(Debug, Clone)]
pub struct LeaseTable {
    cfg: LeaseConfig,
    /// Frontier of never-leased work: everything in `next_fresh..total`
    /// has never been granted.
    next_fresh: u64,
    total: u64,
    /// Ranges returned by dead workers, grantable once `embargo_until`.
    returned: Vec<(u64, u64)>,
    embargo_until: u64,
    workers: Vec<WorkerSlot>,
    aborted: Option<String>,
}

impl LeaseTable {
    /// A table over reps `0..total`.
    pub fn new(total: u64, cfg: LeaseConfig) -> Self {
        LeaseTable {
            cfg,
            next_fresh: 0,
            total,
            returned: Vec::new(),
            embargo_until: 0,
            workers: Vec::new(),
            aborted: None,
        }
    }

    /// A table resuming a campaign: `ranges` are the still-owed rep
    /// ranges (from [`MergeState::missing_ranges`]); everything else is
    /// treated as done.
    ///
    /// [`MergeState::missing_ranges`]: flagsim_core::sweep::MergeState::missing_ranges
    pub fn with_missing(total: u64, ranges: &[(u64, u64)], cfg: LeaseConfig) -> Self {
        let mut t = LeaseTable::new(total, cfg);
        t.next_fresh = total; // nothing is "fresh"; all work flows from `returned`
        t.returned = ranges.to_vec();
        t
    }

    /// Register a worker slot (begins `Connecting`, eligible to try at
    /// time 0).
    pub fn add_worker(&mut self, name: &str) -> WorkerId {
        self.workers.push(WorkerSlot {
            name: name.to_owned(),
            state: WorkerState::Connecting {
                attempt: 0,
                next_try_at: 0,
            },
        });
        WorkerId(self.workers.len() - 1)
    }

    /// Worker display name.
    pub fn name(&self, w: WorkerId) -> &str {
        &self.workers[w.0].name
    }

    /// Whether `w` may attempt a connection at `now` (backoff elapsed,
    /// attempts not exhausted, still `Connecting`).
    pub fn may_connect(&self, w: WorkerId, now: u64) -> bool {
        match &self.workers[w.0].state {
            WorkerState::Connecting {
                attempt,
                next_try_at,
            } => *attempt < self.cfg.max_connect_attempts && now >= *next_try_at,
            _ => false,
        }
    }

    /// Record a failed connection attempt; schedules the next try with
    /// exponential backoff (`base << attempt`, capped). Exhausting the
    /// attempt budget kills the slot — quietly, not via the recovery
    /// policy: a worker that never connected never held work.
    pub fn on_connect_failed(&mut self, w: WorkerId, now: u64) {
        let slot = &mut self.workers[w.0];
        if let WorkerState::Connecting {
            attempt,
            next_try_at,
        } = &mut slot.state
        {
            *attempt += 1;
            if *attempt >= self.cfg.max_connect_attempts {
                slot.state = WorkerState::Dead {
                    reason: format!("gave up after {attempt} connection attempts"),
                };
                return;
            }
            let shift = (*attempt - 1).min(31);
            let delay = self
                .cfg
                .backoff_base_ms
                .saturating_mul(1u64 << shift)
                .min(self.cfg.backoff_cap_ms);
            *next_try_at = now + delay;
        }
    }

    /// The next scheduled connection attempt time, if `w` is waiting to
    /// reconnect.
    pub fn next_attempt_at(&self, w: WorkerId) -> Option<u64> {
        match &self.workers[w.0].state {
            WorkerState::Connecting {
                attempt,
                next_try_at,
            } if *attempt < self.cfg.max_connect_attempts => Some(*next_try_at),
            _ => None,
        }
    }

    /// The worker connected and completed its hello handshake.
    pub fn on_connected(&mut self, w: WorkerId, now: u64) {
        self.workers[w.0].state = WorkerState::Active {
            leases: Vec::new(),
            last_seen: now,
        };
    }

    /// Any frame from the worker counts as a heartbeat.
    pub fn on_heartbeat(&mut self, w: WorkerId, now: u64) {
        if let WorkerState::Active { last_seen, .. } = &mut self.workers[w.0].state {
            *last_seen = now;
        }
    }

    /// Grant `w` a lease, up to two (`LEASES_IN_FLIGHT`) that still owe
    /// reps at a time. Returned (recovered) ranges are preferred over
    /// fresh frontier work once their embargo lapses.
    pub fn request_lease(&mut self, w: WorkerId, now: u64) -> LeaseGrant {
        if self.aborted.is_some() {
            return LeaseGrant::Finished;
        }
        match &self.workers[w.0].state {
            WorkerState::Active { leases, .. } if unfinished(leases).count() < LEASES_IN_FLIGHT => {
            }
            _ => return LeaseGrant::Wait,
        }
        let grant = if !self.returned.is_empty() && now >= self.embargo_until {
            let (start, orig_end) = self.returned.remove(0);
            let end = orig_end.min(start + self.cfg.chunk.max(1));
            if end < orig_end {
                // Re-queue the tail of an oversized recovered range.
                self.returned.insert(0, (end, orig_end));
            }
            Some((start, end))
        } else if self.next_fresh < self.total {
            let start = self.next_fresh;
            let end = (start + self.cfg.chunk.max(1)).min(self.total);
            self.next_fresh = end;
            Some((start, end))
        } else {
            None
        };
        match grant {
            Some((start, end)) => {
                if let WorkerState::Active { leases, last_seen } = &mut self.workers[w.0].state {
                    leases.push(Lease {
                        start,
                        next: start,
                        end,
                    });
                    *last_seen = now;
                }
                LeaseGrant::Range { start, end }
            }
            None if !self.returned.is_empty() => LeaseGrant::Wait,
            None if self.any_outstanding_lease() => LeaseGrant::Wait,
            None => LeaseGrant::Finished,
        }
    }

    /// The worker reported rep `rep` done. It must be the next
    /// unreported rep of its oldest lease that still owes reps; the
    /// lease's start then advances past it, so a later death returns
    /// only genuinely unfinished work, and reporting a lease's last rep
    /// retires that lease. Any other rep is a protocol violation: `w` is
    /// declared dead with a reason naming it, as by
    /// [`mark_dead`](Self::mark_dead), and the rep must not be merged.
    pub fn on_rep_done(&mut self, w: WorkerId, rep: u64, now: u64) {
        if let WorkerState::Active { leases, last_seen } = &mut self.workers[w.0].state {
            *last_seen = now;
            if let Err(reason) = accept_rep(leases, rep) {
                self.mark_dead(w, &reason, now);
            }
        }
    }

    /// The worker reported its oldest lease complete, whatever its
    /// range; see [`on_lease_done_for`](Self::on_lease_done_for).
    pub fn on_lease_done(&mut self, w: WorkerId, now: u64) {
        self.lease_done(w, None, now);
    }

    /// The worker reported lease `start..end` complete. It must be the
    /// oldest lease `w` holds, with every rep reported; a lease queued
    /// behind it stays held. Anything else is a protocol violation: `w`
    /// is declared dead with a reason naming it, as by
    /// [`mark_dead`](Self::mark_dead).
    pub fn on_lease_done_for(&mut self, w: WorkerId, start: u64, end: u64, now: u64) {
        self.lease_done(w, Some((start, end)), now);
    }

    fn lease_done(&mut self, w: WorkerId, range: Option<(u64, u64)>, now: u64) {
        if let WorkerState::Active { leases, last_seen } = &mut self.workers[w.0].state {
            *last_seen = now;
            if let Err(reason) = accept_lease_done(leases, range) {
                self.mark_dead(w, &reason, now);
            }
        }
    }

    /// Whether `w` holds any lease, counting one whose reps are all
    /// reported but whose `lease_done` has not arrived yet.
    pub fn holds_lease(&self, w: WorkerId) -> bool {
        matches!(&self.workers[w.0].state, WorkerState::Active { leases, .. } if !leases.is_empty())
    }

    /// Declare `w` dead (connection dropped, protocol error, …),
    /// applying the recovery policy to the unfinished part of every
    /// lease it holds, in ascending rep order.
    pub fn mark_dead(&mut self, w: WorkerId, reason: &str, now: u64) {
        let slot = &mut self.workers[w.0];
        let mut owed: Vec<(u64, u64)> = match &slot.state {
            WorkerState::Active { leases, .. } => unfinished(leases).collect(),
            WorkerState::Dead { .. } => return,
            WorkerState::Connecting { .. } => Vec::new(),
        };
        slot.state = WorkerState::Dead {
            reason: reason.to_owned(),
        };
        if flagsim_telemetry::enabled() {
            flagsim_telemetry::count("shard.worker_deaths", 1);
        }
        if owed.is_empty() {
            return;
        }
        owed.sort_unstable();
        match self.cfg.policy {
            RecoveryPolicy::Rebalance => {}
            RecoveryPolicy::SpareSwap {
                replacement_delay_secs,
            } => {
                let delay_ms = (replacement_delay_secs.max(0.0) * 1000.0) as u64;
                self.embargo_until = self.embargo_until.max(now + delay_ms);
            }
            RecoveryPolicy::AbortAndReport => {
                let ranges: Vec<String> = owed.iter().map(|(s, e)| format!("{s}..{e}")).collect();
                self.aborted = Some(format!(
                    "worker {} died ({reason}) holding reps {}; policy is abort",
                    slot.name,
                    ranges.join(", ")
                ));
            }
        }
        self.returned.extend(owed);
    }

    /// Sweep heartbeats against `now`; returns the workers newly
    /// declared dead this call. Only workers *holding a lease* are
    /// subject to the timeout: a leased worker's rep frames are flushed
    /// at each lease end and at least every 25 ms, so silence means
    /// death, while an idle worker is silent simply because the
    /// coordinator drives the protocol.
    pub fn check_deadlines(&mut self, now: u64) -> Vec<WorkerId> {
        let timeout = self.cfg.heartbeat_timeout_ms;
        let stale: Vec<WorkerId> = self
            .workers
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match &s.state {
                WorkerState::Active { leases, last_seen }
                    if unfinished(leases).next().is_some()
                        && now.saturating_sub(*last_seen) > timeout =>
                {
                    Some(WorkerId(i))
                }
                _ => None,
            })
            .collect();
        for &w in &stale {
            self.mark_dead(w, "heartbeat timeout", now);
        }
        stale
    }

    /// Workers currently `Active`.
    pub fn live_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|s| matches!(s.state, WorkerState::Active { .. }))
            .count()
    }

    /// Whether `w` has been declared dead.
    pub fn is_dead(&self, w: WorkerId) -> bool {
        matches!(self.workers[w.0].state, WorkerState::Dead { .. })
    }

    /// Why `w` was declared dead, if it was.
    pub fn dead_reason(&self, w: WorkerId) -> Option<&str> {
        match &self.workers[w.0].state {
            WorkerState::Dead { reason } => Some(reason),
            _ => None,
        }
    }

    /// Whether every registered worker slot is dead.
    pub fn all_dead(&self) -> bool {
        !self.workers.is_empty()
            && self
                .workers
                .iter()
                .all(|s| matches!(s.state, WorkerState::Dead { .. }))
    }

    /// The abort reason, if the recovery policy stopped the campaign.
    pub fn abort_reason(&self) -> Option<&str> {
        self.aborted.as_deref()
    }

    /// Whether any active worker still holds a lease.
    fn any_outstanding_lease(&self) -> bool {
        self.workers.iter().any(|s| match &s.state {
            WorkerState::Active { leases, .. } => unfinished(leases).next().is_some(),
            _ => false,
        })
    }

    /// Un-granted work remaining (fresh frontier plus returned ranges),
    /// in reps.
    pub fn ungranted_reps(&self) -> u64 {
        let fresh = self.total - self.next_fresh;
        let returned: u64 = self.returned.iter().map(|(s, e)| e - s).sum();
        fresh + returned
    }

    /// Drain every un-granted range (fresh and returned, embargo
    /// ignored) — the in-process degradation path claims all remaining
    /// work at once when the cluster is gone.
    pub fn drain_for_local(&mut self) -> Vec<(u64, u64)> {
        let mut out = std::mem::take(&mut self.returned);
        if self.next_fresh < self.total {
            out.push((self.next_fresh, self.total));
            self.next_fresh = self.total;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LeaseConfig {
        LeaseConfig {
            chunk: 4,
            heartbeat_timeout_ms: 100,
            backoff_base_ms: 10,
            backoff_cap_ms: 80,
            max_connect_attempts: 4,
            policy: RecoveryPolicy::Rebalance,
        }
    }

    /// `w` reports every rep of `start..end`, then its `lease_done`.
    fn complete(t: &mut LeaseTable, w: WorkerId, (start, end): (u64, u64), now: u64) {
        for rep in start..end {
            t.on_rep_done(w, rep, now);
        }
        t.on_lease_done_for(w, start, end, now);
        assert!(!t.is_dead(w), "{:?}", t.dead_reason(w));
    }

    #[test]
    fn leases_cover_the_range_exactly_once() {
        let mut t = LeaseTable::new(10, cfg());
        let a = t.add_worker("a");
        let b = t.add_worker("b");
        t.on_connected(a, 0);
        t.on_connected(b, 0);
        let mut seen = Vec::new();
        loop {
            let mut granted = false;
            for &w in &[a, b] {
                match t.request_lease(w, 1) {
                    LeaseGrant::Range { start, end } => {
                        for r in start..end {
                            seen.push(r);
                            t.on_rep_done(w, r, 1);
                        }
                        granted = true;
                    }
                    LeaseGrant::Wait => {}
                    LeaseGrant::Finished => {}
                }
            }
            if !granted {
                break;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(t.request_lease(a, 2), LeaseGrant::Finished);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut t = LeaseTable::new(1, cfg());
        let w = t.add_worker("w");
        assert!(t.may_connect(w, 0));
        t.on_connect_failed(w, 0); // attempt 1 → delay 10
        assert_eq!(t.next_attempt_at(w), Some(10));
        assert!(!t.may_connect(w, 9));
        assert!(t.may_connect(w, 10));
        t.on_connect_failed(w, 10); // attempt 2 → delay 20
        assert_eq!(t.next_attempt_at(w), Some(30));
        t.on_connect_failed(w, 30); // attempt 3 → delay 40
        assert_eq!(t.next_attempt_at(w), Some(70));
        t.on_connect_failed(w, 70); // attempt 4 = budget → dead
        assert_eq!(t.next_attempt_at(w), None);
        assert!(t.all_dead() && t.is_dead(w));
        let reason = t.dead_reason(w).expect("dead slots have a reason");
        assert!(reason.contains("connection attempts"), "{reason}");
        assert!(
            t.abort_reason().is_none(),
            "connect exhaustion is not an abort"
        );
    }

    #[test]
    fn heartbeat_timeout_returns_unfinished_reps_under_rebalance() {
        let mut t = LeaseTable::new(8, cfg());
        let a = t.add_worker("a");
        let b = t.add_worker("b");
        t.on_connected(a, 0);
        t.on_connected(b, 0);
        let LeaseGrant::Range { start, end } = t.request_lease(a, 0) else {
            panic!("expected a lease");
        };
        assert_eq!((start, end), (0, 4));
        t.on_rep_done(a, 0, 10); // a finishes rep 0, then goes silent
        t.on_heartbeat(b, 150);
        let dead = t.check_deadlines(150);
        assert_eq!(dead, vec![a]);
        // b inherits the unfinished tail 1..4 before fresh work.
        assert_eq!(
            t.request_lease(b, 151),
            LeaseGrant::Range { start: 1, end: 4 }
        );
    }

    #[test]
    fn spare_policy_embargoes_recovered_work() {
        let mut t = LeaseTable::new(
            8,
            LeaseConfig {
                policy: RecoveryPolicy::SpareSwap {
                    replacement_delay_secs: 1.0,
                },
                ..cfg()
            },
        );
        let a = t.add_worker("a");
        let b = t.add_worker("b");
        t.on_connected(a, 0);
        t.on_connected(b, 0);
        assert!(matches!(t.request_lease(a, 0), LeaseGrant::Range { .. }));
        let _ = t.check_deadlines(200); // a dies; 0..4 embargoed until 1200
                                        // b gets fresh work while the recovered range is embargoed...
        assert_eq!(
            t.request_lease(b, 300),
            LeaseGrant::Range { start: 4, end: 8 }
        );
        complete(&mut t, b, (4, 8), 400);
        // ...must Wait during the embargo even though work exists...
        assert_eq!(t.request_lease(b, 500), LeaseGrant::Wait);
        // ...and claims it once the replacement delay lapses.
        assert_eq!(
            t.request_lease(b, 1200),
            LeaseGrant::Range { start: 0, end: 4 }
        );
    }

    #[test]
    fn abort_policy_stops_granting() {
        let mut t = LeaseTable::new(
            8,
            LeaseConfig {
                policy: RecoveryPolicy::AbortAndReport,
                ..cfg()
            },
        );
        let a = t.add_worker("a");
        let b = t.add_worker("b");
        t.on_connected(a, 0);
        t.on_connected(b, 0);
        assert!(matches!(t.request_lease(a, 0), LeaseGrant::Range { .. }));
        t.mark_dead(a, "socket reset", 50);
        let reason = t.abort_reason().expect("abort recorded");
        assert!(reason.contains("socket reset"), "{reason}");
        assert_eq!(t.request_lease(b, 60), LeaseGrant::Finished);
    }

    #[test]
    fn rep_done_shrinks_the_returned_range() {
        let mut t = LeaseTable::new(4, cfg());
        let a = t.add_worker("a");
        t.on_connected(a, 0);
        assert_eq!(
            t.request_lease(a, 0),
            LeaseGrant::Range { start: 0, end: 4 }
        );
        t.on_rep_done(a, 0, 1);
        t.on_rep_done(a, 1, 2);
        t.mark_dead(a, "killed", 3);
        let b = t.add_worker("b");
        t.on_connected(b, 3);
        // Only 2..4 comes back — reps 0 and 1 were acknowledged.
        assert_eq!(
            t.request_lease(b, 4),
            LeaseGrant::Range { start: 2, end: 4 }
        );
    }

    #[test]
    fn finishing_the_last_rep_of_a_lease_releases_it() {
        let mut t = LeaseTable::new(4, cfg());
        let a = t.add_worker("a");
        t.on_connected(a, 0);
        assert!(matches!(t.request_lease(a, 0), LeaseGrant::Range { .. }));
        for r in 0..4 {
            t.on_rep_done(a, r, 1);
        }
        t.mark_dead(a, "late death", 2);
        let b = t.add_worker("b");
        t.on_connected(b, 2);
        // Nothing to recover: the lease was fully acknowledged.
        assert_eq!(t.request_lease(b, 3), LeaseGrant::Finished);
    }

    #[test]
    fn with_missing_serves_only_the_gaps() {
        let mut t = LeaseTable::new(10, LeaseConfig { chunk: 16, ..cfg() });
        // Resume: reps 3..5 and 8..10 still owed.
        let mut t2 =
            LeaseTable::with_missing(10, &[(3, 5), (8, 10)], LeaseConfig { chunk: 16, ..cfg() });
        let a = t2.add_worker("a");
        t2.on_connected(a, 0);
        assert_eq!(
            t2.request_lease(a, 0),
            LeaseGrant::Range { start: 3, end: 5 }
        );
        complete(&mut t2, a, (3, 5), 1);
        assert_eq!(
            t2.request_lease(a, 1),
            LeaseGrant::Range { start: 8, end: 10 }
        );
        complete(&mut t2, a, (8, 10), 2);
        assert_eq!(t2.request_lease(a, 2), LeaseGrant::Finished);
        // An un-resumed table over the same total serves everything.
        let b = t.add_worker("b");
        t.on_connected(b, 0);
        assert_eq!(
            t.request_lease(b, 0),
            LeaseGrant::Range { start: 0, end: 10 }
        );
    }

    /// A connected worker holding `0..4` and `4..8`.
    fn holding_two(policy: RecoveryPolicy) -> (LeaseTable, WorkerId) {
        let mut t = LeaseTable::new(12, LeaseConfig { policy, ..cfg() });
        let a = t.add_worker("a");
        t.on_connected(a, 0);
        assert_eq!(
            t.request_lease(a, 0),
            LeaseGrant::Range { start: 0, end: 4 }
        );
        assert_eq!(
            t.request_lease(a, 0),
            LeaseGrant::Range { start: 4, end: 8 }
        );
        (t, a)
    }

    #[test]
    fn a_worker_holds_at_most_two_leases() {
        let (mut t, a) = holding_two(RecoveryPolicy::Rebalance);
        assert_eq!(
            t.request_lease(a, 1),
            LeaseGrant::Wait,
            "third lease while two are open"
        );
        for r in 0..4 {
            t.on_rep_done(a, r, 2);
        }
        // The first lease's last rep retired it, so a third one is grantable.
        assert_eq!(
            t.request_lease(a, 3),
            LeaseGrant::Range { start: 8, end: 12 }
        );
    }

    #[test]
    fn rep_done_crosses_the_lease_boundary() {
        let (mut t, a) = holding_two(RecoveryPolicy::Rebalance);
        for r in 0..6 {
            t.on_rep_done(a, r, 1);
        }
        t.mark_dead(a, "killed", 2);
        let b = t.add_worker("b");
        t.on_connected(b, 2);
        // Lease 0..4 is fully reported; only the second lease's tail returns.
        assert_eq!(
            t.request_lease(b, 3),
            LeaseGrant::Range { start: 6, end: 8 }
        );
        assert_eq!(
            t.request_lease(b, 3),
            LeaseGrant::Range { start: 8, end: 12 }
        );
    }

    #[test]
    fn lease_done_of_the_first_lease_keeps_the_second() {
        let (mut t, a) = holding_two(RecoveryPolicy::Rebalance);
        for r in 0..4 {
            t.on_rep_done(a, r, 1);
        }
        t.on_lease_done(a, 2);
        t.mark_dead(a, "killed", 3);
        let b = t.add_worker("b");
        t.on_connected(b, 3);
        assert_eq!(
            t.request_lease(b, 4),
            LeaseGrant::Range { start: 4, end: 8 }
        );
    }

    #[test]
    fn death_holding_two_leases_returns_both_suffixes_in_order() {
        // Rebalance: both unfinished suffixes come back, lowest first.
        let (mut t, a) = holding_two(RecoveryPolicy::Rebalance);
        t.on_rep_done(a, 0, 1);
        t.mark_dead(a, "killed", 2);
        let b = t.add_worker("b");
        t.on_connected(b, 2);
        assert_eq!(
            t.request_lease(b, 3),
            LeaseGrant::Range { start: 1, end: 4 }
        );
        assert_eq!(
            t.request_lease(b, 3),
            LeaseGrant::Range { start: 4, end: 8 }
        );
        assert_eq!(t.request_lease(b, 3), LeaseGrant::Wait, "b holds two");

        // Spare: both are embargoed for the replacement delay.
        let (mut t, a) = holding_two(RecoveryPolicy::SpareSwap {
            replacement_delay_secs: 1.0,
        });
        t.on_rep_done(a, 0, 1);
        t.mark_dead(a, "killed", 100);
        let b = t.add_worker("b");
        t.on_connected(b, 100);
        assert_eq!(
            t.request_lease(b, 200),
            LeaseGrant::Range { start: 8, end: 12 }
        );
        complete(&mut t, b, (8, 12), 300);
        assert_eq!(t.request_lease(b, 1099), LeaseGrant::Wait, "embargo holds");
        assert_eq!(
            t.request_lease(b, 1100),
            LeaseGrant::Range { start: 1, end: 4 }
        );
        assert_eq!(
            t.request_lease(b, 1100),
            LeaseGrant::Range { start: 4, end: 8 }
        );

        // Abort: the reason names every unfinished range.
        let (mut t, a) = holding_two(RecoveryPolicy::AbortAndReport);
        t.on_rep_done(a, 0, 1);
        t.mark_dead(a, "socket reset", 2);
        let reason = t.abort_reason().expect("abort recorded");
        assert!(reason.contains("socket reset"), "{reason}");
        assert!(reason.contains("holding reps 1..4, 4..8"), "{reason}");
    }

    #[test]
    fn a_request_report_done_loop_gets_one_grant_per_chunk() {
        // One worker that asks only after finishing (the benchmark's
        // lease probe) never holds two leases.
        let chunk = LeaseConfig::default().chunk;
        let mut t = LeaseTable::new(64 * chunk, LeaseConfig::default());
        let w = t.add_worker("w");
        t.on_connected(w, 0);
        let mut grants = 0;
        loop {
            match t.request_lease(w, grants) {
                LeaseGrant::Range { start, end } => {
                    grants += 1;
                    for rep in start..end {
                        t.on_rep_done(w, rep, grants);
                    }
                    t.on_lease_done(w, grants);
                }
                LeaseGrant::Finished => break,
                LeaseGrant::Wait => panic!("a lone worker was told to wait"),
            }
        }
        assert_eq!(grants, 64);
    }

    /// Run `lie` on a worker holding `0..4` and `4..8` with rep 0
    /// reported, under `abort`; return why it was declared dead.
    fn lie_under_abort(lie: impl FnOnce(&mut LeaseTable, WorkerId)) -> String {
        let (mut t, a) = holding_two(RecoveryPolicy::AbortAndReport);
        t.on_rep_done(a, 0, 1);
        lie(&mut t, a);
        let abort = t
            .abort_reason()
            .expect("a protocol violation kills the worker");
        assert!(abort.contains("holding reps 1..4, 4..8"), "{abort}");
        t.dead_reason(a).expect("dead").to_owned()
    }

    #[test]
    fn a_rep_the_worker_does_not_owe_kills_it() {
        let skip = lie_under_abort(|t, a| t.on_rep_done(a, 4, 2));
        assert_eq!(skip, "rep 4 while lease 0..4 owes rep 1");
        let again = lie_under_abort(|t, a| t.on_rep_done(a, 0, 2));
        assert_eq!(again, "rep 0 while lease 0..4 owes rep 1");
        let foreign = lie_under_abort(|t, a| t.on_rep_done(a, 9, 2));
        assert_eq!(foreign, "rep 9 while lease 0..4 owes rep 1");

        // Under rebalance the whole unfinished remainder goes to a survivor.
        let (mut t, a) = holding_two(RecoveryPolicy::Rebalance);
        t.on_rep_done(a, 0, 1);
        t.on_rep_done(a, 2, 2);
        assert!(t.is_dead(a));
        let b = t.add_worker("b");
        t.on_connected(b, 3);
        assert_eq!(
            t.request_lease(b, 3),
            LeaseGrant::Range { start: 1, end: 4 }
        );
        assert_eq!(
            t.request_lease(b, 3),
            LeaseGrant::Range { start: 4, end: 8 }
        );

        // A worker that owes nothing may report nothing.
        let (mut t, a) = holding_two(RecoveryPolicy::Rebalance);
        for r in 0..8 {
            t.on_rep_done(a, r, 1);
        }
        t.on_rep_done(a, 8, 2);
        assert_eq!(t.dead_reason(a), Some("rep 8 while it owes none"));
    }

    #[test]
    fn a_lease_done_the_worker_does_not_owe_kills_it() {
        let never = lie_under_abort(|t, a| t.on_lease_done_for(a, 8, 12, 2));
        assert_eq!(never, "lease_done for a lease it never held (8..12)");
        let early = lie_under_abort(|t, a| t.on_lease_done_for(a, 0, 4, 2));
        assert_eq!(early, "lease_done for 0..4 before rep 1");
        let early = lie_under_abort(|t, a| t.on_lease_done(a, 2));
        assert_eq!(early, "lease_done for 0..4 before rep 1");
        let skipped = lie_under_abort(|t, a| t.on_lease_done_for(a, 4, 8, 2));
        assert_eq!(
            skipped,
            "lease_done for 4..8 while lease 0..4 is still open"
        );

        // One lease_done per lease: a second one for the same range is
        // a lease the worker no longer holds.
        let (mut t, a) = holding_two(RecoveryPolicy::Rebalance);
        complete(&mut t, a, (0, 4), 1);
        t.on_lease_done_for(a, 0, 4, 2);
        assert_eq!(
            t.dead_reason(a),
            Some("lease_done for a lease it never held (0..4)")
        );
        let b = t.add_worker("b");
        t.on_connected(b, 3);
        assert_eq!(
            t.request_lease(b, 3),
            LeaseGrant::Range { start: 4, end: 8 }
        );
    }

    #[test]
    fn holds_lease_lasts_until_lease_done() {
        let mut t = LeaseTable::new(4, cfg());
        let a = t.add_worker("a");
        t.on_connected(a, 0);
        assert!(!t.holds_lease(a));
        assert_eq!(
            t.request_lease(a, 0),
            LeaseGrant::Range { start: 0, end: 4 }
        );
        for r in 0..4 {
            t.on_rep_done(a, r, 1);
        }
        assert!(t.holds_lease(a), "lease_done still owed");
        assert_eq!(t.request_lease(a, 1), LeaseGrant::Finished);
        t.on_lease_done_for(a, 0, 4, 2);
        assert!(!t.holds_lease(a) && !t.is_dead(a));
    }

    #[test]
    fn drain_for_local_claims_everything() {
        let mut t = LeaseTable::new(12, cfg());
        let a = t.add_worker("a");
        t.on_connected(a, 0);
        assert!(matches!(t.request_lease(a, 0), LeaseGrant::Range { .. }));
        t.on_rep_done(a, 0, 1);
        t.mark_dead(a, "gone", 2);
        let ranges = t.drain_for_local();
        let total: u64 = ranges.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 11, "all reps except the acknowledged one");
        assert_eq!(t.ungranted_reps(), 0);
    }
}
