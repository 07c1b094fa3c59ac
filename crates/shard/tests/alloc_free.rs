//! Allocation gates for the shard hot path. In steady state a `rep`
//! frame encoded and queued on the worker allocates nothing, and neither
//! does one read and decoded on the coordinator, nor the lease frames
//! around them, nor the fleet hub's row update for a rep or a lane's
//! hand-in. The test binary installs its own counting allocator,
//! which counts only on the thread that asked, so tests running in
//! parallel do not disturb each other's counts.

use flagsim_shard::wire::{self, Receiver};
use flagsim_shard::{Message, ObsHub, RepOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, BufReader, BufWriter, Cursor};

struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: both methods forward to `System` unchanged; the bookkeeping
// touches only a const-initialised thread-local, which never allocates.
// The default `alloc_zeroed` and `realloc` go through `alloc`, so every
// allocation and growth is counted.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// How many allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

/// A finished rep with awkward bits: a long rep index, a subnormal.
fn rep(rep: u64) -> Message {
    Message::Rep {
        rep: (1 << 62) + rep,
        outcome: RepOutcome::Ok {
            completion: 123.456 + rep as f64,
            waiting: f64::from_bits(1),
        },
    }
}

#[test]
fn a_rep_frame_queues_on_the_worker_without_allocating() {
    // As the worker writes: into an 8 KiB `BufWriter`, flushed per lease.
    let mut writer = BufWriter::new(io::sink());
    wire::queue(&mut writer, &rep(0)).expect("warm-up frame");
    for lease in 0..4u64 {
        let frames: Vec<Message> = (0..64).map(|r| rep(lease * 64 + r)).collect();
        for frame in &frames {
            let (queued, n) = allocations(|| wire::queue(&mut writer, frame));
            queued.expect("queued");
            assert_eq!(n, 0, "queueing {frame:?} allocated {n} time(s)");
        }
        let done = Message::LeaseDone {
            start: lease * 64,
            end: lease * 64 + 64,
        };
        let (sent, n) = allocations(|| wire::send(&mut writer, &done));
        sent.expect("sent");
        assert_eq!(n, 0, "sending lease_done allocated {n} time(s)");
    }
}

#[test]
fn a_rep_frame_reads_and_decodes_on_the_coordinator_without_allocating() {
    let mut frames: Vec<Message> = (0..65).map(rep).collect();
    frames.push(Message::LeaseDone { start: 1, end: 65 });
    frames.push(Message::Lease {
        start: 65,
        end: 129,
        grant: 9,
    });
    frames.push(Message::Heartbeat);
    let mut stream = Vec::new();
    for frame in &frames {
        wire::queue(&mut stream, frame).expect("encoded");
    }
    // As the coordinator reads: one `Receiver` per session.
    let mut rx = Receiver::new(BufReader::new(Cursor::new(stream)));
    assert_eq!(rx.recv().expect("warm-up frame"), Some(rep(0)));
    for want in &frames[1..] {
        let (got, n) = allocations(|| rx.recv());
        assert_eq!(got.expect("read").as_ref(), Some(want));
        assert_eq!(n, 0, "receiving {want:?} allocated {n} time(s)");
    }
    assert_eq!(rx.recv().expect("clean end"), None);
}

#[test]
fn fleet_row_updates_do_not_allocate_once_the_row_exists() {
    let hub = ObsHub::new();
    hub.with(|fv| fv.reset("c0ffee".to_owned(), 1_000));
    // First sight of a worker and of two lanes adds their rows.
    hub.with(|fv| {
        fv.on_connected("w1", 0);
        fv.on_rep("w1", 1);
        fv.on_lane(0, 1, 0, 1);
        fv.on_lane(1, 2, 0, 1);
    });
    for t in 2..66u64 {
        let (_, n) = allocations(|| hub.with(|fv| fv.on_rep("w1", t)));
        assert_eq!(n, 0, "on_rep at {t} allocated {n} time(s)");
        let lane = (t % 2) as usize;
        let (_, n) = allocations(|| hub.with(|fv| fv.on_lane(lane, t + 1, 0, t)));
        assert_eq!(n, 0, "on_lane({lane}) at {t} allocated {n} time(s)");
    }
    let rows: Vec<(String, u64)> = hub.with(|fv| {
        fv.workers()
            .map(|w| (w.name.clone(), w.reps_done))
            .collect()
    });
    let lanes: u64 = rows[..2].iter().map(|(_, reps)| reps).sum();
    assert_eq!(rows[2], ("w1".to_owned(), 65));
    assert_eq!(lanes, 66, "{rows:?}");
}
