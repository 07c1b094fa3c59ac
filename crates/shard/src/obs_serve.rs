//! Push fleet snapshots to observers over TCP (`sweep --obs-serve`).
//!
//! A tiny single-threaded server: accept watchers, and every interval
//! push the current [`ObsHub`](crate::ObsHub) snapshot to each as one
//! length-prefixed [`wire`](crate::wire) frame. The channel is strictly
//! one-way — observers are *watchers, not participants*:
//!
//! - The server only ever **reads** from a client socket to detect
//!   disconnection, and every byte a client does send is counted in
//!   [`ObsServer::bytes_from_clients`] and discarded unparsed. Nothing
//!   a watcher writes can reach the lease/merge path, and a test
//!   asserts the counter stays zero under a well-behaved watcher.
//! - Snapshots are rendered from the same [`FleetView`](crate::FleetView)
//!   the dashboard polls; serving them adds no new mutation sites.
//!
//! Slow consumers are dropped rather than buffered: a snapshot is a
//! few KB and the socket buffer holds many intervals' worth, so a full
//! buffer means the watcher died or stalled — dropping it keeps the
//! supervisor's memory bounded.

use crate::fleet::ObsHub;
use crate::wire;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept/push loop polls for new clients and stop.
const POLL_MS: u64 = 25;

/// A running observability push server. Dropping (or [`ObsServer::stop`])
/// shuts the listener down and joins the serving thread.
#[derive(Debug)]
pub struct ObsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    bytes_from_clients: Arc<AtomicU64>,
    clients_served: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` and start pushing `hub` snapshots every
    /// `interval_ms` to every connected client. `now_ms` supplies the
    /// campaign-clock timestamp stamped into each snapshot (the caller
    /// owns the clock, keeping this crate fake-clock friendly).
    pub fn start(
        hub: ObsHub,
        addr: &str,
        interval_ms: u64,
        now_ms: impl Fn() -> u64 + Send + 'static,
    ) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let bytes_from_clients = Arc::new(AtomicU64::new(0));
        let clients_served = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_bytes = Arc::clone(&bytes_from_clients);
        let thread_clients = Arc::clone(&clients_served);
        let interval = interval_ms.max(POLL_MS);
        let handle = std::thread::spawn(move || {
            serve_loop(
                listener,
                hub,
                interval,
                now_ms,
                &thread_stop,
                &thread_bytes,
                &thread_clients,
            );
        });
        Ok(ObsServer {
            local_addr,
            stop,
            bytes_from_clients,
            clients_served,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Total bytes any client has ever sent us. Watchers are read-only,
    /// so for well-behaved clients this stays **zero** — the asserted
    /// proof that attaching a watcher cannot feed data into the sweep.
    pub fn bytes_from_clients(&self) -> u64 {
        self.bytes_from_clients.load(Ordering::Relaxed)
    }

    /// Clients accepted over the server's lifetime.
    pub fn clients_served(&self) -> u64 {
        self.clients_served.load(Ordering::Relaxed)
    }

    /// Stop the server and join its thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(
    listener: TcpListener,
    hub: ObsHub,
    interval_ms: u64,
    now_ms: impl Fn() -> u64,
    stop: &AtomicBool,
    bytes_from_clients: &AtomicU64,
    clients_served: &AtomicU64,
) {
    let mut clients: Vec<TcpStream> = Vec::new();
    let mut since_push = interval_ms; // push immediately once someone connects
    while !stop.load(Ordering::Relaxed) {
        let mut fresh = false;
        loop {
            match listener.accept() {
                Ok((s, _)) => {
                    if s.set_nonblocking(true).is_ok() {
                        clients_served.fetch_add(1, Ordering::Relaxed);
                        clients.push(s);
                        fresh = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        if !clients.is_empty() && (since_push >= interval_ms || fresh) {
            since_push = 0;
            let mut framed = Vec::new();
            if wire::write_frame(&mut framed, &hub.snapshot_json(now_ms())).is_err() {
                // Snapshot exceeded the frame cap — skip this push
                // rather than kill the server; the next one may fit.
                continue;
            }
            clients.retain_mut(|c| push_to(c, &framed, bytes_from_clients));
        }
        std::thread::sleep(Duration::from_millis(POLL_MS));
        since_push = since_push.saturating_add(POLL_MS);
    }
}

/// Push one framed snapshot to a client; returns `false` when the
/// client should be dropped (closed, errored, or too slow to drain).
/// Any bytes the client sent are counted and discarded — never parsed.
fn push_to(c: &mut TcpStream, framed: &[u8], bytes_from_clients: &AtomicU64) -> bool {
    let mut buf = [0u8; 256];
    loop {
        match c.read(&mut buf) {
            Ok(0) => return false, // clean close
            Ok(n) => {
                bytes_from_clients.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => return false,
        }
    }
    match c.write_all(framed) {
        Ok(()) => true,
        // WouldBlock = the socket buffer is full = the watcher has not
        // drained several intervals of small frames: drop it.
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripted_hub() -> ObsHub {
        let hub = ObsHub::new();
        hub.with(|fv| {
            fv.reset("0bs0bs0bs0bs0bs0".into(), 32);
            fv.on_connected("w-0", 10);
            fv.on_lease("w-0", 20);
            for t in 0..5u64 {
                fv.on_rep("w-0", 30 + t * 100);
                fv.sample(30 + t * 100);
            }
            fv.merged = 5;
        });
        hub
    }

    #[test]
    fn pushes_snapshots_to_a_read_only_client_and_counts_zero_bytes() {
        let hub = scripted_hub();
        let before = hub.snapshot_json(500);
        let mut server = ObsServer::start(hub.clone(), "127.0.0.1:0", 50, || 500).expect("bind");
        let addr = server.local_addr();

        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // A well-behaved watcher only reads. Two consecutive frames
        // prove the periodic push, not just the greeting.
        let first = wire::read_frame(&mut client).expect("frame").expect("open");
        let second = wire::read_frame(&mut client).expect("frame").expect("open");
        assert_eq!(first, before, "snapshot is the hub's JSON verbatim");
        assert_eq!(second, before, "unchanged hub → identical snapshot");

        server.stop();
        assert_eq!(server.clients_served(), 1);
        // The read-only proof: watching wrote nothing into the sweep.
        assert_eq!(server.bytes_from_clients(), 0);
        assert_eq!(
            hub.snapshot_json(500),
            before,
            "hub state untouched by serving"
        );
    }

    #[test]
    fn client_writes_are_counted_and_discarded() {
        let hub = scripted_hub();
        let mut server = ObsServer::start(hub, "127.0.0.1:0", 50, || 0).expect("bind");
        let mut client = TcpStream::connect(server.local_addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        client.write_all(b"rogue bytes").expect("write");
        client.flush().expect("flush");
        // The push loop still serves frames; the rogue bytes are
        // tallied, not interpreted.
        let frame = wire::read_frame(&mut client).expect("frame").expect("open");
        assert!(frame.contains("\"campaign\""));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.bytes_from_clients() < 11 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.bytes_from_clients(), 11);
        server.stop();
    }

    #[test]
    fn disconnected_clients_are_dropped() {
        let hub = scripted_hub();
        let mut server = ObsServer::start(hub, "127.0.0.1:0", 50, || 0).expect("bind");
        {
            let _client = TcpStream::connect(server.local_addr()).expect("connect");
        } // dropped immediately
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.clients_served() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.clients_served(), 1);
        server.stop(); // joins cleanly with the dead client purged
    }
}
