//! The serving loop proper: a concurrent NFS/RPC server on loopback TCP.
//!
//! RFC 1813-shaped dispatch over the stream transport real NFSv3
//! deployments used: record-marked RPC ([`nfstrace_rpc::record`]), one
//! OS thread per client connection, replies written back on the
//! connection the call arrived on with the call's XID. What to answer
//! is delegated to an [`NfsService`] — a live filesystem or a trace
//! replay plan — so the transport loop is identical in both modes.
//!
//! The loop works in **bursts**, as real NFS endpoints do (the "TCP
//! packet coalescing" the paper's tracer had to handle): every record
//! one `read` delivered is served into one reused output buffer —
//! the service appends the reply, the loop frames it in place — and
//! the buffer goes out in one `write`. A buffer that reaches 64 KiB
//! (`FLUSH_BYTES`) is written at once, so per-connection memory stays
//! bounded however small the calls and large the replies; a lone call
//! is a burst of one and is answered before the next `read`.
//!
//! Telemetry (all in the shared registry): `serve.calls`,
//! `serve.bytes_in`, `serve.bytes_out` (advances once per burst),
//! `serve.active_conns`, `serve.dispatch_micros`.

use crate::service::NfsService;
use nfstrace_rpc::record::{begin_record, end_record, RecordReader};
use nfstrace_telemetry::{Counter, Gauge, Histogram, Registry};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` or `write` before
/// re-checking the shutdown flag.
const STOP_POLL: Duration = Duration::from_millis(50);

/// A burst buffer — the server's framed replies, the replay client's
/// framed calls — is written out as soon as it holds this much, so it
/// never grows past this plus one message.
pub(crate) const FLUSH_BYTES: usize = 64 * 1024;

struct ServeMetrics {
    calls: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    active_conns: Gauge,
    dispatch_micros: Histogram,
    /// Gauges are set, not added; track the live count separately.
    conns: AtomicI64,
}

impl ServeMetrics {
    fn register(registry: &Registry) -> Self {
        ServeMetrics {
            calls: registry.counter("serve.calls"),
            bytes_in: registry.counter("serve.bytes_in"),
            bytes_out: registry.counter("serve.bytes_out"),
            active_conns: registry.gauge("serve.active_conns"),
            dispatch_micros: registry.histogram("serve.dispatch_micros"),
            conns: AtomicI64::new(0),
        }
    }

    fn conn_opened(&self) {
        let now = self.conns.fetch_add(1, Ordering::Relaxed) + 1;
        self.active_conns.set(now as f64);
    }

    fn conn_closed(&self) {
        let now = self.conns.fetch_sub(1, Ordering::Relaxed) - 1;
        self.active_conns.set(now as f64);
    }
}

/// A running serving loop; dropping it (or calling
/// [`NfsTcpServer::shutdown`]) stops the listener and joins every
/// connection thread.
#[derive(Debug)]
pub struct NfsTcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener_thread: Option<JoinHandle<()>>,
}

impl NfsTcpServer {
    /// Binds `127.0.0.1:0` and starts accepting. The listener thread
    /// blocks in `accept` (it does not poll); every connection gets its
    /// own thread running the record-marked burst loop against
    /// `service`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(service: Arc<dyn NfsService>, registry: &Registry) -> std::io::Result<Self> {
        let (listener, addr) = bind_loopback()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = ServeMetrics::register(registry);
        let accept_stop = Arc::clone(&stop);
        let listener_thread = std::thread::spawn(move || {
            accept_loop(listener, &*service, &accept_stop, &metrics);
        });
        Ok(NfsTcpServer {
            addr,
            stop,
            listener_thread: Some(listener_thread),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the connection threads, and returns.
    ///
    /// Sets the stop flag and wakes the listener out of its blocking
    /// `accept` with one loopback connect; connection threads notice the
    /// flag within 50 ms (`STOP_POLL`) whether they are blocked reading
    /// from an idle peer or writing to one that has stopped reading.
    /// Should the wake-up connect fail, the listener thread is detached
    /// rather than joined, so this cannot hang.
    pub fn shutdown(&mut self) {
        let Some(listener) = self.listener_thread.take() else {
            return;
        };
        if stop_listener(&self.stop, self.addr) {
            let _ = listener.join();
        }
    }
}

impl Drop for NfsTcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs `during` beside a serving loop for `service` on a scoped
/// thread, and stops that loop when `during` returns: the borrowed
/// form of [`NfsTcpServer`], for a service that does not outlive its
/// caller's stack frame. `during` gets the bound address.
///
/// The listener is stopped on every exit from `during` — a return, an
/// error it returns, or a panic — so the scope's join never waits in
/// `accept`.
///
/// # Errors
///
/// Propagates the bind failure.
pub(crate) fn serve_scoped<R>(
    service: &dyn NfsService,
    registry: &Registry,
    during: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<R> {
    /// Stops the listener when dropped, unwinding included.
    struct StopOnDrop<'a> {
        stop: &'a AtomicBool,
        addr: SocketAddr,
    }
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            stop_listener(self.stop, self.addr);
        }
    }

    let (listener, addr) = bind_loopback()?;
    let stop = AtomicBool::new(false);
    let metrics = ServeMetrics::register(registry);
    Ok(std::thread::scope(|scope| {
        let (stop, metrics) = (&stop, &metrics);
        scope.spawn(move || accept_loop(listener, service, stop, metrics));
        let _stop = StopOnDrop { stop, addr };
        during(addr)
    }))
}

fn bind_loopback() -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

/// The listener: blocks in `accept` (it does not poll) and serves every
/// connection on a thread of its own, scoped to the loop, until `stop`
/// goes up; then joins them all.
fn accept_loop(
    listener: TcpListener,
    service: &dyn NfsService,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
) {
    std::thread::scope(|conns| loop {
        let accepted = listener.accept();
        // `stop_listener` sets `stop` and then connects once to end
        // this `accept`: whatever arrived after the flag went up, that
        // wake-up included, is dropped unserved.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                conns.spawn(move || serve_connection(stream, service, stop, metrics));
            }
            // A signal, or a queued peer that gave up before it was
            // accepted: nothing wrong with the listener.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) => {}
            Err(_) => break,
        }
    });
}

/// Raises `stop` and wakes the [`accept_loop`] listening on `addr` out
/// of its blocking `accept` with one loopback connect. `false` if that
/// connect failed: the loop then sleeps in `accept` until the next
/// connection arrives.
fn stop_listener(stop: &AtomicBool, addr: SocketAddr) -> bool {
    // SeqCst, paired with the listener's load: the flag must be up
    // before the wake-up connection can be accepted.
    stop.store(true, Ordering::SeqCst);
    TcpStream::connect(addr).is_ok()
}

/// One connection: configure the socket, run the burst loop on it.
fn serve_connection(
    mut stream: TcpStream,
    service: &dyn NfsService,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
) {
    if stream.set_read_timeout(Some(STOP_POLL)).is_err()
        || stream.set_write_timeout(Some(STOP_POLL)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    metrics.conn_opened();
    serve_stream(&mut stream, service, stop, metrics);
    metrics.conn_closed();
}

/// The burst loop: split the records out of each `read`, serve every
/// one into `out` — framed in place — and write `out` once.
///
/// Generic over the stream so the burst rule can be tested against a
/// scripted one; `read` and `write` are expected to time out
/// (`WouldBlock`/`TimedOut`) rather than block for good.
fn serve_stream<S: Read + Write>(
    stream: &mut S,
    service: &dyn NfsService,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
) {
    let mut reader = RecordReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        metrics.bytes_in.add(n as u64);
        reader.push(&buf[..n]);
        loop {
            let record = match reader.next_record_ref() {
                Ok(Some(record)) => record.bytes,
                Ok(None) => break,
                // A framing error is unrecoverable on a byte stream:
                // drop the connection, as a real server would — once
                // the records before it have had their replies.
                Err(_) => {
                    write_burst(stream, &mut out, stop, metrics);
                    return;
                }
            };
            metrics.calls.inc();
            let mark_at = begin_record(&mut out);
            let started = Instant::now();
            let replied = service.serve(record, &mut out);
            metrics
                .dispatch_micros
                .record(started.elapsed().as_micros() as u64);
            if replied {
                end_record(&mut out, mark_at);
            } else {
                out.truncate(mark_at);
            }
            if out.len() >= FLUSH_BYTES && !write_burst(stream, &mut out, stop, metrics) {
                return;
            }
        }
        if !write_burst(stream, &mut out, stop, metrics) {
            return;
        }
    }
}

/// Writes all of `out` and clears it; `false` means the connection is
/// to be dropped (the peer is gone, or the server is stopping).
///
/// `write_all` would not do: towards a peer that has stopped reading it
/// blocks for good, and the thread would never look at `stop` again.
/// Each `write` instead times out after [`STOP_POLL`], and the loop
/// resumes where the last one left off — a partial write is never
/// followed by a restart from the top.
fn write_burst<W: Write>(
    stream: &mut W,
    out: &mut Vec<u8>,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
) -> bool {
    if out.is_empty() {
        return true;
    }
    let mut written = 0;
    while written < out.len() {
        match stream.write(&out[written..]) {
            Ok(0) => return false,
            Ok(n) => written += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Relaxed) {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    metrics.bytes_out.add(out.len() as u64);
    out.clear();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_rpc::record::mark_record_into;
    use std::collections::VecDeque;
    use std::io;

    /// What the scripted stream saw, in order.
    #[derive(Debug, PartialEq)]
    enum Event {
        Read,
        /// One `write` call and the bytes it accepted.
        Write(Vec<u8>),
        WriteWouldBlock,
    }

    /// An in-memory peer: hands out the scripted `reads` one per `read`
    /// call (then end-of-stream) and logs every `write`. `write_script`
    /// steers the first writes — `Some(n)` accepts at most `n` bytes,
    /// `None` times out — after which everything offered is accepted.
    #[derive(Default)]
    struct Script {
        reads: VecDeque<Vec<u8>>,
        write_script: VecDeque<Option<usize>>,
        log: Vec<Event>,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.log.push(Event::Read);
            let Some(data) = self.reads.pop_front() else {
                return Ok(0);
            };
            buf[..data.len()].copy_from_slice(&data);
            Ok(data.len())
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = match self.write_script.pop_front() {
                Some(None) => {
                    self.log.push(Event::WriteWouldBlock);
                    return Err(ErrorKind::WouldBlock.into());
                }
                Some(Some(limit)) => limit.min(buf.len()),
                None => buf.len(),
            };
            self.log.push(Event::Write(buf[..n].to_vec()));
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Script {
        fn writes(&self) -> Vec<&[u8]> {
            self.log
                .iter()
                .filter_map(|e| match e {
                    Event::Write(bytes) => Some(&bytes[..]),
                    _ => None,
                })
                .collect()
        }
    }

    /// Answers a call `[tag, ..]` with `reply_len` copies of `tag`;
    /// stays silent on an empty call.
    struct Repeat {
        reply_len: usize,
    }

    impl NfsService for Repeat {
        fn serve(&self, call_msg: &[u8], out: &mut Vec<u8>) -> bool {
            // Bytes a silent call leaves behind must not reach the wire.
            out.extend_from_slice(b"scratch");
            let Some(&tag) = call_msg.first() else {
                return false;
            };
            out.truncate(out.len() - 7);
            out.extend(std::iter::repeat_n(tag, self.reply_len));
            true
        }
    }

    fn calls(tags: impl IntoIterator<Item = u8>) -> Vec<u8> {
        let mut wire = Vec::new();
        for tag in tags {
            mark_record_into(&[tag, 0xca, 0x11], &mut wire);
        }
        wire
    }

    fn replies(tags: impl IntoIterator<Item = u8>, reply_len: usize) -> Vec<u8> {
        let mut wire = Vec::new();
        for tag in tags {
            mark_record_into(&vec![tag; reply_len], &mut wire);
        }
        wire
    }

    fn run(script: &mut Script, reply_len: usize) -> Registry {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let stop = AtomicBool::new(false);
        serve_stream(script, &Repeat { reply_len }, &stop, &metrics);
        registry
    }

    #[test]
    fn pipelined_calls_of_one_read_are_answered_in_one_write() {
        let mut wire = calls(1..=5);
        mark_record_into(b"", &mut wire); // silence, mid-burst
        wire.extend(calls(6..=9));
        let mut script = Script {
            reads: [wire.clone()].into(),
            ..Script::default()
        };
        let registry = run(&mut script, 10);
        let want = replies(1..=9, 10);
        assert_eq!(
            script.log,
            [Event::Read, Event::Write(want.clone()), Event::Read]
        );
        assert_eq!(registry.counter("serve.calls").value(), 10);
        assert_eq!(
            registry.counter("serve.bytes_in").value(),
            wire.len() as u64
        );
        assert_eq!(
            registry.counter("serve.bytes_out").value(),
            want.len() as u64
        );
    }

    #[test]
    fn a_burst_past_the_flush_bound_is_split_there() {
        // 40 calls in one read, 10 000-byte replies: 400 KB of replies.
        let reply_len = 10_000;
        let mut script = Script {
            reads: [calls(0..40)].into(),
            ..Script::default()
        };
        run(&mut script, reply_len);
        let writes = script.writes();
        assert!(writes.len() > 1, "one write of {}", writes[0].len());
        for (i, w) in writes.iter().enumerate() {
            assert!(
                w.len() < FLUSH_BYTES + reply_len + 4,
                "write {i} carries {} bytes",
                w.len()
            );
            if i + 1 < writes.len() {
                assert!(w.len() >= FLUSH_BYTES, "write {i} flushed early");
            }
        }
        assert_eq!(writes.concat(), replies(0..40, reply_len));
    }

    #[test]
    fn a_lone_call_is_answered_before_the_next_read() {
        let mut script = Script {
            reads: [calls([7]), calls([8])].into(),
            ..Script::default()
        };
        run(&mut script, 3);
        assert_eq!(
            script.log,
            [
                Event::Read,
                Event::Write(replies([7], 3)),
                Event::Read,
                Event::Write(replies([8], 3)),
                Event::Read,
            ]
        );
    }

    #[test]
    fn a_write_that_times_out_mid_burst_resumes_at_its_offset() {
        let mut script = Script {
            reads: [calls(1..=4)].into(),
            write_script: [Some(5), None, None, Some(11), Some(0)].into(),
            ..Script::default()
        };
        let registry = run(&mut script, 6);
        let want = replies(1..=4, 6);
        assert_eq!(
            script.log[1..5],
            [
                Event::Write(want[..5].to_vec()),
                Event::WriteWouldBlock,
                Event::WriteWouldBlock,
                Event::Write(want[5..16].to_vec()),
            ]
        );
        // `Some(0)`: a write that accepts nothing means the peer is
        // gone; the connection is dropped, nothing is re-sent and the
        // unfinished burst is not counted.
        assert_eq!(script.log[5..], [Event::Write(Vec::new())]);
        assert_eq!(registry.counter("serve.bytes_out").value(), 0);

        // The same burst with the stall clearing: every byte once.
        let mut script = Script {
            reads: [calls(1..=4)].into(),
            write_script: [Some(5), None, Some(11)].into(),
            ..Script::default()
        };
        let registry = run(&mut script, 6);
        assert_eq!(script.writes().concat(), want);
        assert_eq!(
            registry.counter("serve.bytes_out").value(),
            want.len() as u64
        );
    }

    #[test]
    fn a_stalled_write_gives_up_once_the_server_stops() {
        /// Raises the flag mid-burst, as `shutdown` on another thread
        /// would.
        struct StopWhileServing<'a>(&'a AtomicBool);
        impl NfsService for StopWhileServing<'_> {
            fn serve(&self, _: &[u8], out: &mut Vec<u8>) -> bool {
                self.0.store(true, Ordering::Relaxed);
                out.extend_from_slice(b"reply");
                true
            }
        }
        let mut script = Script {
            reads: [calls(1..=2)].into(),
            write_script: [Some(3), None].into(),
            ..Script::default()
        };
        let metrics = ServeMetrics::register(&Registry::new());
        let stop = AtomicBool::new(false);
        serve_stream(&mut script, &StopWhileServing(&stop), &stop, &metrics);
        let mut burst = Vec::new();
        mark_record_into(b"reply", &mut burst);
        assert_eq!(
            script.log,
            [
                Event::Read,
                Event::Write(burst[..3].to_vec()),
                Event::WriteWouldBlock,
            ]
        );
    }

    #[test]
    fn a_framing_error_drops_the_connection_after_the_earlier_replies() {
        let mut wire = calls(1..=3);
        // A fragment mark declaring more than any record may hold.
        wire.extend_from_slice(&0x7fff_ffff_u32.to_be_bytes());
        wire.extend(calls(4..=5));
        let mut script = Script {
            reads: [wire, calls([6])].into(),
            ..Script::default()
        };
        let registry = run(&mut script, 4);
        assert_eq!(script.log, [Event::Read, Event::Write(replies(1..=3, 4))]);
        assert_eq!(registry.counter("serve.calls").value(), 3);
    }
}
