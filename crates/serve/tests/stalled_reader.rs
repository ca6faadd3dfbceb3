//! A peer that stops reading must not be able to keep the server from
//! shutting down: a connection thread stalled in `write` has to notice
//! the stop flag, exit, and be joined.

use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_rpc::record::mark_record_into;
use nfstrace_serve::{NfsService, NfsTcpServer, ReplayPlan, ReplayService};
use nfstrace_telemetry::Registry;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CALLS: usize = 4_000;
const READ_BYTES: u32 = 8 * 1024;

/// `CALLS` pipelined 8 KiB READs from one client: ~600 KB of calls
/// asking for ~33 MB of replies, several times what a loopback socket
/// pair will buffer.
fn read_records() -> Vec<TraceRecord> {
    (0..CALLS)
        .map(|i| {
            let mut r = TraceRecord::new(i as u64, Op::Read, FileId(2));
            r.client = 0x0a00_0009;
            r.server = 0x0a00_0001;
            r.xid = 1_000 + i as u32;
            r.reply_micros = i as u64 + 1;
            r.offset = u64::from(READ_BYTES) * i as u64;
            r.count = READ_BYTES;
            r.ret_count = READ_BYTES;
            r
        })
        .collect()
}

#[test]
fn shutdown_returns_while_a_client_is_not_reading_its_replies() {
    let plan = ReplayPlan::from_records(&read_records());
    let mut wire = Vec::new();
    for call in &plan.calls {
        let reply = call.reply_bytes.as_ref().expect("a planned reply");
        assert!(reply.len() > READ_BYTES as usize);
        mark_record_into(&call.call_bytes, &mut wire);
    }
    let registry = Registry::new();
    let service: Arc<dyn NfsService> = Arc::new(ReplayService::new(&plan, 0x0a00_0001));
    drop(plan);
    let mut server = NfsTcpServer::spawn(service, &registry).expect("spawn server");

    // Pipeline every call and never read a reply. Once the server is
    // stalled writing to us it stops reading too, so our own write may
    // stall in turn: that, or having written everything, is far enough.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .expect("write timeout");
    let mut written = 0;
    while written < wire.len() {
        match stream.write(&wire[written..]) {
            Ok(n) => written += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => panic!("client write: {e}"),
        }
    }

    // Let the connection thread run into the full socket: no call
    // served for 200 ms. (Only to make the scenario the intended one —
    // `shutdown` must return promptly wherever the thread is.)
    let calls = registry.counter("serve.calls");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = calls.value();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = calls.value();
        if (now == seen && now > 0) || Instant::now() > deadline {
            break;
        }
        seen = now;
    }
    assert!(seen > 0, "the server served nothing");
    assert!(
        (seen as usize) < CALLS,
        "all {CALLS} replies fitted into the socket buffers: nothing stalled"
    );
    assert_eq!(registry.gauge("serve.active_conns").value(), 1.0);

    // `shutdown` on its own thread, so that a hang fails the test
    // instead of hanging it.
    let (done, returned) = mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        done.send(()).ok();
    });
    returned
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown() did not return within 2 s of a stalled reader");
    shutdown.join().expect("shutdown thread");
    assert_eq!(registry.gauge("serve.active_conns").value(), 0.0);
    drop(stream);
}
