//! Replay input the client cannot act on is an error, not a panic or a
//! hang: a reply record too short to carry an xid, and a window that
//! admits no call — also inside `serve_roundtrip`, whose serving loop
//! must stop when the replay beside it fails.

use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_fssim::SharedNfsServer;
use nfstrace_serve::{
    replay, serve_roundtrip, FsService, NfsService, NfsTcpServer, ReplayOptions, ReplayPlan,
};
use nfstrace_store::StoreError;
use nfstrace_telemetry::Registry;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A one-call plan: a GETATTR from one client to one server.
fn one_call_plan() -> ReplayPlan {
    let mut r = TraceRecord::new(1_000, Op::Getattr, FileId(2));
    r.client = 0x0a00_0009;
    r.server = 0x0a00_0001;
    r.xid = 77;
    r.reply_micros = 1_100;
    ReplayPlan::from_records(&[r])
}

/// A misbehaving server answers the first call with a well-framed
/// two-byte record (`80 00 00 02 ab cd`). The client used to index the
/// record's first four bytes for its xid and panic; it must return
/// `InvalidData` instead.
#[test]
fn a_reply_record_shorter_than_an_xid_is_an_error_not_a_panic() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 4096];
        let n = conn.read(&mut buf).expect("read the first call");
        assert!(n > 0, "the client sends its call first");
        conn.write_all(&[0x80, 0x00, 0x00, 0x02, 0xab, 0xcd])
            .expect("write the short record");
        // Hold the connection open until the client gives up on it.
        while conn.read(&mut buf).is_ok_and(|n| n > 0) {}
    });

    let plan = one_call_plan();
    let result = std::panic::catch_unwind(|| {
        replay(&plan, addr, &ReplayOptions::default(), &Registry::new()).map(|o| o.calls_sent)
    });
    let err = result
        .expect("replay must not panic on a short reply record")
        .expect_err("a reply without an xid cannot be matched");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    server.join().expect("raw server");
}

/// `window: 0` admits no call, so the loop used to poll its idle
/// connection forever. It must be refused before connecting.
#[test]
fn a_zero_window_is_refused_instead_of_hanging() {
    let service: Arc<dyn NfsService> = Arc::new(FsService::new(SharedNfsServer::new(0x0a00_0001)));
    let mut server = NfsTcpServer::spawn(service, &Registry::new()).expect("spawn server");
    let addr = server.addr();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let options = ReplayOptions {
            window: 0,
            ..ReplayOptions::default()
        };
        let result =
            replay(&one_call_plan(), addr, &options, &Registry::new()).map(|o| o.calls_sent);
        tx.send(result).ok();
    });
    let result = rx
        .recv_timeout(Duration::from_secs(3))
        .expect("replay with a zero window must return within 3 s");
    let err = result.expect_err("a zero window can replay nothing");
    assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
    server.shutdown();
}

/// The same refusal inside the closed loop: `replay` fails before it
/// connects, and the serving loop beside it must still be stopped and
/// joined, or the roundtrip would hang in its `accept`.
#[test]
fn a_zero_window_roundtrip_stops_its_server_and_returns_the_error() {
    let dir = std::env::temp_dir().join(format!("nfstrace-zero-window-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (tx, rx) = mpsc::channel();
    let worker_dir = dir.clone();
    std::thread::spawn(move || {
        let options = ReplayOptions {
            window: 0,
            ..ReplayOptions::default()
        };
        let result = serve_roundtrip(&one_call_plan(), &options, &Registry::new(), &worker_dir)
            .map(|o| o.replay.calls_sent);
        tx.send(result).ok();
    });
    let result = rx
        .recv_timeout(Duration::from_secs(3))
        .expect("a roundtrip with a zero window must return within 3 s");
    match result {
        Err(StoreError::Io(err)) => assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}"),
        other => panic!("expected the replay's InvalidInput, got {other:?}"),
    }
    assert!(!dir.exists(), "nothing is ingested after a failed replay");
}
