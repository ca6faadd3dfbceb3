//! Converting client wire events into analysis records.
//!
//! [`emitted_to_record`] flattens an [`EmittedCall`] (decoded call +
//! reply) into the version-independent [`TraceRecord`] the analysis
//! suite consumes — the same mapping the passive sniffer performs, usable
//! directly for large simulations that skip wire encoding.

use nfstrace_client::EmittedCall;
use nfstrace_core::record::TraceRecord;
use nfstrace_sniffer::{v3_to_record, CallMeta};

/// Flattens a call/reply pair into a [`TraceRecord`], delegating to the
/// sniffer's canonical mapping so the wire path and the fast path cannot
/// diverge.
pub fn emitted_to_record(e: &EmittedCall) -> TraceRecord {
    let meta = CallMeta {
        wire_micros: e.wire_micros,
        reply_micros: e.reply_micros,
        xid: e.xid,
        client: e.client_ip,
        server: e.server_ip,
        uid: e.uid,
        gid: e.gid,
        vers: e.vers,
    };
    v3_to_record(&meta, &e.call, &e.reply)
}

/// Appends a batch of events to `out` as records, unsorted.
///
/// The generators' hot drain path: per-batch sorting (and an
/// intermediate `Vec`) is wasted work there, because the sliced driver
/// sorts each user's records once per slice.
pub(crate) fn append_records(events: &[EmittedCall], out: &mut Vec<TraceRecord>) {
    out.reserve(events.len());
    out.extend(events.iter().map(emitted_to_record));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_client::{ClientConfig, ClientMachine};
    use nfstrace_core::record::Op;
    use nfstrace_fssim::NfsServer;

    fn records(client: &mut ClientMachine) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        append_records(&client.take_events(), &mut out);
        out
    }

    #[test]
    fn read_write_fields_mapped() {
        let mut server = NfsServer::new(9);
        let root = server.root_fh();
        let mut client = ClientMachine::new(ClientConfig {
            nfsiods: 1,
            ..ClientConfig::default()
        });
        let (fh, t) = client.create(&mut server, 0, &root, "inbox");
        let fh = fh.unwrap();
        let t = client.write(&mut server, t, &fh, 0, 10_000);
        // A foreign append moves the mtime so the next scan re-reads.
        server
            .fs_mut()
            .write(fh.as_u64().unwrap(), 10_000, 2_000, t + 1)
            .unwrap();
        client.read_file(&mut server, t + 60_000_000, &fh);
        let records = records(&mut client);
        assert!(records.iter().any(|r| r.op == Op::Read && r.eof));

        let create = records.iter().find(|r| r.op == Op::Create).unwrap();
        assert_eq!(create.name.as_deref(), Some("inbox"));
        assert!(create.new_fh.is_some());

        let w = records.iter().find(|r| r.op == Op::Write).unwrap();
        assert_eq!(w.pre_size, Some(0));
        assert!(w.ret_count > 0);

        // The read after the attr timeout revalidates; GETATTR carries
        // the post-op size.
        let g = records.iter().find(|r| r.op == Op::Getattr).unwrap();
        assert_eq!(g.post_size, Some(12_000));
    }

    #[test]
    fn records_keep_emission_order_and_wire_time() {
        let mut server = NfsServer::new(9);
        let root = server.root_fh();
        let mut client = ClientMachine::new(ClientConfig {
            nfsiods: 8,
            seed: 3,
            ..ClientConfig::default()
        });
        let (fh, t) = client.create(&mut server, 0, &root, "big");
        let fh = fh.unwrap();
        server
            .fs_mut()
            .write(fh.as_u64().unwrap(), 0, 8 << 20, t)
            .unwrap();
        let mut now = t + 60_000_000;
        for i in 0..200u64 {
            client.read(&mut server, now, &fh, i * 8192, 8192);
            now += 200;
        }
        // Eight nfsiods put calls on the wire out of issue order; the
        // records stay in emission order, each stamped with its wire
        // time, for the driver's per-slice stable sort.
        let events = client.take_events();
        let mut records = Vec::new();
        append_records(&events, &mut records);
        assert_eq!(records.len(), events.len());
        for (r, e) in records.iter().zip(&events) {
            assert_eq!((r.micros, r.xid), (e.wire_micros, e.xid));
        }
    }

    #[test]
    fn rename_maps_both_names() {
        let mut server = NfsServer::new(9);
        let root = server.root_fh();
        let mut client = ClientMachine::new(ClientConfig::default());
        let (_, t) = client.create(&mut server, 0, &root, "a");
        client.rename(&mut server, t, &root, "a", &root, "b");
        let records = records(&mut client);
        let rn = records.iter().find(|r| r.op == Op::Rename).unwrap();
        assert_eq!(rn.name.as_deref(), Some("a"));
        assert_eq!(rn.name2.as_deref(), Some("b"));
        assert!(rn.fh2.is_some());
    }

    #[test]
    fn setattr_truncate_mapped() {
        let mut server = NfsServer::new(9);
        let root = server.root_fh();
        let mut client = ClientMachine::new(ClientConfig::default());
        let (fh, t) = client.create(&mut server, 0, &root, "f");
        let fh = fh.unwrap();
        let t = client.write(&mut server, t, &fh, 0, 5000);
        client.truncate(&mut server, t, &fh, 0);
        let records = records(&mut client);
        let s = records.iter().find(|r| r.op == Op::Setattr).unwrap();
        assert_eq!(s.truncate_to, Some(0));
        assert_eq!(s.pre_size, Some(5000));
        assert_eq!(s.post_size, Some(0));
    }
}
