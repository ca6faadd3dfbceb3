//! Allocation budget and determinism for a fused replay.
//!
//! A fused replay learns the trace's (directory, name) → file map once,
//! in one file table, and hands every analyzer what each record did to
//! it. A LOOKUP of a name already bound re-binds it in place: no key is
//! built, and no analyzer keeps a copy of the name. The first test
//! holds a replay of the five weekday lifetime windows and name
//! prediction to that: what it allocates follows the distinct names of
//! the trace, not its records. One cloned name per analyzer per LOOKUP
//! would be six allocations a record (120 000 here).
//!
//! The file table numbers each handle once, and every analyzer keeps
//! its per-file state in vectors indexed by that number, so what a
//! replay allocates is a function of its trace. The second test replays
//! a churning trace sixteen times and expects the same counts each
//! time: a hash map that removes entries, whose resizes follow its
//! random hash keys, fails it.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nfstrace_core::index::{ReplayRequest, TraceIndex, TraceView};
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::runs::BLOCK;
use nfstrace_core::time::{DAY, MINUTE};

struct CountingAlloc;

thread_local! {
    // Allocations and bytes requested by this thread. Tests run on
    // threads of their own, and a replay over a `TraceIndex` runs on
    // its caller's, so each test counts its own replays alone.
    // Const-initialised and without a destructor, so the allocator can
    // read it without allocating or observing teardown.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        let (allocs, total) = c.get();
        c.set((allocs + 1, total + bytes as u64));
    });
}

/// This thread's (allocations, bytes) so far.
fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const RECORDS: u64 = 20_000;
const DIRECTORIES: u64 = 4;
const NAMES: [&str; 16] = [
    "inbox",
    "inbox.lock",
    "sent-mail",
    ".pinerc",
    "mbox",
    "received",
    ".cshrc",
    "snd.1",
    "pico.2",
    "Applet_1_Extern",
    "cache00001",
    "main.c",
    "main.o",
    "server.log",
    "#draft#",
    "main.c,v",
];

#[test]
fn a_fused_replay_allocates_for_its_names_not_its_records() {
    // LOOKUPs spread over eight days, through every weekday window: each
    // of the 16 names in each of the 4 directories, bound to one file.
    let entries = DIRECTORIES * NAMES.len() as u64;
    let records: Vec<TraceRecord> = (0..RECORDS)
        .map(|i| {
            let entry = i % entries;
            let dir = entry / NAMES.len() as u64;
            let mut r = TraceRecord::new(i * (8 * DAY / RECORDS), Op::Lookup, FileId(dir))
                .with_name(NAMES[(entry % NAMES.len() as u64) as usize]);
            r.new_fh = Some(FileId(1_000 + entry));
            r
        })
        .collect();
    let idx = TraceIndex::new(records);

    let before = counts().0;
    idx.prepare(&[ReplayRequest::WeekdayLifetime, ReplayRequest::Names]);
    let allocations = counts().0 - before;

    assert_eq!(idx.decode_passes(), 1);
    assert_eq!(idx.names().renames, 0);
    // One key per entry and the maps that hold them, plus the replay's
    // fixed cost — the file table, six analyzers, their reports and
    // caches (97 on this trace). A copy of each entry's name in any
    // analyzer goes through this bound; a copy per record, far through
    // it.
    assert!(
        allocations < entries + 64,
        "{allocations} allocations replaying {RECORDS} LOOKUPs of {entries} entries"
    );
}

/// Directories of the churn trace, each with its own mailbox and locks.
const CHURN_DIRECTORIES: u64 = 32;
/// Sessions per directory, spread over eight days.
const CHURN_ROUNDS: u64 = 160;

/// A mail server's churn over eight days, through every weekday window:
/// in each directory, session after session, a lock is created and
/// removed under one of eight names, the mailbox is written and
/// truncated, and every fifth session saves a new mailbox by renaming a
/// written temporary over the old one's name.
fn churn() -> Vec<TraceRecord> {
    let dir = |d: u64| FileId(d + 1);
    let mut records = Vec::new();
    let mut fresh = 1_000u64;
    let mut mailbox: Vec<u64> = Vec::new();
    let mut t = 0;
    let step = 8 * DAY / (CHURN_ROUNDS * CHURN_DIRECTORIES * 5);
    let mut push = |records: &mut Vec<TraceRecord>, mut r: TraceRecord| {
        t += step;
        r.micros = t;
        r.ret_count = r.count;
        records.push(r);
    };
    let named = |op, d: u64, name: &str| TraceRecord::new(0, op, dir(d)).with_name(name);
    for round in 0..CHURN_ROUNDS {
        for d in 0..CHURN_DIRECTORIES {
            fresh += 1;
            let lock = format!("lock.{}", (round + d) % 8);
            let mut create = named(Op::Create, d, &lock);
            create.new_fh = Some(FileId(fresh));
            push(&mut records, create);
            if round % 5 == 0 {
                fresh += 1;
                let mut create = named(Op::Create, d, "mbox.tmp");
                create.new_fh = Some(FileId(fresh));
                push(&mut records, create);
                let blocks = (round + d) % 24 + 1;
                let write = TraceRecord::new(0, Op::Write, FileId(fresh))
                    .with_range(0, (blocks * BLOCK) as u32);
                push(&mut records, write);
                let mut rename = named(Op::Rename, d, "mbox.tmp");
                rename.name2 = Some("mbox".into());
                push(&mut records, rename);
                if round == 0 {
                    mailbox.push(fresh);
                } else {
                    mailbox[d as usize] = fresh;
                }
            }
            let mbox = FileId(mailbox[d as usize]);
            let append = (round * 3 + d) % 40;
            push(
                &mut records,
                TraceRecord::new(0, Op::Write, mbox).with_range(append * BLOCK, (4 * BLOCK) as u32),
            );
            let mut truncate = TraceRecord::new(0, Op::Setattr, mbox);
            truncate.truncate_to = Some((round * 7 + d) % 36 * BLOCK);
            push(&mut records, truncate);
            push(&mut records, named(Op::Remove, d, &lock));
        }
    }
    records
}

#[test]
fn a_fused_replay_allocates_the_same_on_every_run() {
    let records = churn();
    let requests = [
        ReplayRequest::WeekdayLifetime,
        ReplayRequest::Names,
        ReplayRequest::Coverage(30 * MINUTE),
    ];
    let mut runs = Vec::new();
    for _ in 0..16 {
        let idx = TraceIndex::new(records.clone());
        let before = counts();
        idx.prepare(&requests);
        let after = counts();
        assert_eq!(idx.decode_passes(), 1);
        runs.push((after.0 - before.0, after.1 - before.1));
    }
    let idx = TraceIndex::new(records);
    assert!(idx.weekday_lifetime().deaths_truncate > 0);
    assert!(idx.weekday_lifetime().deaths_delete > 0);
    assert!(idx.names().renames > 0);
    assert!(
        runs.iter().all(|&run| run == runs[0]),
        "(allocations, bytes) of 16 replays of one trace: {runs:?}"
    );
}
