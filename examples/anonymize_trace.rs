//! Anonymizing a trace for publication (§2): identities and names are
//! replaced with arbitrary-but-consistent tokens, suffix classes and
//! special forms survive, and the analyses are unchanged.
//!
//! Run with: `cargo run --release --example anonymize_trace`

use nfstrace::anonymize::{Anonymizer, AnonymizerConfig};
use nfstrace::core::summary::SummaryStats;
use nfstrace::core::text;
use nfstrace::core::time::HOUR;
use nfstrace::workload::{CampusConfig, CampusWorkload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let records = CampusWorkload::new(CampusConfig {
        users: 4,
        duration_micros: HOUR,
        seed: 11,
        ..CampusConfig::default()
    })
    .generate();

    let mut anonymizer = Anonymizer::new(AnonymizerConfig::default());
    let anonymized = anonymizer.anonymize_trace(&records);

    // Show a few before/after lines of the on-disk format.
    println!("raw -> anonymized (first named records):");
    let mut shown = 0;
    for (a, b) in records.iter().zip(&anonymized) {
        if a.name.is_some() && shown < 5 {
            println!("  {}", text::format_record(a));
            println!("  {}", text::format_record(b));
            shown += 1;
        }
    }

    // Round-trip the anonymized trace through the text format.
    let mut buf = Vec::new();
    text::write_trace(&mut buf, anonymized.iter())?;
    let reread = text::read_trace(&buf[..])?;
    assert_eq!(reread, anonymized);
    println!(
        "\ntext round-trip: {} records, {} bytes",
        reread.len(),
        buf.len()
    );

    // The analyses cannot tell the difference.
    let s_raw = SummaryStats::from_records(records.iter());
    let s_anon = SummaryStats::from_records(anonymized.iter());
    assert_eq!(s_raw.total_ops, s_anon.total_ops);
    assert_eq!(s_raw.bytes_read, s_anon.bytes_read);
    println!(
        "analyses agree: {} ops, {:.2} R/W ratio on both raw and anonymized traces",
        s_raw.total_ops,
        s_raw.rw_bytes_ratio()
    );

    // The mapping (kept private by the traced site) can be stored, and
    // restoring it continues the very same mapping.
    let mapping = anonymizer.to_bytes();
    let mut restored = Anonymizer::from_bytes(&mapping)?;
    assert_eq!(restored.anonymize_trace(&records), anonymized);
    println!(
        "anonymization map: {} bytes (keep it secret); restored, it re-anonymizes the trace identically",
        mapping.len()
    );
    Ok(())
}
