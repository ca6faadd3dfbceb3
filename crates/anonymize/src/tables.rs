//! Consistent random-assignment tables.

use crate::blob::{malformed, read_sorted, read_str, read_u32, write_sorted, write_str};
use nfstrace_store::codec::write_varint;
use nfstrace_store::error::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// The generator a table holding `len` assignments draws from next: a
/// new table starts from its seed, a restored one from the seed salted
/// by how many assignments it already holds.
fn table_rng(seed: u64, len: usize, salt_shift: u32) -> StdRng {
    StdRng::seed_from_u64(seed ^ ((len as u64) << salt_shift))
}

/// Maps 32-bit identities (UIDs, GIDs, IPs) to arbitrary-but-consistent
/// replacement values.
///
/// Assignments are random draws (never hashes), collision-free, and
/// remembered for the table's lifetime. [`crate::Anonymizer::to_bytes`]
/// stores only the assigned pairs: a varint count, then varint
/// `(identity, token)` pairs sorted by identity. A restore derives the
/// rest: seed and passthrough set from the configuration, used tokens
/// as passthrough ∪ assigned, the generator from `seed ^ (len << 13)`.
///
/// # Examples
///
/// ```
/// use nfstrace_anonymize::IdTable;
///
/// let mut t = IdTable::new(7, &[0]);
/// let a = t.map(1001);
/// assert_eq!(t.map(1001), a);   // consistent
/// assert_eq!(t.map(0), 0);      // passthrough
/// ```
#[derive(Debug)]
pub struct IdTable {
    seed: u64,
    assigned: HashMap<u32, u32>,
    used: HashSet<u32>,
    passthrough: HashSet<u32>,
    rng: StdRng,
}

impl IdTable {
    /// Creates a table with a secret `seed` and identities that must
    /// never be rewritten (e.g. uid 0 and 1, per the paper's treatment
    /// of root and daemon).
    pub fn new(seed: u64, passthrough: &[u32]) -> Self {
        let passthrough: HashSet<u32> = passthrough.iter().copied().collect();
        IdTable {
            seed,
            assigned: HashMap::new(),
            used: passthrough.clone(),
            passthrough,
            rng: table_rng(seed, 0, 13),
        }
    }

    /// Maps an identity, assigning a fresh random token on first sight.
    pub fn map(&mut self, id: u32) -> u32 {
        if self.passthrough.contains(&id) {
            return id;
        }
        if let Some(&v) = self.assigned.get(&id) {
            return v;
        }
        let mut candidate = self.rng.gen::<u32>();
        while self.used.contains(&candidate) {
            candidate = self.rng.gen::<u32>();
        }
        self.assigned.insert(id, candidate);
        self.used.insert(candidate);
        candidate
    }

    /// Number of assignments made.
    pub fn len(&self) -> usize {
        self.assigned.len()
    }

    /// Whether no assignment has been made.
    pub fn is_empty(&self) -> bool {
        self.assigned.is_empty()
    }

    /// Appends the assigned pairs, sorted by identity.
    pub(crate) fn write_assigned(&self, buf: &mut Vec<u8>) {
        write_sorted(buf, &self.assigned, |buf, (&id, &token)| {
            write_varint(buf, id.into());
            write_varint(buf, token.into());
        });
    }

    /// Reads [`IdTable::write_assigned`]'s pairs into this new table. A
    /// token assigned twice, or equal to a passthrough identity, would
    /// merge two identities: that is an error.
    pub(crate) fn read_assigned(&mut self, bytes: &[u8], pos: &mut usize) -> Result<()> {
        let pairs = read_sorted(bytes, pos, 2, |b, p| Ok((read_u32(b, p)?, read_u32(b, p)?)))?;
        for (id, token) in pairs {
            if self.assigned.insert(id, token).is_some() || !self.used.insert(token) {
                return Err(malformed("an identity or token is assigned twice"));
            }
        }
        self.rng = table_rng(self.seed, self.assigned.len(), 13);
        Ok(())
    }
}

/// Maps strings (name stems, suffixes) to consistent random tokens.
///
/// Stored like [`IdTable`], with the prefix derived too and the
/// generator re-seeded with `seed ^ (len << 17)`.
#[derive(Debug)]
pub(crate) struct StringTable {
    seed: u64,
    prefix: String,
    assigned: HashMap<String, String>,
    used: HashSet<String>,
    rng: StdRng,
}

impl StringTable {
    /// Creates a table whose tokens start with `prefix` (e.g. `"n"` for
    /// name stems, `"s"` for suffixes).
    pub fn new(seed: u64, prefix: &str) -> Self {
        StringTable {
            seed,
            prefix: prefix.to_string(),
            assigned: HashMap::new(),
            used: HashSet::new(),
            rng: table_rng(seed, 0, 17),
        }
    }

    /// Maps a string, assigning a fresh random token on first sight.
    pub fn map(&mut self, s: &str) -> String {
        if let Some(v) = self.assigned.get(s) {
            return v.clone();
        }
        let mut token = format!("{}{:06x}", self.prefix, self.rng.gen::<u32>() & 0xff_ffff);
        while self.used.contains(&token) {
            token = format!("{}{:06x}", self.prefix, self.rng.gen::<u32>() & 0xff_ffff);
        }
        self.assigned.insert(s.to_string(), token.clone());
        self.used.insert(token.clone());
        token
    }

    /// Appends the assigned pairs, sorted by string.
    pub(crate) fn write_assigned(&self, buf: &mut Vec<u8>) {
        write_sorted(buf, &self.assigned, |buf, (s, token)| {
            write_str(buf, s);
            write_str(buf, token);
        });
    }

    /// Reads [`StringTable::write_assigned`]'s pairs into this new
    /// table; a token assigned twice is an error.
    pub(crate) fn read_assigned(&mut self, bytes: &[u8], pos: &mut usize) -> Result<()> {
        let pairs = read_sorted(bytes, pos, 2, |b, p| Ok((read_str(b, p)?, read_str(b, p)?)))?;
        for (s, token) in pairs {
            if !self.used.insert(token.clone()) || self.assigned.insert(s, token).is_some() {
                return Err(malformed("a string or token is assigned twice"));
            }
        }
        self.rng = table_rng(self.seed, self.assigned.len(), 17);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_table_consistent_and_collision_free() {
        let mut t = IdTable::new(1, &[]);
        let vals: Vec<u32> = (0..500).map(|i| t.map(i)).collect();
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(t.map(i as u32), v);
        }
        let distinct: HashSet<u32> = vals.iter().copied().collect();
        assert_eq!(distinct.len(), vals.len());
    }

    #[test]
    fn id_table_seeds_differ() {
        let mut a = IdTable::new(1, &[]);
        let mut b = IdTable::new(2, &[]);
        let same = (0..100).filter(|&i| a.map(i) == b.map(i)).count();
        assert!(same < 5, "seeds should give different mappings ({same})");
    }

    #[test]
    fn id_table_passthrough() {
        let mut t = IdTable::new(3, &[0, 1]);
        assert_eq!(t.map(0), 0);
        assert_eq!(t.map(1), 1);
        assert_ne!(t.map(2), 2); // overwhelmingly likely
    }

    #[test]
    fn id_table_byte_roundtrip_keeps_assignments() {
        let mut t = IdTable::new(4, &[]);
        let a = t.map(77);
        let mut buf = Vec::new();
        t.write_assigned(&mut buf);
        let mut t2 = IdTable::new(4, &[]);
        let mut pos = 0;
        t2.read_assigned(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(t2.map(77), a);
        // New assignments still work after a restore, drawn from the
        // seed salted by the one assignment already held.
        let b = t2.map(88);
        assert_ne!(a, b);
        assert_eq!(b, StdRng::seed_from_u64(4 ^ (1 << 13)).gen::<u32>());
    }

    #[test]
    fn string_table_consistent() {
        let mut t = StringTable::new(5, "n");
        let a = t.map("inbox-stem");
        assert_eq!(t.map("inbox-stem"), a);
        assert!(a.starts_with('n'));
        assert_ne!(t.map("other"), a);
        assert_eq!(t.assigned.len(), 2);
    }

    #[test]
    fn string_table_byte_roundtrip_keeps_assignments() {
        let mut t = StringTable::new(5, "n");
        let a = t.map("inbox-stem");
        let mut buf = Vec::new();
        t.write_assigned(&mut buf);
        let mut t2 = StringTable::new(5, "n");
        t2.read_assigned(&buf, &mut 0).unwrap();
        assert_eq!(t2.map("inbox-stem"), a);
        let draw = StdRng::seed_from_u64(5 ^ (1 << 17)).gen::<u32>() & 0xff_ffff;
        assert_eq!(t2.map("other"), format!("n{draw:06x}"));
    }

    #[test]
    fn string_table_no_collisions_small_space() {
        let mut t = StringTable::new(6, "s");
        let tokens: HashSet<String> = (0..2000).map(|i| t.map(&format!("k{i}"))).collect();
        assert_eq!(tokens.len(), 2000);
    }
}
