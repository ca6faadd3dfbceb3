//! Filename anonymization with suffix and special-form preservation.
//!
//! The paper's rules (§2):
//!
//! - suffixes are anonymized separately from stems, so files sharing a
//!   suffix share the anonymized suffix;
//! - special prefixes/suffixes (`#…#`, `…~`, `…,v`) are preserved
//!   structurally, keeping the relationship between `#foo#` and `foo`;
//! - configured common names (`CVS`, `.pinerc`, `inbox`, …) and
//!   components (`lock`) pass through unchanged;
//! - a leading dot is structural (a dot file stays a dot file).

use crate::blob::{read_sorted, read_str, write_sorted, write_str};
use crate::tables::StringTable;
use nfstrace_store::error::Result;
use std::collections::HashSet;

/// Anonymizes last-path-components.
#[derive(Debug)]
pub struct NameAnonymizer {
    stems: StringTable,
    suffixes: StringTable,
    passthrough_names: HashSet<String>,
    passthrough_suffixes: HashSet<String>,
}

impl NameAnonymizer {
    /// Creates a name anonymizer with the paper-inspired default
    /// passthrough sets.
    pub fn new(seed: u64) -> Self {
        let passthrough_names: HashSet<String> = [
            "CVS",
            ".inbox",
            ".pinerc",
            ".cshrc",
            ".login",
            ".profile",
            "inbox",
            "mbox",
            "core",
            "lock",
            "received",
            "sent-mail",
            "saved-messages",
        ]
        .into_iter()
        .map(str::to_string)
        .collect();
        let passthrough_suffixes: HashSet<String> = ["lock", "log", "o", "c", "h", "tmp"]
            .into_iter()
            .map(str::to_string)
            .collect();
        NameAnonymizer {
            stems: StringTable::new(seed ^ 0x5335_0001, "f"),
            suffixes: StringTable::new(seed ^ 0x5335_0002, "x"),
            passthrough_names,
            passthrough_suffixes,
        }
    }

    /// Adds a name that must pass through unchanged.
    pub fn add_passthrough_name(&mut self, name: &str) {
        self.passthrough_names.insert(name.to_string());
    }

    /// Anonymizes one last-path-component.
    pub fn map(&mut self, name: &str) -> String {
        if name.is_empty() || self.passthrough_names.contains(name) {
            return name.to_string();
        }
        // Special editor form: #inner# → #map(inner)#.
        if name.len() > 2 && name.starts_with('#') && name.ends_with('#') {
            let inner = &name[1..name.len() - 1];
            return format!("#{}#", self.map(inner));
        }
        // Backup form: inner~ → map(inner)~.
        if name.len() > 1 && name.ends_with('~') {
            let inner = &name[..name.len() - 1];
            return format!("{}~", self.map(inner));
        }
        // RCS form: inner,v → map(inner),v.
        if name.len() > 2 && name.ends_with(",v") {
            let inner = &name[..name.len() - 2];
            return format!("{},v", self.map(inner));
        }
        // Leading dot is structural.
        if let Some(rest) = name.strip_prefix('.') {
            if !rest.is_empty() && !rest.starts_with('.') {
                return format!(".{}", self.map(rest));
            }
        }
        // Split the suffix at the last dot; anonymize the parts
        // independently so suffix equivalence classes survive.
        if let Some(idx) = name.rfind('.') {
            if idx > 0 && idx + 1 < name.len() {
                let stem = &name[..idx];
                let suffix = &name[idx + 1..];
                let anon_suffix = if self.passthrough_suffixes.contains(suffix) {
                    suffix.to_string()
                } else {
                    self.suffixes.map(suffix)
                };
                return format!("{}.{}", self.map_stem(stem), anon_suffix);
            }
        }
        self.map_stem(name)
    }

    fn map_stem(&mut self, stem: &str) -> String {
        if self.passthrough_names.contains(stem) {
            stem.to_string()
        } else {
            self.stems.map(stem)
        }
    }

    /// Appends the passthrough name and suffix sets, then the stem and
    /// suffix tables.
    pub(crate) fn write_to(&self, buf: &mut Vec<u8>) {
        for set in [&self.passthrough_names, &self.passthrough_suffixes] {
            write_sorted(buf, set, |buf, s| write_str(buf, s));
        }
        self.stems.write_assigned(buf);
        self.suffixes.write_assigned(buf);
    }

    /// Reads what [`NameAnonymizer::write_to`] wrote into this new
    /// anonymizer: the stored passthrough sets replace the defaults.
    pub(crate) fn read_from(&mut self, bytes: &[u8], pos: &mut usize) -> Result<()> {
        for set in [&mut self.passthrough_names, &mut self.passthrough_suffixes] {
            *set = read_sorted(bytes, pos, 1, read_str)?.into_iter().collect();
        }
        self.stems.read_assigned(bytes, pos)?;
        self.suffixes.read_assigned(bytes, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anon() -> NameAnonymizer {
        NameAnonymizer::new(99)
    }

    #[test]
    fn consistent_mapping() {
        let mut a = anon();
        assert_eq!(a.map("thesis-draft"), a.map("thesis-draft"));
        assert_ne!(a.map("thesis-draft"), a.map("other-file"));
    }

    #[test]
    fn suffix_classes_preserved() {
        let mut a = anon();
        let x = a.map("alpha.dat");
        let y = a.map("beta.dat");
        let sx = x.rsplit('.').next().unwrap().to_string();
        let sy = y.rsplit('.').next().unwrap().to_string();
        assert_eq!(sx, sy, "{x} vs {y}");
        // Different stems anonymize differently.
        assert_ne!(x.split('.').next(), y.split('.').next());
    }

    #[test]
    fn passthrough_suffixes_stay_readable() {
        let mut a = anon();
        let m = a.map("secretuser.lock");
        assert!(m.ends_with(".lock"), "{m}");
        assert!(!m.starts_with("secretuser"));
        let m = a.map("module77.c");
        assert!(m.ends_with(".c"), "{m}");
    }

    #[test]
    fn special_forms_wrap_inner_mapping() {
        let mut a = anon();
        let plain = a.map("notes.txt");
        assert_eq!(a.map("#notes.txt#"), format!("#{plain}#"));
        assert_eq!(a.map("notes.txt~"), format!("{plain}~"));
        assert_eq!(a.map("notes.txt,v"), format!("{plain},v"));
    }

    #[test]
    fn dot_files_stay_dot_files() {
        let mut a = anon();
        let m = a.map(".secretrc");
        assert!(m.starts_with('.'), "{m}");
        assert_ne!(m, ".secretrc");
    }

    #[test]
    fn common_names_pass_through() {
        let mut a = anon();
        for n in ["CVS", ".pinerc", "inbox", "mbox", "core"] {
            assert_eq!(a.map(n), n);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NameAnonymizer::new(1);
        let mut b = NameAnonymizer::new(2);
        assert_ne!(a.map("projectplan"), b.map("projectplan"));
    }

    #[test]
    fn category_classification_survives() {
        use nfstrace_core::names::{classify, FileCategory};
        let mut a = anon();
        assert_eq!(classify(&a.map("userxyz.lock")), FileCategory::Lock);
        assert_eq!(classify(&a.map(".secretrc")), FileCategory::Dot);
        assert_eq!(classify(&a.map("inbox")), FileCategory::Mailbox);
        assert_eq!(classify(&a.map("private.c,v")), FileCategory::Rcs);
        assert_eq!(classify(&a.map("#draft.txt#")), FileCategory::EditorTmp);
    }

    #[test]
    fn empty_and_degenerate_names() {
        let mut a = anon();
        assert_eq!(a.map(""), "");
        // Bare "#" and "~" and "." are not special forms.
        assert_ne!(a.map("#"), "#");
        let t = a.map("~");
        assert!(!t.is_empty());
    }

    #[test]
    fn byte_roundtrip_preserves_mapping() {
        let mut a = anon();
        a.add_passthrough_name("keep-me");
        let before = a.map("keepsake.doc");
        let mut buf = Vec::new();
        a.write_to(&mut buf);
        let mut b = anon();
        let mut pos = 0;
        b.read_from(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(b.map("keepsake.doc"), before);
        assert_eq!(b.map("keep-me"), "keep-me");
    }
}
