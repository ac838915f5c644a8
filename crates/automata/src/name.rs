//! Identifiers: short ones inline, long ones shared.
//!
//! Connector sources name vertices, variables and primitives with a few
//! letters (`a`, `tl`, `i`, `Fifo1`), and flattening renames locals to
//! `v~12`. Holding each in a `String` made identifiers a third of the heap
//! blocks a cold open allocates, each one cloned several times on its way
//! from the lexer into a medium-automaton template. A [`Name`] keeps up to
//! 22 bytes in place and shares anything longer behind an `Arc`, so a clone
//! never allocates either way; it is 24 bytes, like the `String` it
//! replaces, and compares, orders and hashes as its `str` does, from the
//! bytes (never validated again after [`Name::new`] copied them in).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Bytes a [`Name`] holds without the heap.
const INLINE: usize = 22;

/// An immutable identifier (module docs).
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the text; `len <= INLINE`.
    Inline {
        len: u8,
        bytes: [u8; INLINE],
    },
    Shared(Arc<str>),
}

impl Name {
    pub fn new(text: &str) -> Name {
        let (len, mut bytes) = (text.len() as u8, [0; INLINE]);
        let Some(inline) = bytes.get_mut(..text.len()) else {
            return Name(Repr::Shared(text.into()));
        };
        inline.copy_from_slice(text.as_bytes());
        Name(Repr::Inline { len, bytes })
    }

    /// Format straight into a name: no intermediate `String` unless the
    /// result is too long to sit inline.
    pub fn format(args: fmt::Arguments<'_>) -> Name {
        let mut out = Writer::default();
        fmt::Write::write_fmt(&mut out, args).expect("writing to a name does not fail");
        match out.spill {
            Some(spill) => Name(Repr::Shared(spill.into())),
            None => Name(Repr::Inline {
                len: out.len as u8,
                bytes: out.bytes,
            }),
        }
    }

    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.bytes()).expect("inline bytes are whole `str`s")
    }

    /// The text's bytes: what equality, order and hashing read.
    fn bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(text) => text.as_bytes(),
        }
    }
}

/// Text written in whole `str`s, inline until it no longer fits.
#[derive(Default)]
struct Writer {
    len: usize,
    bytes: [u8; INLINE],
    spill: Option<String>,
}

impl fmt::Write for Writer {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        match &mut self.spill {
            Some(spill) => spill.push_str(text),
            None if self.len + text.len() <= INLINE => {
                self.bytes[self.len..][..text.len()].copy_from_slice(text.as_bytes());
                self.len += text.len();
            }
            None => {
                let head = std::str::from_utf8(&self.bytes[..self.len]).expect("whole `str`s");
                self.spill = Some([head, text].concat());
            }
        }
        Ok(())
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.bytes() == other.as_bytes()
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.bytes().cmp(other.bytes())
    }
}

/// What its `str` writes, so a map keyed by names answers `&str` queries.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::new(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name::new(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_are_inline_and_long_ones_shared() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        let short = Name::new("Fifo1");
        assert!(matches!(short.0, Repr::Inline { .. }));
        let exact = Name::new(&"x".repeat(INLINE));
        assert!(matches!(exact.0, Repr::Inline { .. }));
        let long = Name::new("(Sync x Fifo1 x Repl2 x Seq2)");
        assert!(matches!(long.0, Repr::Shared(_)));
        assert_eq!(long.clone(), "(Sync x Fifo1 x Repl2 x Seq2)");
    }

    #[test]
    fn formatting_spills_only_past_the_inline_bound() {
        let fresh = Name::format(format_args!("{}~{}", "v", 12));
        assert_eq!(fresh, "v~12");
        assert!(matches!(fresh.0, Repr::Inline { .. }));
        let wide = Name::format(format_args!("{}~{}", "élément_de_sommet", 123_456));
        assert_eq!(wide, "élément_de_sommet~123456");
        assert!(matches!(wide.0, Repr::Shared(_)));
    }

    /// Equality, order and the hash read bytes and agree with `str`'s, on
    /// ASCII and non-ASCII text, inline (22 bytes) and shared (23) alike,
    /// so a map keyed by names answers `&str` queries under either hasher.
    #[test]
    fn names_compare_order_and_hash_as_their_text() {
        use crate::buckets::{IdHasher, IdMap};
        use std::collections::hash_map::DefaultHasher;
        use std::collections::HashMap;
        fn hash<H: Hasher + Default>(x: &(impl Hash + ?Sized)) -> u64 {
            let mut h = H::default();
            x.hash(&mut h);
            h.finish()
        }
        let texts = [
            "",
            "a",
            "b",
            "ab",
            "tl",
            "v~12",
            "v~13",
            "Fifo1",
            "é",
            "élément",
            "ü~1",
            "abcdefghijklmnopqrstuv",  // 22: the longest inline
            "abcdefghijklmnopqrstuvw", // 23: the shortest shared
            "abcdefghijklmnopqrstuvx",
            "ééééééééééé",
            "éééééééééééa",
            "éééééééééééé",
        ];
        for a in texts {
            let name = Name::new(a);
            assert_eq!(
                matches!(name.0, Repr::Inline { .. }),
                a.len() <= INLINE,
                "{a}"
            );
            assert_eq!(
                hash::<DefaultHasher>(&name),
                hash::<DefaultHasher>(a),
                "{a}"
            );
            assert_eq!(hash::<IdHasher>(&name), hash::<IdHasher>(a), "{a}");
            for b in texts {
                let other = Name::new(b);
                assert_eq!(name == other, a == b, "{a} == {b}");
                assert_eq!(name == *b, a == b, "{a} == {b}");
                assert_eq!(name.cmp(&other), a.cmp(b), "{a} cmp {b}");
            }
        }
        let std_map: HashMap<Name, usize> =
            texts.iter().map(|&t| (Name::new(t), t.len())).collect();
        let id_map: IdMap<Name, usize> = texts.iter().map(|&t| (Name::new(t), t.len())).collect();
        for t in texts {
            assert_eq!(std_map.get(t), Some(&t.len()), "{t}");
            assert_eq!(id_map.get(t), Some(&t.len()), "{t}");
        }
        assert_eq!(id_map.get("abcdefghijklmnopqrstuvy"), None);
        assert_eq!(format!("{:?}", Name::new("a")), "\"a\"");
    }
}
