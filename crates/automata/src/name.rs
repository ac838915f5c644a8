//! Identifiers: short ones inline, long ones shared.
//!
//! Connector sources name vertices, variables and primitives with a few
//! letters (`a`, `tl`, `i`, `Fifo1`), and flattening renames locals to
//! `v~12`. Holding each in a `String` made identifiers a third of the heap
//! blocks a cold open allocates, each one cloned several times on its way
//! from the lexer into a medium-automaton template. A [`Name`] keeps up to
//! 22 bytes in place and shares anything longer behind an `Arc`, so a clone
//! never allocates either way; it is 24 bytes, like the `String` it
//! replaces, and compares, orders and hashes as its `str`.

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
        Name::format(format_args!("{text}"))
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
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline bytes are whole `str`s"),
            Repr::Shared(text) => text,
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
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// As its `str`, so a map keyed by names answers `&str` queries.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
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

    #[test]
    fn names_compare_order_and_hash_as_their_text() {
        use std::collections::HashMap;
        let mut by_name: HashMap<Name, u32> = HashMap::new();
        by_name.insert(Name::new("tl"), 1);
        by_name.insert(Name::from("x".repeat(30)), 2);
        assert_eq!(by_name.get("tl"), Some(&1));
        assert_eq!(by_name.get("x".repeat(30).as_str()), Some(&2));
        assert!(Name::new("a") < Name::new("b"));
        assert!(Name::new("ab") > Name::new("a"));
        assert_eq!(format!("{:?}", Name::new("a")), "\"a\"");
    }
}
