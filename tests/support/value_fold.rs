//! Value fingerprint of a report: FNV-1a over every leaf of its `{:?}`
//! rendering, in declaration order, with no type or field names.
//!
//! - An integer folds its value, an `f64` its bits (`Debug` prints the
//!   shortest round-trip form, so parsing it back gives the same bits).
//! - An enum variant (`Launch`, `Retried(2)`, `None`, `Some(..)`) folds
//!   its name in place of a discriminant, then its payload.
//! - A list folds its elements, then its length.
//!
//! Struct names and field names are skipped, so the fingerprint holds
//! when a report's fields are renamed or nested into a sub-struct and
//! moves only when a value does. The whole-report `{:?}` pins move with
//! either; pin both to tell the two apart. A struct-like variant
//! (`Name { .. }`) reads as a struct, so its name is skipped too; the
//! reports hold none.
//!
//! Shared by the `lat-hwsim` unit tests and the root integration tests;
//! both include this file with `#[path]`.

use std::fmt::Debug;

/// One token of a non-pretty `{:?}` rendering.
enum Tok {
    Punct(char),
    Atom(String),
}

fn tokens(s: &str) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut atom = String::new();
    for c in s.chars() {
        let punct = matches!(c, '{' | '}' | '[' | ']' | '(' | ')' | ',' | ':');
        if punct || c.is_whitespace() {
            if !atom.is_empty() {
                toks.push(Tok::Atom(std::mem::take(&mut atom)));
            }
            if punct {
                toks.push(Tok::Punct(c));
            }
        } else {
            atom.push(c);
        }
    }
    if !atom.is_empty() {
        toks.push(Tok::Atom(atom));
    }
    toks
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// An open bracket: the list it starts (`[`) counts its elements.
struct Group {
    list: bool,
    commas: u64,
    nonempty: bool,
}

/// The value fingerprint of `x` (see the module doc).
pub fn value_fold(x: &impl Debug) -> u64 {
    let toks = tokens(&format!("{x:?}"));
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut open: Vec<Group> = Vec::new();
    let mut it = toks.iter().peekable();
    while let Some(tok) = it.next() {
        if !matches!(tok, Tok::Punct('}' | ']' | ')' | ',')) {
            if let Some(g) = open.last_mut() {
                g.nonempty = true;
            }
        }
        match tok {
            Tok::Punct(c @ ('{' | '[' | '(')) => open.push(Group {
                list: *c == '[',
                commas: 0,
                nonempty: false,
            }),
            Tok::Punct(',') => {
                if let Some(g) = open.last_mut() {
                    g.commas += 1;
                }
            }
            Tok::Punct('}' | ']' | ')') => {
                if let Some(g) = open.pop().filter(|g| g.list) {
                    let len = if g.nonempty { g.commas + 1 } else { 0 };
                    h.bytes(&len.to_le_bytes());
                }
            }
            Tok::Punct(_) => {}
            Tok::Atom(a) => {
                if let Ok(n) = a.parse::<i128>() {
                    h.bytes(&n.to_le_bytes());
                } else if let Ok(f) = a.parse::<f64>() {
                    h.bytes(&f.to_bits().to_le_bytes());
                } else if !matches!(it.peek(), Some(Tok::Punct(':' | '{'))) {
                    // Not a field name or a struct name: a variant.
                    h.bytes(a.as_bytes());
                }
            }
        }
    }
    h.0
}
