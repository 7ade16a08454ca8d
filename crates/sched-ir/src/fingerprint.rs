//! Canonical content fingerprints of scheduling regions.
//!
//! The pipeline's schedule cache keys regions by *content*: two regions
//! with the same instruction count, the same per-id Def/Use register
//! lists, and the same successor edges in the same stored order produce
//! bitwise-identical scheduler output, so a schedule computed for one can
//! be reused for the other. That content is one word stream,
//! `content_words`, read in id order: [`ddg_content_fingerprint`] hashes
//! it for the cache key, [`PackedDdg`] stores it for the cache's equality
//! gate, and [`PackedDdg::matches`] compares a region's stream against the
//! stored one. So the key separates exactly what the gate compares, and
//! [`Ddg::content_eq`] stays as the independent reference both are tested
//! against; a 64-bit collision can never smuggle in a wrong schedule,
//! because every hash match is gated.
//!
//! Instruction *names* are deliberately excluded from the stream: no
//! scheduler reads them, and no schedule, pressure, occupancy, or cost
//! result depends on them. Template instantiation produces regions
//! identical up to mnemonic suffixes; keying on names would needlessly
//! miss those.
//!
//! The hash is 64-bit FNV-1a; [`Fnv64`] is the workspace's one
//! accumulator, shared by the cache keys and the golden ACO and suite
//! fingerprints.

use crate::builder::DdgBuilder;
use crate::ddg::Ddg;
use crate::instr::{InstrId, Reg};

/// 64-bit FNV-1a accumulator (offset basis / prime per the reference
/// parameters). Words are folded in little-endian byte order.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Fresh accumulator at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one 64-bit word, byte by byte.
    #[inline]
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// Canonical fingerprint of a region's scheduling content: FNV-1a over
/// its content words, the words a [`PackedDdg`] stores and
/// [`PackedDdg::matches`] compares (the instruction count, then per
/// instruction its def and use counts, its registers and its successor
/// edges in stored order). Everything a scheduler's output can depend on
/// is committed; instruction names are not (see module docs).
pub fn ddg_content_fingerprint(ddg: &Ddg) -> u64 {
    let mut h = Fnv64::new();
    content_words(ddg, |w| {
        h.word(w);
        true
    });
    h.finish()
}

/// A read-only copy of a region in one allocation: what the schedule
/// cache keeps of every region it stores.
///
/// It holds exactly what [`Ddg::content_eq`] compares, as LEB128 varints:
/// the instruction count, then per instruction its def and use counts, its
/// registers (`id << 1 | class`, defs then uses) and its successor edges
/// (target, latency) in stored order. The instruction names follow, each
/// as a length and its bytes, because a saved cache file prints them. At
/// the `frontend-large` mean of 44 instructions that is about 19 bytes an
/// instruction, where a `Ddg` clone is six blocks and about 70.
///
/// [`PackedDdg::matches`] answers what `content_eq` answers without
/// allocating, and [`PackedDdg::unpack`] rebuilds a region that prints the
/// same text.
#[derive(Debug, Clone)]
pub struct PackedDdg {
    /// The byte length of the content words (a varint), the content words,
    /// then the names.
    bytes: Box<[u8]>,
}

impl PackedDdg {
    /// Packs `ddg` into one exact-fit allocation.
    pub fn new(ddg: &Ddg) -> PackedDdg {
        let mut content = 0;
        content_words(ddg, |w| {
            content += varint_len(w);
            true
        });
        let names: usize = ddg
            .ids()
            .map(|id| ddg.instr(id).name().len())
            .map(|len| varint_len(len as u64) + len)
            .sum();
        let len = varint_len(content as u64) + content + names;
        let mut bytes = Vec::with_capacity(len);
        push_varint(&mut bytes, content as u64);
        content_words(ddg, |w| {
            push_varint(&mut bytes, w);
            true
        });
        for id in ddg.ids() {
            let name = ddg.instr(id).name();
            push_varint(&mut bytes, name.len() as u64);
            bytes.extend_from_slice(name.as_bytes());
        }
        debug_assert_eq!(bytes.len(), len);
        PackedDdg {
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Whether `ddg` has this region's scheduling content: exactly
    /// `self.unpack().content_eq(ddg)`, compared word by word as `ddg` is
    /// walked, stopping at the first difference.
    pub fn matches(&self, ddg: &Ddg) -> bool {
        let mut packed = Words::new(&self.bytes);
        // Skip the content length. Counts are compared before the words
        // they count are read, so the walk never leaves the content words.
        packed.next();
        content_words(ddg, |w| packed.next_is(w))
    }

    /// Rebuilds the region: its [`crate::textir::to_text`] is the packed
    /// region's, and it is `content_eq` to it.
    pub fn unpack(&self) -> Ddg {
        let mut words = Words::new(&self.bytes);
        let content = words.next() as usize;
        let mut names = Words::new(&self.bytes);
        names.at = words.at + content;
        let mut b = DdgBuilder::new();
        for from in 0..words.next() as u32 {
            let (defs, uses) = (words.next(), words.next());
            let table = &mut b.instrs;
            let name_len = names.next() as usize;
            let name = &self.bytes[names.at..names.at + name_len];
            names.at += name_len;
            table
                .names
                .push_str(std::str::from_utf8(name).expect("packed from a str"));
            table.regs.extend((0..defs).map(|_| reg(words.next())));
            let defs_end = table.regs.len();
            table.regs.extend((0..uses).map(|_| reg(words.next())));
            table.close_row(defs_end);
            for _ in 0..words.next() {
                let (to, latency) = (words.next() as u32, words.next() as u16);
                b.edges.push((InstrId(from), InstrId(to), latency));
            }
        }
        b.build().expect("a packed region was a valid Ddg")
    }
}

/// Feeds `word` the content words of `ddg` (see [`PackedDdg`]) until it
/// returns `false`; returns whether it never did. The one content stream:
/// the fingerprint hashes it, `PackedDdg::new` stores it and `matches`
/// compares it.
#[inline]
fn content_words(ddg: &Ddg, mut word: impl FnMut(u64) -> bool) -> bool {
    let t = &ddg.instrs;
    if !word(t.len() as u64) {
        return false;
    }
    let mut start = 0;
    for (id, ends) in ddg.ids().zip(&t.ends) {
        let (defs_end, uses_end) = (ends[1] as usize, ends[2] as usize);
        let succs = ddg.succs(id);
        let row = word((defs_end - start) as u64)
            && word((uses_end - defs_end) as u64)
            && t.regs[start..uses_end]
                .iter()
                .all(|r| word(u64::from(r.id()) << 1 | r.class().index() as u64))
            && word(succs.len() as u64)
            && succs
                .iter()
                .all(|&(s, lat)| word(s.0.into()) && word(lat.into()));
        if !row {
            return false;
        }
        start = uses_end;
    }
    true
}

fn reg(w: u64) -> Reg {
    let id = (w >> 1) as u32;
    if w & 1 == 0 {
        Reg::vgpr(id)
    } else {
        Reg::sgpr(id)
    }
}

#[inline]
fn varint_len(w: u64) -> usize {
    (64 - (w | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline]
fn push_varint(out: &mut Vec<u8>, mut w: u64) {
    while w >= 0x80 {
        out.push(w as u8 | 0x80);
        w >>= 7;
    }
    out.push(w as u8);
}

/// A cursor over varints.
struct Words<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Words<'a> {
    fn new(bytes: &'a [u8]) -> Words<'a> {
        Words { bytes, at: 0 }
    }

    /// Whether the next word is `w`; past a mismatch the cursor is
    /// meaningless.
    #[inline]
    fn next_is(&mut self, w: u64) -> bool {
        if w < 0x80 {
            // A one-byte word: the byte itself, with no continuation bit.
            self.at += 1;
            return self.bytes[self.at - 1] == w as u8;
        }
        self.next() == w
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let (mut w, mut shift) = (0, 0);
        loop {
            let b = self.bytes[self.at];
            self.at += 1;
            w |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return w;
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::instr::Reg;

    fn chain(names: [&str; 3], lat: u16) -> Ddg {
        let mut b = DdgBuilder::new();
        let a = b.instr(names[0], [Reg::vgpr(0)], []);
        let c = b.instr(names[1], [Reg::vgpr(1)], [Reg::vgpr(0)]);
        let d = b.instr(names[2], [], [Reg::vgpr(1)]);
        b.edge(a, c, lat).unwrap();
        b.edge(c, d, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fingerprint_is_deterministic_and_name_blind() {
        let a = chain(["ld", "add", "st"], 4);
        let b = chain(["load_dword", "v_add", "store"], 4);
        assert_eq!(ddg_content_fingerprint(&a), ddg_content_fingerprint(&b));
        assert!(a.content_eq(&b));
        assert!(b.content_eq(&a));
    }

    #[test]
    fn fingerprint_separates_latency_registers_and_shape() {
        let base = chain(["a", "b", "c"], 4);
        let lat = chain(["a", "b", "c"], 5);
        assert_ne!(
            ddg_content_fingerprint(&base),
            ddg_content_fingerprint(&lat)
        );
        assert!(!base.content_eq(&lat));

        let mut b = DdgBuilder::new();
        let x = b.instr("a", [Reg::sgpr(0)], []); // vgpr -> sgpr
        let y = b.instr("b", [Reg::vgpr(1)], [Reg::vgpr(0)]);
        let z = b.instr("c", [], [Reg::vgpr(1)]);
        b.edge(x, y, 4).unwrap();
        b.edge(y, z, 1).unwrap();
        let regs = b.build().unwrap();
        assert_ne!(
            ddg_content_fingerprint(&base),
            ddg_content_fingerprint(&regs)
        );
        assert!(!base.content_eq(&regs));

        let mut b = DdgBuilder::new();
        b.instr("a", [Reg::vgpr(0)], []);
        b.instr("b", [Reg::vgpr(1)], [Reg::vgpr(0)]);
        let indep = b.build().unwrap();
        assert_ne!(
            ddg_content_fingerprint(&base),
            ddg_content_fingerprint(&indep)
        );
    }

    #[test]
    fn generated_duplicates_agree_and_distinct_seeds_differ() {
        // Same construction twice -> same fingerprint; different latency
        // profile -> different one. (Cross-crate generators are covered by
        // the workloads duplicate_stats tests.)
        let a = chain(["p", "q", "r"], 2);
        let b = chain(["p", "q", "r"], 2);
        assert_eq!(ddg_content_fingerprint(&a), ddg_content_fingerprint(&b));
        let c = chain(["p", "q", "r"], 3);
        assert_ne!(ddg_content_fingerprint(&a), ddg_content_fingerprint(&c));
    }

    #[test]
    fn a_packed_region_matches_what_content_eq_matches_and_unpacks_to_its_text() {
        use crate::textir::to_text;
        let base = chain(["ld", "add", "st"], 4);
        let renamed = chain(["load_dword", "v_add", "é"], 4);
        let slower = chain(["ld", "add", "st"], 5);
        let mut b = DdgBuilder::new();
        let x = b.instr("", [Reg::sgpr(crate::MAX_REG_ID)], []);
        let y = b.instr("b", [Reg::vgpr(1)], [Reg::vgpr(0), Reg::sgpr(300)]);
        let z = b.instr("c", [], [Reg::vgpr(1)]);
        b.edge(x, z, u16::MAX).unwrap();
        b.edge(x, y, 200).unwrap();
        b.edge(y, z, 1).unwrap();
        let wide = b.build().unwrap();
        let empty = DdgBuilder::new().build().unwrap();
        let all = [&base, &renamed, &slower, &wide, &empty];
        for a in all {
            let packed = PackedDdg::new(a);
            assert_eq!(to_text(&packed.unpack()), to_text(a));
            assert!(packed.unpack().content_eq(a));
            for other in all {
                assert_eq!(packed.matches(other), a.content_eq(other));
            }
        }
        assert!(PackedDdg::new(&base).matches(&renamed));
        assert!(!PackedDdg::new(&base).matches(&slower));
    }

    #[test]
    fn empty_region_fingerprint_is_stable() {
        let a = DdgBuilder::new().build().unwrap();
        let b = DdgBuilder::new().build().unwrap();
        assert_eq!(ddg_content_fingerprint(&a), ddg_content_fingerprint(&b));
        assert!(a.content_eq(&b));
    }
}
