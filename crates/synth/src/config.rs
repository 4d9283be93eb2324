//! Configuration of the bounded exhaustive enumerator.

use tm_exec::hash::Fnv1a;
use tm_exec::{Annot, Fence};

/// Bounds and feature switches for candidate-execution enumeration.
///
/// The enumerator is the explicit-search replacement for the paper's
/// SAT-based Memalloy backend (see the crate docs): it produces every
/// well-formed candidate execution within the bounds, up to thread/location
/// symmetry.
///
/// Keep `max_events` small (≤ 5): the space grows super-exponentially, which
/// is also why the paper reports synthesis times in hours for 6–7 events.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthConfig {
    /// Maximum number of events per execution.
    pub max_events: usize,
    /// Maximum number of threads.
    pub max_threads: usize,
    /// Maximum number of distinct locations.
    pub max_locs: usize,
    /// Fence event kinds the enumerator may insert.
    pub fences: Vec<Fence>,
    /// Annotation choices for read events (always includes plain).
    pub read_annots: Vec<Annot>,
    /// Annotation choices for write events (always includes plain).
    pub write_annots: Vec<Annot>,
    /// Whether to enumerate address/data dependencies.
    pub dependencies: bool,
    /// Whether to enumerate read-modify-write pairs.
    pub rmws: bool,
    /// Whether to enumerate successful transactions.
    pub transactions: bool,
    /// Maximum number of transactions per execution.
    pub max_txns: usize,
}

impl SynthConfig {
    /// A configuration suitable for the x86 study of Table 1: plain accesses,
    /// `MFENCE`, RMWs, and transactions.
    pub fn x86(max_events: usize) -> SynthConfig {
        SynthConfig {
            max_events,
            max_threads: 3,
            max_locs: 3,
            fences: vec![Fence::MFence],
            read_annots: vec![Annot::PLAIN],
            write_annots: vec![Annot::PLAIN],
            dependencies: false,
            rmws: true,
            transactions: true,
            max_txns: 3,
        }
    }

    /// A configuration suitable for the Power study of Table 1: plain
    /// accesses, `sync`/`lwsync`, dependencies, RMWs, and transactions.
    pub fn power(max_events: usize) -> SynthConfig {
        SynthConfig {
            max_events,
            max_threads: 3,
            max_locs: 3,
            fences: vec![Fence::Sync, Fence::Lwsync],
            read_annots: vec![Annot::PLAIN],
            write_annots: vec![Annot::PLAIN],
            dependencies: true,
            rmws: true,
            transactions: true,
            max_txns: 3,
        }
    }

    /// A configuration suitable for the ARMv8 suites of §6.2: plain and
    /// acquire/release accesses, `DMB`, dependencies, RMWs, transactions.
    pub fn armv8(max_events: usize) -> SynthConfig {
        SynthConfig {
            max_events,
            max_threads: 3,
            max_locs: 3,
            fences: vec![Fence::Dmb],
            read_annots: vec![Annot::PLAIN, Annot::acquire()],
            write_annots: vec![Annot::PLAIN, Annot::release()],
            dependencies: true,
            rmws: true,
            transactions: true,
            max_txns: 3,
        }
    }

    /// A configuration suitable for the C++ study of §7–8: relaxed, acquire,
    /// release and seq_cst atomics plus non-atomics, and transactions.
    pub fn cpp(max_events: usize) -> SynthConfig {
        SynthConfig {
            max_events,
            max_threads: 3,
            max_locs: 3,
            fences: vec![],
            read_annots: vec![
                Annot::PLAIN,
                Annot::relaxed_atomic(),
                Annot::acquire_atomic(),
                Annot::seq_cst(),
            ],
            write_annots: vec![
                Annot::PLAIN,
                Annot::relaxed_atomic(),
                Annot::release_atomic(),
                Annot::seq_cst(),
            ],
            dependencies: false,
            rmws: false,
            transactions: true,
            max_txns: 2,
        }
    }

    /// Disables transactions (used when enumerating baseline behaviours).
    pub fn without_transactions(mut self) -> SynthConfig {
        self.transactions = false;
        self
    }

    /// A stable 64-bit fingerprint of every bound and feature switch.
    ///
    /// Two configurations fingerprint equal iff they enumerate the same
    /// space, across processes and machines — checkpointed sweeps bank
    /// work-unit results under ids derived from this value, and refuse to
    /// resume a journal written under a different configuration.
    pub fn fingerprint(&self) -> u64 {
        let annot_bits = |a: &Annot| {
            u8::from(a.acq) | u8::from(a.rel) << 1 | u8::from(a.sc) << 2 | u8::from(a.atomic) << 3
        };
        let mut h = Fnv1a::new();
        h.usize(self.max_events)
            .usize(self.max_threads)
            .usize(self.max_locs);
        h.usize(self.fences.len());
        for f in &self.fences {
            h.usize(f.index());
        }
        h.usize(self.read_annots.len());
        for a in &self.read_annots {
            h.byte(annot_bits(a));
        }
        h.usize(self.write_annots.len());
        for a in &self.write_annots {
            h.byte(annot_bits(a));
        }
        h.byte(u8::from(self.dependencies))
            .byte(u8::from(self.rmws))
            .byte(u8::from(self.transactions))
            .usize(self.max_txns);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sensible_bounds() {
        for cfg in [
            SynthConfig::x86(4),
            SynthConfig::power(4),
            SynthConfig::armv8(4),
            SynthConfig::cpp(4),
        ] {
            assert_eq!(cfg.max_events, 4);
            assert!(cfg.max_threads >= 2);
            assert!(cfg.max_locs >= 2);
            assert!(!cfg.read_annots.is_empty());
            assert!(!cfg.write_annots.is_empty());
            assert!(cfg.transactions);
        }
        assert!(SynthConfig::power(4).dependencies);
        assert!(!SynthConfig::x86(4).dependencies);
        assert!(!SynthConfig::x86(4).without_transactions().transactions);
    }

    #[test]
    fn fingerprints_separate_configurations() {
        let base = SynthConfig::x86(4);
        assert_eq!(base.fingerprint(), SynthConfig::x86(4).fingerprint());
        assert_ne!(base.fingerprint(), SynthConfig::x86(5).fingerprint());
        assert_ne!(base.fingerprint(), SynthConfig::power(4).fingerprint());
        assert_ne!(
            base.fingerprint(),
            base.clone().without_transactions().fingerprint()
        );
        let mut trimmed = SynthConfig::x86(4);
        trimmed.max_locs = 2;
        assert_ne!(base.fingerprint(), trimmed.fingerprint());
    }
}
