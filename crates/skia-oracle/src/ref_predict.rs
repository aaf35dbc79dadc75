//! Reference TAGE and ITTAGE predictors.
//!
//! These are the production predictors of `skia-uarch` as they stood before
//! their history was folded in lanes and their tables flattened: a vector
//! of tables, each with its own three folded registers updated one at a
//! time with a per-register shift, and a global-history ring eight times
//! the longest history. Same geometry, same arithmetic, separately
//! written, so the lockstep comparison covers the production predictors.
//!
//! [`RefTage::drop_outgoing_bit`] is a planted fault: the folds ignore the
//! history bit leaving each table's window, so the reference's indices and
//! tags drift from production's once more branches have retired than the
//! shortest table's history length.

use skia_uarch::tage::TageConfig;

/// A folded (compressed) history register, CBP-style.
#[derive(Debug, Clone, Copy)]
struct Folded {
    comp: u32,
    olen: usize,
    /// `clen % olen`.
    out_shift: u32,
}

impl Folded {
    fn new(clen: usize, olen: usize) -> Self {
        Folded {
            comp: 0,
            olen,
            out_shift: (clen % olen) as u32,
        }
    }

    fn update(&mut self, new_bit: bool, old_bit: bool) {
        self.comp = (self.comp << 1) | u32::from(new_bit);
        self.comp ^= u32::from(old_bit) << self.out_shift;
        self.comp ^= self.comp >> self.olen;
        self.comp &= (1u32 << self.olen) - 1;
    }
}

/// Circular global-history bit buffer, eight times the longest history
/// rounded up to a power of two.
#[derive(Debug, Clone)]
struct GlobalHistory {
    bits: Vec<bool>,
    pos: usize,
}

impl GlobalHistory {
    fn new(max_history: usize) -> Self {
        GlobalHistory {
            bits: vec![false; (max_history + 1).next_power_of_two() * 8],
            pos: 0,
        }
    }

    fn bit_ago(&self, ago: usize) -> bool {
        let n = self.bits.len();
        self.bits[(self.pos + n - ago) % n]
    }

    fn push(&mut self, bit: bool) {
        self.bits[self.pos] = bit;
        self.pos = (self.pos + 1) % self.bits.len();
    }
}

/// The three folds of one tagged table.
#[derive(Debug, Clone, Copy)]
struct Folds {
    hist_len: usize,
    idx: Folded,
    tag1: Folded,
    tag2: Folded,
}

impl Folds {
    fn new(hist_len: usize, index_bits: usize, tag_bits: usize) -> Self {
        Folds {
            hist_len,
            idx: Folded::new(hist_len, index_bits),
            tag1: Folded::new(hist_len, tag_bits),
            tag2: Folded::new(hist_len, tag_bits - 1),
        }
    }

    fn update(&mut self, new_bit: bool, old_bit: bool) {
        self.idx.update(new_bit, old_bit);
        self.tag1.update(new_bit, old_bit);
        self.tag2.update(new_bit, old_bit);
    }
}

/// Geometric history lengths from `min` to `max` over `n` tables.
fn history_lengths(n: usize, min: usize, max: usize) -> Vec<usize> {
    let ratio = (max as f64 / min as f64).powf(1.0 / (n.max(2) - 1) as f64);
    (0..n)
        .map(|i| ((min as f64 * ratio.powi(i as i32)).round() as usize).max(i + 1))
        .collect()
}

// -- TAGE ---------------------------------------------------------------------

/// One entry of a tagged TAGE component.
#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    ctr: i8, // 3-bit signed counter, -4..=3
    tag: u16,
    useful: u8, // 2-bit
}

/// One tagged TAGE component.
#[derive(Debug, Clone)]
struct TageTable {
    entries: Vec<TageEntry>,
    folds: Folds,
    index_bits: usize,
    tag_bits: usize,
}

impl TageTable {
    fn index(&self, pc: u64) -> usize {
        let pc = pc >> 1;
        let mix = pc ^ (pc >> self.index_bits) ^ (pc >> (2 * self.index_bits));
        ((mix as u32 ^ self.folds.idx.comp) & ((1 << self.index_bits) - 1)) as usize
    }

    fn tag(&self, pc: u64) -> u16 {
        let pc = pc >> 1;
        ((pc as u32 ^ self.folds.tag1.comp ^ (self.folds.tag2.comp << 1))
            & ((1 << self.tag_bits) - 1)) as u16
    }
}

/// Loop predictor entry (64-entry, direct mapped by PC).
#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    tag: u16,
    trip: u16,
    current: u16,
    confidence: u8,
    valid: bool,
}

/// Everything needed to train the entries that produced one prediction.
#[derive(Debug, Clone, Copy)]
pub struct RefTagePrediction {
    /// Final predicted direction.
    pub taken: bool,
    provider: Option<usize>,
    alt_taken: bool,
    indices: [u16; 16],
    tags: [u16; 16],
    base_index: u16,
    loop_index: usize,
}

/// The reference TAGE predictor.
#[derive(Debug, Clone)]
pub struct RefTage {
    config: TageConfig,
    tables: Vec<TageTable>,
    base: Vec<i8>, // 2-bit counters, -2..=1
    ghist: GlobalHistory,
    use_alt_on_na: i8,
    loops: Vec<LoopEntry>,
    rng: u64,
    tick: u64,
    /// Fault knob: history pushes ignore the outgoing bit (test-only).
    pub drop_outgoing_bit: bool,
}

impl RefTage {
    /// Build from the production geometry.
    pub fn new(config: TageConfig) -> Self {
        assert!(config.num_tables >= 2 && config.num_tables <= 16);
        let tables = history_lengths(config.num_tables, config.min_history, config.max_history)
            .into_iter()
            .map(|h| TageTable {
                entries: vec![TageEntry::default(); 1 << config.table_index_bits],
                folds: Folds::new(h, config.table_index_bits, config.tag_bits),
                index_bits: config.table_index_bits,
                tag_bits: config.tag_bits,
            })
            .collect();
        RefTage {
            base: vec![0; 1 << config.base_index_bits],
            loops: vec![LoopEntry::default(); 64],
            tables,
            ghist: GlobalHistory::new(config.max_history),
            config,
            use_alt_on_na: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            tick: 0,
            drop_outgoing_bit: false,
        }
    }

    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Predict the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> RefTagePrediction {
        let mut indices = [0u16; 16];
        let mut tags = [0u16; 16];
        for (i, t) in self.tables.iter().enumerate() {
            indices[i] = t.index(pc) as u16;
            tags[i] = t.tag(pc);
        }
        let base_index = ((pc >> 1) % self.base.len() as u64) as u16;
        let base_taken = self.base[base_index as usize] >= 0;

        let entry = |i: usize| &self.tables[i].entries[indices[i] as usize];
        let mut hits = (0..self.tables.len())
            .rev()
            .filter(|&i| entry(i).tag == tags[i]);
        let provider = hits.next();
        let alt = hits.next();

        let alt_taken = alt.map_or(base_taken, |i| entry(i).ctr >= 0);
        let taken = match provider {
            Some(i) => {
                let e = entry(i);
                let newly_alloc = e.useful == 0 && (e.ctr == 0 || e.ctr == -1);
                if newly_alloc && self.use_alt_on_na >= 0 {
                    alt_taken
                } else {
                    e.ctr >= 0
                }
            }
            None => base_taken,
        };

        // The loop predictor overrides when confident.
        let loop_index = ((pc >> 1) % 64) as usize;
        let le = &self.loops[loop_index];
        let loop_hit = le.valid && le.tag == ((pc >> 7) & 0xFFFF) as u16 && le.confidence >= 3;
        let taken = if self.config.loop_predictor && loop_hit {
            le.current != le.trip
        } else {
            taken
        };

        RefTagePrediction {
            taken,
            provider,
            alt_taken,
            indices,
            tags,
            base_index,
            loop_index: if self.config.loop_predictor {
                loop_index
            } else {
                0
            },
        }
    }

    /// Push one outcome bit into the global history.
    pub fn push_history(&mut self, taken: bool) {
        let olds: Vec<bool> = self
            .tables
            .iter()
            .map(|t| !self.drop_outgoing_bit && self.ghist.bit_ago(t.folds.hist_len))
            .collect();
        for (t, old) in self.tables.iter_mut().zip(olds) {
            t.folds.update(taken, old);
        }
        self.ghist.push(taken);
    }

    /// Train with the resolved direction of the branch `pred` predicted.
    pub fn update(&mut self, pc: u64, pred: &RefTagePrediction, taken: bool) {
        self.tick += 1;

        if self.config.loop_predictor {
            let tag = ((pc >> 7) & 0xFFFF) as u16;
            let le = &mut self.loops[pred.loop_index];
            if le.valid && le.tag == tag {
                if taken {
                    le.current = le.current.saturating_add(1);
                    if le.current > le.trip && le.confidence > 0 {
                        le.confidence -= 1;
                    }
                } else {
                    if le.current == le.trip {
                        le.confidence = (le.confidence + 1).min(7);
                    } else {
                        le.trip = le.current;
                        le.confidence = 0;
                    }
                    le.current = 0;
                }
            } else if !taken {
                *le = LoopEntry {
                    tag,
                    trip: 0,
                    current: 0,
                    confidence: 0,
                    valid: true,
                };
            }
        }

        match pred.provider {
            Some(p) => {
                let e = self.tables[p].entries[pred.indices[p] as usize];
                let provider_taken = e.ctr >= 0;
                if e.useful == 0 && (e.ctr == 0 || e.ctr == -1) && provider_taken != pred.alt_taken
                {
                    self.use_alt_on_na = if pred.alt_taken == taken {
                        (self.use_alt_on_na + 1).min(7)
                    } else {
                        (self.use_alt_on_na - 1).max(-8)
                    };
                }
                let e = &mut self.tables[p].entries[pred.indices[p] as usize];
                if provider_taken != pred.alt_taken {
                    e.useful = if provider_taken == taken {
                        (e.useful + 1).min(3)
                    } else {
                        e.useful.saturating_sub(1)
                    };
                }
                e.ctr = if taken {
                    (e.ctr + 1).min(3)
                } else {
                    (e.ctr - 1).max(-4)
                };
            }
            None => {
                let c = &mut self.base[pred.base_index as usize];
                *c = if taken {
                    (*c + 1).min(1)
                } else {
                    (*c - 1).max(-2)
                };
            }
        }

        // Allocate on a misprediction: a free (useful 0) entry in a longer
        // table, the first or — at random — the second; else age them all.
        let start = pred.provider.map_or(0, |p| p + 1);
        if pred.taken != taken && start < self.tables.len() {
            let free: Vec<usize> = (start..self.tables.len())
                .filter(|&i| self.tables[i].entries[pred.indices[i] as usize].useful == 0)
                .collect();
            if free.is_empty() {
                for i in start..self.tables.len() {
                    let e = &mut self.tables[i].entries[pred.indices[i] as usize];
                    e.useful = e.useful.saturating_sub(1);
                }
            } else {
                let pick = if free.len() > 1 && self.next_rand().is_multiple_of(2) {
                    free[1]
                } else {
                    free[0]
                };
                let e = &mut self.tables[pick].entries[pred.indices[pick] as usize];
                e.tag = pred.tags[pick];
                e.ctr = if taken { 0 } else { -1 };
                e.useful = 0;
            }
        }

        // Graceful useful-bit aging.
        if self.tick.is_multiple_of(1 << 18) {
            for e in self.tables.iter_mut().flat_map(|t| &mut t.entries) {
                e.useful >>= 1;
            }
        }
    }
}

// -- ITTAGE -------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct ItEntry {
    tag: u16,
    target: u64,
    confidence: u8, // 2-bit
    useful: u8,     // 1-bit
}

/// One tagged ITTAGE component.
#[derive(Debug, Clone)]
struct ItTable {
    entries: Vec<ItEntry>,
    folds: Folds,
    index_bits: usize,
}

impl ItTable {
    fn index(&self, pc: u64) -> usize {
        let pc = pc >> 1;
        ((pc as u32 ^ (pc >> self.index_bits) as u32 ^ self.folds.idx.comp)
            & ((1 << self.index_bits) - 1)) as usize
    }

    fn tag(&self, pc: u64) -> u16 {
        let pc = pc >> 1;
        ((pc as u32 ^ self.folds.tag1.comp ^ (self.folds.tag2.comp << 1)) & ((1 << 11) - 1)) as u16
    }
}

/// Training handle recorded at prediction time.
#[derive(Debug, Clone, Copy)]
pub struct RefIttagePrediction {
    /// Predicted target (`None` until the branch has been seen once).
    pub target: Option<u64>,
    provider: Option<usize>,
    indices: [u16; 8],
    tags: [u16; 8],
    base_index: u16,
}

/// The reference ITTAGE predictor.
#[derive(Debug, Clone)]
pub struct RefIttage {
    tables: Vec<ItTable>,
    base: Vec<ItEntry>,
    ghist: GlobalHistory,
}

impl RefIttage {
    /// `num_tables` tagged tables of `2^index_bits` entries with 11-bit
    /// tags and geometric history lengths from 2 to `max_history`.
    pub fn new(num_tables: usize, index_bits: usize, max_history: usize) -> Self {
        assert!((1..=8).contains(&num_tables));
        let tables = history_lengths(num_tables, 2, max_history)
            .into_iter()
            .map(|h| ItTable {
                entries: vec![ItEntry::default(); 1 << index_bits],
                folds: Folds::new(h, index_bits, 11),
                index_bits,
            })
            .collect();
        RefIttage {
            tables,
            base: vec![ItEntry::default(); 1 << index_bits],
            ghist: GlobalHistory::new(max_history),
        }
    }

    /// Push one path/direction bit into the history.
    pub fn push_history(&mut self, bit: bool) {
        let olds: Vec<bool> = self
            .tables
            .iter()
            .map(|t| self.ghist.bit_ago(t.folds.hist_len))
            .collect();
        for (t, old) in self.tables.iter_mut().zip(olds) {
            t.folds.update(bit, old);
        }
        self.ghist.push(bit);
    }

    /// Predict the target of the indirect branch at `pc`.
    pub fn predict(&self, pc: u64) -> RefIttagePrediction {
        let mut indices = [0u16; 8];
        let mut tags = [0u16; 8];
        for (i, t) in self.tables.iter().enumerate() {
            indices[i] = t.index(pc) as u16;
            tags[i] = t.tag(pc);
        }
        let base_index = ((pc >> 1) % self.base.len() as u64) as u16;
        let provider = (0..self.tables.len()).rev().find(|&i| {
            let e = &self.tables[i].entries[indices[i] as usize];
            e.tag == tags[i] && e.confidence > 0
        });
        let target = match provider {
            Some(i) => Some(self.tables[i].entries[indices[i] as usize].target),
            None => {
                let b = &self.base[base_index as usize];
                (b.confidence > 0).then_some(b.target)
            }
        };
        RefIttagePrediction {
            target,
            provider,
            indices,
            tags,
            base_index,
        }
    }

    /// Train with the resolved target.
    pub fn update(&mut self, pred: &RefIttagePrediction, target: u64) {
        let correct = pred.target == Some(target);
        match pred.provider {
            Some(p) => {
                let e = &mut self.tables[p].entries[pred.indices[p] as usize];
                if e.target == target {
                    e.confidence = (e.confidence + 1).min(3);
                    e.useful = 1;
                } else if e.confidence > 1 {
                    e.confidence -= 1;
                } else {
                    e.target = target;
                    e.confidence = 1;
                    e.useful = 0;
                }
            }
            None => {
                let e = &mut self.base[pred.base_index as usize];
                if e.target == target && e.confidence > 0 {
                    e.confidence = (e.confidence + 1).min(3);
                } else if e.confidence > 1 {
                    e.confidence -= 1;
                } else {
                    e.target = target;
                    e.confidence = 1;
                }
            }
        }

        // Allocate a longer-history entry on a wrong target.
        if !correct {
            let start = pred.provider.map_or(0, |p| p + 1);
            if let Some(i) = (start..self.tables.len())
                .find(|&i| self.tables[i].entries[pred.indices[i] as usize].useful == 0)
            {
                self.tables[i].entries[pred.indices[i] as usize] = ItEntry {
                    tag: pred.tags[i],
                    target,
                    confidence: 1,
                    useful: 0,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skia_uarch::ittage::Ittage;
    use skia_uarch::tage::Tage;

    /// A deterministic branch stream: (pc, taken) over a few hundred pcs.
    fn stream(n: usize) -> impl Iterator<Item = (u64, bool)> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (0x40_0000 + (x % 300) * 6, x % 7 < 4)
        })
    }

    #[test]
    fn reference_tage_equals_production() {
        for config in [TageConfig::small(), TageConfig::default()] {
            let (mut prod, mut reference) = (Tage::new(config.clone()), RefTage::new(config));
            for (pc, taken) in stream(20_000) {
                let (p, r) = (prod.predict(pc), reference.predict(pc));
                assert_eq!(p.taken, r.taken, "pc {pc:#x}");
                prod.update(pc, &p, taken);
                reference.update(pc, &r, taken);
                prod.push_history(taken);
                reference.push_history(taken);
            }
        }
    }

    #[test]
    fn reference_ittage_equals_production() {
        let (mut prod, mut reference) = (Ittage::new(6, 11, 320), RefIttage::new(6, 11, 320));
        for (pc, bit) in stream(20_000) {
            let target = pc ^ (u64::from(bit) << 12);
            let (p, r) = (prod.predict(pc), reference.predict(pc));
            assert_eq!(p.target, r.target, "pc {pc:#x}");
            prod.update(pc, &p, target);
            reference.update(&r, target);
            prod.push_history(bit);
            reference.push_history(bit);
        }
    }

    #[test]
    fn dropping_the_outgoing_bit_changes_predictions() {
        let config = TageConfig::small();
        let (mut good, mut bad) = (RefTage::new(config.clone()), RefTage::new(config));
        bad.drop_outgoing_bit = true;
        let differ = stream(5_000).any(|(pc, taken)| {
            let (g, b) = (good.predict(pc), bad.predict(pc));
            good.update(pc, &g, taken);
            bad.update(pc, &b, taken);
            good.push_history(taken);
            bad.push_history(taken);
            g.taken != b.taken
        });
        assert!(differ);
    }
}
