//! ITTAGE indirect-branch target predictor (Seznec, CBP-2 "A 64-Kbytes
//! ITTAGE indirect branch predictor").
//!
//! Tagged geometric-history tables store full targets with a 2-bit
//! confidence counter; a PC-indexed base table catches the monomorphic
//! majority. Like [`crate::tage::Tage`], it is trained at commit, folds its
//! history with one lane per table (to the index width, 11 and 10 bits) and
//! keeps its tagged tables in one flat vector.

use crate::history::FoldedHistory;

/// Most tagged tables an ITTAGE may have.
const MAX_TABLES: usize = 8;

/// Tag width of every tagged table.
const TAG_BITS: usize = 11;

#[derive(Debug, Clone, Copy, Default)]
struct ItEntry {
    tag: u16,
    target: u64,
    confidence: u8, // 2-bit
    useful: u8,     // 1-bit
}

/// Training handle recorded at prediction time.
#[derive(Debug, Clone, Copy)]
pub struct IttagePrediction {
    /// Predicted target (`None` until the branch has been seen once).
    pub target: Option<u64>,
    /// The providing tagged table, if any.
    provider: Option<u8>,
    indices: [u16; MAX_TABLES],
    tags: [u16; MAX_TABLES],
    base_index: u16,
}

/// The ITTAGE predictor.
#[derive(Debug, Clone)]
pub struct Ittage {
    num_tables: usize,
    index_bits: usize,
    /// Tagged table `i`'s entry `j` is `tagged[(i << index_bits) | j]`.
    tagged: Vec<ItEntry>,
    base: Vec<ItEntry>,
    history: FoldedHistory<MAX_TABLES>,
}

impl Ittage {
    /// Build an ITTAGE with `num_tables` tagged tables of `2^index_bits`
    /// entries and geometric history lengths up to `max_history`.
    ///
    /// # Panics
    ///
    /// Panics if `num_tables` is 0 or greater than 8.
    #[must_use]
    pub fn new(num_tables: usize, index_bits: usize, max_history: usize) -> Self {
        assert!((1..=MAX_TABLES).contains(&num_tables));
        // Prediction metadata stores indices as u16.
        assert!(index_bits <= 16);
        let min_history = 2usize;
        let ratio =
            (max_history as f64 / min_history as f64).powf(1.0 / (num_tables.max(2) - 1) as f64);
        let lens: Vec<usize> = (0..num_tables)
            .map(|i| {
                let h = (min_history as f64 * ratio.powi(i as i32)).round() as usize;
                h.max(i + 1)
            })
            .collect();
        Ittage {
            num_tables,
            index_bits,
            tagged: vec![ItEntry::default(); num_tables << index_bits],
            base: vec![ItEntry::default(); 1 << index_bits],
            history: FoldedHistory::new(&lens, index_bits, TAG_BITS),
        }
    }

    /// Tagged table `table`'s entry `index`.
    fn entry(&self, table: usize, index: u16) -> &ItEntry {
        &self.tagged[(table << self.index_bits) | usize::from(index)]
    }

    fn entry_mut(&mut self, table: usize, index: u16) -> &mut ItEntry {
        &mut self.tagged[(table << self.index_bits) | usize::from(index)]
    }

    /// Push one path/direction bit into the history.
    pub fn push_history(&mut self, bit: bool) {
        self.history.push(bit);
    }

    /// Predict the target of the indirect branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> IttagePrediction {
        let h = &self.history;
        // The pc terms of every table's index and tag.
        let p = pc >> 1;
        let mix = p as u32 ^ (p >> self.index_bits) as u32;
        let index_mask = (1u32 << self.index_bits) - 1;
        let tag_mask = (1u32 << TAG_BITS) - 1;
        let mut indices = [0u16; MAX_TABLES];
        let mut tags = [0u16; MAX_TABLES];
        for i in 0..self.num_tables {
            indices[i] = ((mix ^ h.idx[i]) & index_mask) as u16;
            tags[i] = ((p as u32 ^ h.tag1[i] ^ (h.tag2[i] << 1)) & tag_mask) as u16;
        }
        let base_index = ((pc >> 1) as usize & (self.base.len() - 1)) as u16;

        let provider = (0..self.num_tables).rev().find(|&i| {
            let e = self.entry(i, indices[i]);
            e.tag == tags[i] && e.confidence > 0
        });
        let target = match provider {
            Some(i) => Some(self.entry(i, indices[i]).target),
            None => {
                let b = &self.base[base_index as usize];
                if b.confidence > 0 {
                    Some(b.target)
                } else {
                    None
                }
            }
        };
        IttagePrediction {
            target,
            provider: provider.map(|i| i as u8),
            indices,
            tags,
            base_index,
        }
    }

    /// Train with the resolved target.
    pub fn update(&mut self, pc: u64, pred: &IttagePrediction, target: u64) {
        let _ = pc;
        let correct = pred.target == Some(target);

        // Train provider (or base).
        match pred.provider.map(usize::from) {
            Some(p) => {
                let e = self.entry_mut(p, pred.indices[p]);
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
            let start = pred.provider.map_or(0, |p| usize::from(p) + 1);
            for i in start..self.num_tables {
                let e = self.entry_mut(i, pred.indices[i]);
                if e.useful == 0 {
                    *e = ItEntry {
                        tag: pred.tags[i],
                        target,
                        confidence: 1,
                        useful: 0,
                    };
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomorphic_target_learned_quickly() {
        let mut it = Ittage::new(4, 8, 64);
        let pc = 0x7000;
        let mut wrong = 0;
        for i in 0..200 {
            let p = it.predict(pc);
            if i > 4 && p.target != Some(0xDEAD) {
                wrong += 1;
            }
            it.update(pc, &p, 0xDEAD);
            it.push_history(i % 2 == 0);
        }
        assert!(wrong < 10, "monomorphic: {wrong} wrong after warmup");
    }

    #[test]
    fn history_correlated_targets() {
        let mut it = Ittage::new(4, 8, 64);
        let pc = 0x9000;
        // Target alternates with the history bit pushed in between.
        let mut wrong = 0;
        let mut total = 0;
        for rep in 0..600 {
            let phase = rep % 2 == 0;
            let target = if phase { 0xAAAA } else { 0xBBBB };
            let p = it.predict(pc);
            if rep > 300 {
                total += 1;
                if p.target != Some(target) {
                    wrong += 1;
                }
            }
            it.update(pc, &p, target);
            it.push_history(phase);
        }
        assert!(
            wrong * 3 < total,
            "history-correlated targets should mostly hit: {wrong}/{total}"
        );
    }

    #[test]
    fn cold_branch_predicts_none() {
        let it = Ittage::new(2, 6, 16);
        assert_eq!(it.predict(0x1234).target, None);
    }

    #[test]
    fn lanes_past_the_table_count_stay_zero() {
        let mut it = Ittage::new(4, 8, 64);
        for i in 0..100 {
            it.push_history(i % 5 == 0);
        }
        let p = it.predict(0x4242);
        assert!(p.indices[4..].iter().chain(&p.tags[4..]).all(|&x| x == 0));
        assert!(p.indices[..4].iter().any(|&x| x != 0));
    }
}
