//! Return Address Stack.
//!
//! A fixed-depth circular stack: a push past capacity overwrites the oldest
//! entry. The BPU trains it at commit (a call pushes its return address, a
//! return pops) and peeks at it to predict a return, so it only ever holds
//! the true path's return addresses and needs no wrong-path repair.

/// Fixed-depth circular return address stack.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    /// Index of the current top entry.
    top: usize,
    /// Number of valid entries (saturates at capacity).
    depth: usize,
}

impl ReturnAddressStack {
    /// Create a stack with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS needs at least one entry");
        ReturnAddressStack {
            entries: vec![0; capacity],
            top: 0,
            depth: 0,
        }
    }

    /// Push a return address (on a call).
    pub fn push(&mut self, return_address: u64) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = return_address;
        self.depth = (self.depth + 1).min(self.entries.len());
    }

    /// Pop the predicted return address (on a return). Returns `None` on
    /// underflow (the stack has wrapped past all valid entries).
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let v = self.entries[self.top];
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.depth -= 1;
        Some(v)
    }

    /// Peek at the top without popping.
    #[must_use]
    pub fn peek(&self) -> Option<u64> {
        (self.depth > 0).then(|| self.entries[self.top])
    }

    /// Current number of valid entries.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), Some(1));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn wraps_and_loses_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // overwrites 1
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        // Depth saturated at 2 so entry "1" is gone.
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut ras = ReturnAddressStack::new(4);
        assert_eq!(ras.peek(), None);
        ras.push(7);
        assert_eq!(ras.peek(), Some(7));
        assert_eq!(ras.pop(), Some(7));
    }
}
