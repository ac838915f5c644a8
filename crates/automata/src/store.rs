//! The memory-cell store.
//!
//! Constraint automata stay finite-state by keeping *data* out of the control
//! state: a fifo1's control state only records whether its buffer is empty or
//! full, while the buffered value itself lives in a memory cell. An
//! automaton's [`MemLayout`] lists only the cells it owns, so stamping `n`
//! constituents costs what they hold; only a session's layout
//! ([`MemLayout::cells`]) and its [`Store`] are dense, indexed by [`MemId`].
//!
//! Every cell is a queue; a plain cell is simply a queue used at depth ≤ 1.
//! Unbounded fifos use deeper queues together with [`crate::guard::Guard`]
//! length guards, which keeps the automaton finite while the queue grows.

use std::collections::VecDeque;

use crate::port::MemId;
use crate::value::Value;

/// Memory cells (global ids) with their initial contents, in order: the
/// cells one automaton owns, or a session's table of every cell.
#[derive(Clone, Debug, Default)]
pub struct MemLayout {
    ids: Vec<MemId>,
    /// `init[i]` = initial queue contents of cell `ids[i]`.
    init: Vec<Vec<Value>>,
}

impl MemLayout {
    /// The table of cells `0..n`, all empty, each at its own index.
    pub fn cells(n: usize) -> Self {
        Self {
            ids: (0..n as u32).map(MemId).collect(),
            init: vec![Vec::new(); n],
        }
    }

    /// List cell `m` last, with initial contents `init`.
    pub(crate) fn add(&mut self, m: MemId, init: Vec<Value>) {
        self.ids.push(m);
        self.init.push(init);
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The cells, in order.
    pub(crate) fn ids(&self) -> &[MemId] {
        &self.ids
    }

    /// Each cell with its initial contents, in order.
    pub fn iter(&self) -> impl Iterator<Item = (MemId, &[Value])> {
        self.ids
            .iter()
            .copied()
            .zip(self.init.iter().map(Vec::as_slice))
    }

    /// Where cell `m` is listed: at its own index in a table built by
    /// [`MemLayout::cells`], found by a scan otherwise.
    fn position(&self, m: MemId) -> Option<usize> {
        match self.ids.get(m.index()) {
            Some(&at) if at == m => Some(m.index()),
            _ => self.ids.iter().position(|&c| c == m),
        }
    }

    /// The initial contents of cell `m`; a cell not listed starts empty.
    pub fn initial_contents(&self, m: MemId) -> &[Value] {
        self.position(m).map_or(&[], |i| &self.init[i])
    }

    /// Merge another layout of the *same global* id space: the cells this
    /// one lacks are listed after its own, and non-empty contents win.
    pub fn merge(&mut self, other: &MemLayout) {
        for (m, init) in other.iter() {
            match self.position(m) {
                Some(i) if !init.is_empty() => self.init[i] = init.to_vec(),
                Some(_) => {}
                None => self.add(m, init.to_vec()),
            }
        }
    }
}

/// The cells in iteration order, as listed (no merge).
impl<'a> FromIterator<(MemId, &'a [Value])> for MemLayout {
    fn from_iter<I: IntoIterator<Item = (MemId, &'a [Value])>>(iter: I) -> Self {
        let (ids, init) = iter.into_iter().map(|(m, v)| (m, v.to_vec())).unzip();
        Self { ids, init }
    }
}

/// The run-time store: one queue per memory cell.
#[derive(Clone, Debug)]
pub struct Store {
    cells: Vec<VecDeque<Value>>,
}

impl Store {
    /// A store of one cell per id up to the layout's highest, each listed
    /// cell holding its initial contents, the others empty.
    pub fn new(layout: &MemLayout) -> Self {
        let mut store = Self { cells: Vec::new() };
        store.grow(layout);
        store
    }

    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Front value of cell `m`, if any.
    #[inline]
    pub fn peek(&self, m: MemId) -> Option<&Value> {
        self.cells[m.index()].front()
    }

    /// Queue length of cell `m`.
    #[inline]
    pub fn len(&self, m: MemId) -> usize {
        self.cells[m.index()].len()
    }

    pub fn is_cell_empty(&self, m: MemId) -> bool {
        self.cells[m.index()].is_empty()
    }

    /// Replace the contents of cell `m` by exactly `v`.
    #[inline]
    pub fn set(&mut self, m: MemId, v: Value) {
        let cell = &mut self.cells[m.index()];
        cell.clear();
        cell.push_back(v);
    }

    /// Enqueue at the back of cell `m`.
    #[inline]
    pub fn push(&mut self, m: MemId, v: Value) {
        self.cells[m.index()].push_back(v);
    }

    /// Dequeue from the front of cell `m`.
    #[inline]
    pub fn pop(&mut self, m: MemId) -> Option<Value> {
        self.cells[m.index()].pop_front()
    }

    /// Drop all contents of cell `m`.
    pub fn clear(&mut self, m: MemId) {
        self.cells[m.index()].clear();
    }

    /// Extend the store up to the layout's highest id, each new cell
    /// initialized from the layout. Existing cells keep their current
    /// contents — this is the memory-growth half of a dynamic
    /// reconfiguration splice, where new constituents bring fresh cells
    /// while the surviving constituents' state must not move.
    pub fn grow(&mut self, layout: &MemLayout) {
        let old = self.cells.len();
        let end = layout.iter().map(|(m, _)| m.index() + 1).max().unwrap_or(0);
        self.cells.resize_with(old.max(end), VecDeque::new);
        for (m, init) in layout.iter().filter(|(m, _)| m.index() >= old) {
            self.cells[m.index()] = init.iter().cloned().collect();
        }
    }

    /// Whether cell `m`'s current contents equal the layout's initial
    /// contents — the memory half of a constituent quiescence check before
    /// it may be removed by a reconfiguration.
    pub fn matches_initial(&self, m: MemId, layout: &MemLayout) -> bool {
        let cell = &self.cells[m.index()];
        let init = layout.initial_contents(m);
        cell.len() == init.len() && cell.iter().zip(init.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_initializes_store() {
        let mut layout = MemLayout::cells(1);
        let m = MemId(1);
        layout.add(m, vec![Value::Int(1), Value::Int(2)]);
        let store = Store::new(&layout);
        assert_eq!(store.cell_count(), 2);
        assert!(store.is_cell_empty(MemId(0)));
        assert_eq!(store.len(m), 2);
        assert_eq!(store.peek(m).unwrap().as_int(), Some(1));
    }

    #[test]
    fn queue_semantics_fifo_order() {
        let mut store = Store::new(&MemLayout::cells(1));
        let m = MemId(0);
        store.push(m, Value::Int(1));
        store.push(m, Value::Int(2));
        assert_eq!(store.pop(m).unwrap().as_int(), Some(1));
        assert_eq!(store.pop(m).unwrap().as_int(), Some(2));
        assert!(store.pop(m).is_none());
    }

    #[test]
    fn set_replaces_contents() {
        let mut store = Store::new(&MemLayout::cells(1));
        let m = MemId(0);
        store.push(m, Value::Int(1));
        store.push(m, Value::Int(2));
        store.set(m, Value::Int(9));
        assert_eq!(store.len(m), 1);
        assert_eq!(store.peek(m).unwrap().as_int(), Some(9));
    }

    #[test]
    fn a_layout_lists_its_own_cells_and_merges_into_a_table() {
        let mut a = MemLayout::default();
        a.add(MemId(7), Vec::new());
        a.add(MemId(3), vec![Value::Unit]);
        assert_eq!(a.ids(), &[MemId(7), MemId(3)]);
        assert!(a.initial_contents(MemId(5)).is_empty());
        let store = Store::new(&a);
        assert_eq!(store.cell_count(), 8);
        assert_eq!(store.len(MemId(3)), 1);

        let mut table = MemLayout::cells(8);
        table.merge(&a);
        assert_eq!(table.len(), 8);
        assert_eq!(table.initial_contents(MemId(3)).len(), 1);
        let mut b = MemLayout::default();
        b.add(MemId(3), Vec::new());
        b.add(MemId(9), vec![Value::Int(4)]);
        table.merge(&b);
        assert_eq!(table.len(), 9);
        assert_eq!(
            table.initial_contents(MemId(3)).len(),
            1,
            "empty contents do not win"
        );
        assert_eq!(table.initial_contents(MemId(9)).len(), 1);

        let mut grown = Store::new(&MemLayout::cells(4));
        grown.push(MemId(3), Value::Int(1));
        grown.grow(&table);
        assert_eq!(grown.cell_count(), 10);
        assert_eq!(
            grown.len(MemId(3)),
            1,
            "an existing cell keeps its contents"
        );
        assert_eq!(grown.len(MemId(9)), 1);
    }
}
