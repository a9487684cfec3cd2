//! Least-recently-used order over string keys with O(log N) updates.
//!
//! The cell store keeps cell sizes in one (its LRU eviction order) and
//! the service keeps memoized lower bounds in another (its oldest-first
//! cap). Two ordered maps mirror each other: `order` from use sequence
//! number to key, `entries` from key to its sequence number and value.
//! Every operation is a constant number of map operations, so a use
//! never costs O(N).

use std::collections::BTreeMap;

/// Keys with one value each, ordered least- to most-recently used.
#[derive(Debug)]
pub(crate) struct Recency<V> {
    next_seq: u64,
    order: BTreeMap<u64, String>,
    entries: BTreeMap<String, (u64, V)>,
}

impl<V> Default for Recency<V> {
    fn default() -> Self {
        Recency {
            next_seq: 0,
            order: BTreeMap::new(),
            entries: BTreeMap::new(),
        }
    }
}

impl<V> Recency<V> {
    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn bump(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Mark `key` most recently used and return its value; `None`, the
    /// order unchanged, when absent.
    pub(crate) fn touch(&mut self, key: &str) -> Option<&V> {
        let seq = self.bump();
        let entry = self.entries.get_mut(key)?;
        let owned = self
            .order
            .remove(&entry.0)
            .unwrap_or_else(|| key.to_string());
        self.order.insert(seq, owned);
        entry.0 = seq;
        Some(&entry.1)
    }

    /// Insert or replace `key` as the most recently used; returns the
    /// value it replaced.
    pub(crate) fn insert(&mut self, key: &str, value: V) -> Option<V> {
        let seq = self.bump();
        match self.entries.get_mut(key) {
            Some(entry) => {
                let owned = self
                    .order
                    .remove(&entry.0)
                    .unwrap_or_else(|| key.to_string());
                self.order.insert(seq, owned);
                entry.0 = seq;
                Some(std::mem::replace(&mut entry.1, value))
            }
            None => {
                self.order.insert(seq, key.to_string());
                self.entries.insert(key.to_string(), (seq, value));
                None
            }
        }
    }

    /// Remove `key`, returning its value.
    pub(crate) fn remove(&mut self, key: &str) -> Option<V> {
        let (seq, value) = self.entries.remove(key)?;
        self.order.remove(&seq);
        Some(value)
    }

    /// Remove and return the least recently used entry.
    pub(crate) fn pop_lru(&mut self) -> Option<(String, V)> {
        let (_, key) = self.order.pop_first()?;
        let (_, value) = self.entries.remove(&key)?;
        Some((key, value))
    }

    /// The least recently used key used after the one at sequence
    /// number `after` (from the start when `None`), with its own
    /// sequence number — a cursor for walking victims in LRU order
    /// while removing some of them.
    pub(crate) fn next_after(&self, after: Option<u64>) -> Option<(u64, &str)> {
        let start = after.map_or(0, |seq| seq + 1);
        let (seq, key) = self.order.range(start..).next()?;
        Some((*seq, key.as_str()))
    }

    /// Keys, least to most recently used.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &str> {
        self.order.values().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys<V>(r: &Recency<V>) -> Vec<&str> {
        r.keys().collect()
    }

    #[test]
    fn touch_insert_remove_keep_lru_order() {
        let mut r = Recency::default();
        for (i, k) in ["a", "b", "c"].into_iter().enumerate() {
            assert_eq!(r.insert(k, i), None);
        }
        assert_eq!(keys(&r), ["a", "b", "c"]);
        assert_eq!(r.touch("a"), Some(&0));
        assert_eq!(r.touch("zz"), None);
        assert_eq!(keys(&r), ["b", "c", "a"]);
        assert_eq!(r.insert("b", 7), Some(1), "replace returns the old value");
        assert_eq!(keys(&r), ["c", "a", "b"]);
        assert_eq!(r.remove("a"), Some(0));
        assert_eq!(r.remove("a"), None);
        assert_eq!(keys(&r), ["c", "b"]);
        assert_eq!(r.pop_lru(), Some(("c".to_string(), 2)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop_lru(), Some(("b".to_string(), 7)));
        assert_eq!(r.pop_lru(), None);
    }

    #[test]
    fn cursor_walks_in_lru_order_across_removals() {
        let mut r = Recency::default();
        for k in ["a", "b", "c", "d"] {
            r.insert(k, ());
        }
        r.touch("b");
        let mut seen = Vec::new();
        let mut cursor = None;
        while let Some((seq, key)) = r.next_after(cursor) {
            cursor = Some(seq);
            let key = key.to_string();
            if key != "c" {
                r.remove(&key);
            }
            seen.push(key);
        }
        assert_eq!(seen, ["a", "c", "d", "b"]);
        assert_eq!(keys(&r), ["c"]);
    }
}
