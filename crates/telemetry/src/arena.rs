//! Append-only chunked storage for the fixed-size hop records and the
//! metric series.
//!
//! A plain `Vec` doubles: at a million records it briefly holds the old
//! and the new buffer and copies every record it has. Chunks are never
//! moved or freed, so appending costs one allocation per `N` (by default
//! [`CHUNK`]) records and the live heap is the records plus at most one
//! chunk of slack. The first chunk is allocated by the first `push`, never by
//! construction — an enabled recorder that has seen no event owns no heap.

use std::ops::{Index, IndexMut};

/// Records per chunk (128 KiB of 32-byte trace records).
pub(crate) const CHUNK: usize = 4096;

#[derive(Debug)]
pub(crate) struct Chunked<T, const N: usize = CHUNK> {
    /// Every chunk but the last is full.
    chunks: Vec<Vec<T>>,
}

impl<T, const N: usize> Default for Chunked<T, N> {
    fn default() -> Self {
        Chunked { chunks: Vec::new() }
    }
}

impl<T, const N: usize> Chunked<T, N> {
    pub(crate) fn len(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * N + last.len(),
            None => 0,
        }
    }

    /// Appends `v` at index `len()`.
    pub(crate) fn push(&mut self, v: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < N => last.push(v),
            _ => {
                let mut chunk = Vec::with_capacity(N);
                chunk.push(v);
                self.chunks.push(chunk);
            }
        }
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / N)?.get(i % N)
    }

    /// In insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }
}

impl<T, const N: usize> Index<usize> for Chunked<T, N> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / N][i % N]
    }
}

impl<T, const N: usize> IndexMut<usize> for Chunked<T, N> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / N][i % N]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_across_chunk_boundaries() {
        let mut a: Chunked<u64> = Chunked::default();
        assert_eq!(a.len(), 0);
        assert!(a.get(0).is_none());
        for i in 0..(2 * CHUNK + 3) {
            assert_eq!(a.len(), i);
            a.push(i as u64 * 7);
        }
        assert_eq!(a.len(), 2 * CHUNK + 3);
        assert_eq!(a[CHUNK - 1], (CHUNK as u64 - 1) * 7);
        assert_eq!(a[CHUNK], CHUNK as u64 * 7);
        a[CHUNK] = 1;
        assert_eq!(a.get(CHUNK), Some(&1));
        assert!(a.get(2 * CHUNK + 3).is_none());
        assert_eq!(a.iter().count(), 2 * CHUNK + 3);
    }
}
