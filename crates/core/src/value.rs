//! Object values.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// An object value: an immutable byte string with cheap clones **and cheap
/// sub-slices**.
///
/// Values are cloned along many protocol paths (temporary storage on every L1
/// server, responses to registered readers, …), so the bytes are held behind
/// an [`Arc`]. The value is a `[start, end)` view into that shared buffer,
/// which is what lets the chunk-striped write path carve a large value into
/// stripes without copying a single byte ([`Value::slice`]) and lets stripe
/// reassembly rejoin contiguous views for free ([`Value::concat`]).
///
/// Equality and hashing compare contents (the visible bytes), not the
/// identity or bounds of the backing buffer.
#[derive(Clone, Default)]
pub struct Value {
    bytes: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Value {
    /// The distinguished initial value `v0` (empty).
    pub fn initial() -> Self {
        Value::default()
    }

    /// Creates a value from bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        let end = bytes.len();
        Value {
            bytes: Arc::new(bytes),
            start: 0,
            end,
        }
    }

    /// The value's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[self.start..self.end]
    }

    /// The value's bytes as an owned buffer: the backing `Vec` itself when
    /// this is the only handle on a view of the whole buffer (a freshly
    /// decoded read is exactly that, so returning it to the caller moves
    /// nothing), a copy of the visible bytes otherwise (a value shared with
    /// a server list, a cache or another client, or a sub-slice).
    pub fn into_vec(self) -> Vec<u8> {
        if self.start == 0 && self.end == self.bytes.len() {
            Arc::try_unwrap(self.bytes).unwrap_or_else(|shared| shared.as_ref().clone())
        } else {
            self.as_bytes().to_vec()
        }
    }

    /// Length in bytes — the unit the paper's costs are normalised by.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view of this value (`range` is relative to the
    /// current view). The returned value shares the backing buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value's bounds.
    pub fn slice(&self, range: Range<usize>) -> Value {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for value of {} bytes",
            self.len()
        );
        Value {
            bytes: Arc::clone(&self.bytes),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Concatenates values. When every part is a contiguous view of the
    /// *same* backing buffer — the shape produced by slicing one value into
    /// stripes — the result is a single zero-copy view; otherwise the bytes
    /// are copied into a fresh buffer.
    pub fn concat(parts: &[Value]) -> Value {
        match parts {
            [] => Value::initial(),
            [first, rest @ ..] => {
                let contiguous = rest
                    .iter()
                    .try_fold(first, |prev, next| {
                        (Arc::ptr_eq(&prev.bytes, &next.bytes) && prev.end == next.start)
                            .then_some(next)
                    })
                    .is_some();
                if contiguous {
                    let last = parts.last().expect("parts is non-empty");
                    return Value {
                        bytes: Arc::clone(&first.bytes),
                        start: first.start,
                        end: last.end,
                    };
                }
                let total: usize = parts.iter().map(Value::len).sum();
                let mut joined = Vec::with_capacity(total);
                for part in parts {
                    joined.extend_from_slice(part.as_bytes());
                }
                Value::new(joined)
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for Value {
    fn from(bytes: Vec<u8>) -> Self {
        Value::new(bytes)
    }
}

impl From<Arc<Vec<u8>>> for Value {
    fn from(bytes: Arc<Vec<u8>>) -> Self {
        let end = bytes.len();
        Value {
            bytes,
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Value {
    fn from(bytes: &[u8]) -> Self {
        Value::new(bytes.to_vec())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::new(s.as_bytes().to_vec())
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = Value::new(vec![1, 2, 3]);
        assert_eq!(v.as_bytes(), &[1, 2, 3]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert!(Value::initial().is_empty());
    }

    #[test]
    fn clones_share_storage_and_compare_by_content() {
        let a = Value::from("hello");
        let b = a.clone();
        let c = Value::from("hello");
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, Value::from("world"));
    }

    #[test]
    fn conversions() {
        let from_slice: Value = b"xy".as_slice().into();
        let from_vec: Value = vec![b'x', b'y'].into();
        assert_eq!(from_slice, from_vec);
        assert_eq!(from_slice.as_ref(), b"xy");
        assert!(format!("{from_slice:?}").contains("2 bytes"));
    }

    #[test]
    fn into_vec_moves_a_unique_full_view_and_copies_anything_else() {
        // Sole handle on the whole buffer: the same heap allocation comes
        // back, nothing is copied.
        let bytes: Vec<u8> = (0u8..200).collect();
        let ptr = bytes.as_ptr();
        let expected = bytes.clone();
        let moved = Value::new(bytes).into_vec();
        assert_eq!(moved, expected);
        assert_eq!(moved.as_ptr(), ptr, "unique full view is moved");

        // A second handle forces a copy and is left intact.
        let a = Value::new((0u8..50).collect());
        let b = a.clone();
        let copied = a.into_vec();
        assert_eq!(copied, b.as_bytes());
        assert_ne!(copied.as_ptr(), b.as_bytes().as_ptr());
        assert_eq!(b.len(), 50);
        // ... and once it is the last handle it moves after all.
        let ptr = b.as_bytes().as_ptr();
        let moved = b.into_vec();
        assert_eq!(moved.as_ptr(), ptr);

        // A sub-slice returns exactly its visible bytes, even as the only
        // handle, and leaves a surviving parent untouched.
        let parent = Value::new((0u8..100).collect());
        let mid = parent.slice(10..20);
        assert_eq!(mid.into_vec(), (10u8..20).collect::<Vec<_>>());
        assert_eq!(parent.len(), 100);
        let tail = parent.slice(90..100);
        drop(parent);
        assert_eq!(tail.into_vec(), (90u8..100).collect::<Vec<_>>());
        assert!(Value::initial().into_vec().is_empty());
    }

    #[test]
    fn slices_are_zero_copy_views() {
        let v = Value::new((0u8..100).collect());
        let mid = v.slice(10..20);
        assert_eq!(mid.as_bytes(), &(10u8..20).collect::<Vec<_>>()[..]);
        // Slicing a slice composes.
        let inner = mid.slice(2..5);
        assert_eq!(inner.as_bytes(), &[12, 13, 14]);
        assert!(v.slice(40..40).is_empty());
        // A sub-view equals a freshly built value with the same content.
        assert_eq!(inner, Value::new(vec![12, 13, 14]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        let _ = Value::new(vec![1, 2, 3]).slice(1..5);
    }

    #[test]
    fn concat_of_contiguous_slices_is_zero_copy() {
        let v = Value::new((0u8..50).collect());
        let parts: Vec<Value> = vec![v.slice(0..20), v.slice(20..40), v.slice(40..50)];
        let joined = Value::concat(&parts);
        assert_eq!(joined, v);
        // Zero-copy: the rejoin points into the original buffer.
        assert_eq!(joined.as_bytes().as_ptr(), v.as_bytes().as_ptr());
    }

    #[test]
    fn concat_of_unrelated_values_copies() {
        let a = Value::from("ab");
        let b = Value::from("cd");
        assert_eq!(Value::concat(&[a, b]), Value::from("abcd"));
        assert_eq!(Value::concat(&[]), Value::initial());
        // Same buffer but non-contiguous parts also copy (and reorder works).
        let v = Value::new((0u8..10).collect());
        let swapped = Value::concat(&[v.slice(5..10), v.slice(0..5)]);
        assert_eq!(swapped.as_bytes(), &[5, 6, 7, 8, 9, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn hashing_follows_content_not_view_bounds() {
        use std::collections::HashSet;
        let v = Value::new(vec![7, 7, 7, 7]);
        let mut set = HashSet::new();
        set.insert(v.slice(0..2));
        assert!(set.contains(&Value::new(vec![7, 7])));
    }
}
