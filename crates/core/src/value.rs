//! Object values.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An object value: an immutable byte string with cheap clones.
///
/// Values are cloned along many protocol paths (temporary storage on every L1
/// server, responses to registered readers, …), so the bytes are held behind
/// an [`Arc`]: a clone shares them, and a `PUT-DATA` to each of `n1` servers
/// carries the writer's one buffer.
///
/// Equality and hashing compare contents, not the identity of the buffer.
#[derive(Clone, Default)]
pub struct Value {
    bytes: Arc<Vec<u8>>,
}

impl Value {
    /// The distinguished initial value `v0` (empty).
    pub fn initial() -> Self {
        Value::default()
    }

    /// Creates a value from bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        Value {
            bytes: Arc::new(bytes),
        }
    }

    /// The value's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The value's bytes as an owned buffer: the backing `Vec` itself when
    /// this is the only handle on it (a freshly decoded read is exactly
    /// that, so returning it to the caller moves nothing), a copy otherwise
    /// (a value shared with a server list, a cache or another client).
    pub fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.bytes).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Length in bytes — the unit the paper's costs are normalised by.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
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
        Value { bytes }
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
        assert!(Value::initial().into_vec().is_empty());
    }

    #[test]
    fn hashing_follows_content_not_buffer_identity() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::new(vec![7, 7]));
        assert!(set.contains(&Value::from(&[7u8, 7][..])));
        assert!(!set.contains(&Value::new(vec![7])));
    }
}
