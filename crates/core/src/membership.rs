//! Static membership of a two-layer LDS deployment, and the quorum sets
//! over it.

use crate::process::ProcessId;

/// A set of servers of one layer, as a bitset over their code indices.
///
/// Every quorum the protocol waits for is a number of *distinct* servers of
/// one layer: `f1 + k` L1 servers in each client phase and COMMIT-TAG
/// broadcasts consumed, `f2 + d` L2 helpers in `regenerate-from-L2`. A
/// quorum round is one of these on the stack, its size a popcount. A layer
/// has at most [`ServerSet::CAPACITY`] servers, which
/// [`SystemParams`](crate::SystemParams) validates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSet(u128);

impl ServerSet {
    /// The largest layer a set can index (Fig. 6 runs `n1 = n2 = 100`).
    pub const CAPACITY: usize = u128::BITS as usize;

    /// Adds the server with code index `index`; returns whether it was
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`ServerSet::CAPACITY`].
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < Self::CAPACITY,
            "server index {index} exceeds the {} a ServerSet holds",
            Self::CAPACITY
        );
        let bit = 1u128 << index;
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Number of servers in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// The process ids of all servers, in layer order.
///
/// The LDS model is static: the sets of L1 and L2 servers are fixed for the
/// whole execution and known to every client and server.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Membership {
    /// L1 (edge) servers `s_1 … s_{n1}`, in code-index order.
    pub l1: Vec<ProcessId>,
    /// L2 (back-end) servers `s_{n1+1} … s_{n1+n2}`, in code-index order.
    pub l2: Vec<ProcessId>,
}

impl Membership {
    /// Creates a membership from the two server lists.
    pub fn new(l1: Vec<ProcessId>, l2: Vec<ProcessId>) -> Self {
        Membership { l1, l2 }
    }

    /// Number of L1 servers.
    pub fn n1(&self) -> usize {
        self.l1.len()
    }

    /// Number of L2 servers.
    pub fn n2(&self) -> usize {
        self.l2.len()
    }

    /// The code index (0-based position) of an L1 server process; `None`
    /// for any other process.
    pub fn l1_index_of(&self, pid: ProcessId) -> Option<usize> {
        self.l1.iter().position(|&p| p == pid)
    }

    /// The code index (0-based position) of an L2 server process; `None`
    /// for any other process.
    pub fn l2_index_of(&self, pid: ProcessId) -> Option<usize> {
        self.l2.iter().position(|&p| p == pid)
    }

    /// The fixed relay set `S_{f1+1}` used by the metadata broadcast
    /// primitive: the first `f1 + 1` L1 servers.
    pub fn broadcast_relays(&self, f1: usize) -> &[ProcessId] {
        &self.l1[..(f1 + 1).min(self.l1.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pids(range: std::ops::Range<usize>) -> Vec<ProcessId> {
        range.map(ProcessId).collect()
    }

    #[test]
    fn index_lookup() {
        let m = Membership::new(pids(0..5), pids(5..12));
        assert_eq!(m.n1(), 5);
        assert_eq!(m.n2(), 7);
        assert_eq!(m.l1_index_of(ProcessId(3)), Some(3));
        assert_eq!(m.l1_index_of(ProcessId(9)), None);
        assert_eq!(m.l2_index_of(ProcessId(5)), Some(0));
        assert_eq!(m.l2_index_of(ProcessId(11)), Some(6));
        assert_eq!(m.l2_index_of(ProcessId(3)), None);
        // Processes outside both layers: clients, the harness.
        for outsider in [12, 40, usize::MAX] {
            assert_eq!(m.l1_index_of(ProcessId(outsider)), None);
            assert_eq!(m.l2_index_of(ProcessId(outsider)), None);
        }
    }

    #[test]
    fn index_lookup_follows_list_order_not_pid_order() {
        let m = Membership::new(vec![ProcessId(20), ProcessId(7)], vec![ProcessId(13)]);
        assert_eq!(m.l1_index_of(ProcessId(20)), Some(0));
        assert_eq!(m.l1_index_of(ProcessId(7)), Some(1));
        assert_eq!(m.l2_index_of(ProcessId(13)), Some(0));
        assert_eq!(m.l1_index_of(ProcessId(6)), None);
        assert_eq!(m.l1, [ProcessId(20), ProcessId(7)]);
    }

    #[test]
    fn relay_set_is_first_f1_plus_one() {
        let m = Membership::new(pids(0..5), pids(5..8));
        assert_eq!(m.broadcast_relays(1), &[ProcessId(0), ProcessId(1)]);
        assert_eq!(
            m.broadcast_relays(10).len(),
            5,
            "relay set never exceeds n1"
        );
        // f1 = 3 of n1 = 10: the relay set is f1 + 1 = 4 servers.
        let p = crate::params::SystemParams::new(10, 12, 3, 2).unwrap();
        let m = Membership::new(pids(0..10), pids(10..22));
        assert_eq!(m.broadcast_relays(p.f1()).len(), 4);
    }

    #[test]
    fn server_set_counts_distinct_members() {
        let mut set = ServerSet::default();
        assert!(set.is_empty());
        assert!(set.insert(3));
        assert!(!set.insert(3), "a duplicate is not fresh");
        assert_eq!(set.len(), 1);
        for index in [0, 1, 64, 126] {
            assert!(set.insert(index));
        }
        assert_eq!(set.len(), 5);
        assert!(!set.insert(64) && set.insert(65));
    }

    #[test]
    fn server_set_holds_bits_0_and_127() {
        let mut set = ServerSet::default();
        assert!(set.insert(0));
        assert!(set.insert(ServerSet::CAPACITY - 1));
        assert_eq!(set.len(), 2);
        assert!(!set.insert(0) && !set.insert(127));
        assert_eq!(set.len(), 2);
        let full = (0..ServerSet::CAPACITY).fold(ServerSet::default(), |mut s, i| {
            s.insert(i);
            s
        });
        assert_eq!(full.len(), 128);
    }

    #[test]
    #[should_panic(expected = "exceeds the 128")]
    fn server_set_rejects_index_128() {
        ServerSet::default().insert(128);
    }
}
