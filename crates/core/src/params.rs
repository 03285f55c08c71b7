//! System parameters of a two-layer LDS deployment.

use crate::membership::ServerSet;
use std::fmt;

/// Errors produced when validating [`SystemParams`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidParams {
    /// The paper's relations between layer sizes, fault tolerances and code
    /// parameters do not hold.
    Constraint(String),
    /// A layer has more servers than a [`ServerSet`] indexes.
    LayerTooLarge {
        /// The layer: 1 or 2.
        layer: u8,
        /// Its size.
        servers: usize,
    },
}

impl fmt::Display for InvalidParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid LDS system parameters: ")?;
        match self {
            InvalidParams::Constraint(reason) => write!(f, "{reason}"),
            InvalidParams::LayerTooLarge { layer, servers } => write!(
                f,
                "L{layer} has {servers} servers, more than the {} a quorum set indexes",
                ServerSet::CAPACITY
            ),
        }
    }
}

impl std::error::Error for InvalidParams {}

/// Validated parameters of the two-layer system.
///
/// The paper fixes the relations `n1 = 2·f1 + k` and `n2 = 2·f2 + d`, where
/// `k` and `d` are the reconstruction threshold and repair degree of the
/// regenerating code `C`, `f1 < n1/2` is the L1 fault tolerance and
/// `f2 < n2/3` the L2 fault tolerance (the latter requires `d > f2`).
///
/// ```rust
/// use lds_core::params::SystemParams;
/// // 5 edge servers tolerating 1 crash, 7 back-end servers tolerating 1 crash.
/// let p = SystemParams::for_failures(1, 1, 3, 5).unwrap();
/// assert_eq!((p.n1(), p.n2(), p.k(), p.d()), (5, 7, 3, 5));
/// assert_eq!(p.write_quorum(), 4);    // f1 + k
/// assert_eq!(p.l2_quorum(), 6);       // f2 + d = n2 - f2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemParams {
    n1: usize,
    n2: usize,
    f1: usize,
    f2: usize,
    k: usize,
    d: usize,
}

impl SystemParams {
    /// Builds parameters from layer sizes and fault tolerances, deriving
    /// `k = n1 − 2·f1` and `d = n2 − 2·f2`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams::LayerTooLarge`] if a layer has more than
    /// [`ServerSet::CAPACITY`] servers, and [`InvalidParams::Constraint`]
    /// unless `f1 < n1/2`, `f2 < n2/3`, `1 ≤ k ≤ d` and `f2 < d`.
    pub fn new(n1: usize, n2: usize, f1: usize, f2: usize) -> Result<Self, InvalidParams> {
        for (layer, servers) in [(1, n1), (2, n2)] {
            if servers > ServerSet::CAPACITY {
                return Err(InvalidParams::LayerTooLarge { layer, servers });
            }
        }
        if n1 == 0 || n2 == 0 {
            return Err(InvalidParams::Constraint(
                "both layers need at least one server".into(),
            ));
        }
        if f1.checked_mul(2).is_none_or(|twice| twice >= n1) {
            return Err(InvalidParams::Constraint(format!(
                "need f1 < n1/2 (got f1={f1}, n1={n1})"
            )));
        }
        if f2.checked_mul(3).is_none_or(|thrice| thrice >= n2) {
            return Err(InvalidParams::Constraint(format!(
                "need f2 < n2/3 (got f2={f2}, n2={n2})"
            )));
        }
        let k = n1 - 2 * f1;
        let d = n2 - 2 * f2;
        if k == 0 {
            return Err(InvalidParams::Constraint(
                "derived k = n1 - 2*f1 must be at least 1".into(),
            ));
        }
        if k > d {
            return Err(InvalidParams::Constraint(format!(
                "the MBR code requires k <= d, but n1 - 2*f1 = {k} > n2 - 2*f2 = {d}"
            )));
        }
        if d <= f2 {
            return Err(InvalidParams::Constraint(format!(
                "need d > f2 (got d={d}, f2={f2})"
            )));
        }
        Ok(SystemParams {
            n1,
            n2,
            f1,
            f2,
            k,
            d,
        })
    }

    /// Builds parameters from fault tolerances and code parameters, deriving
    /// `n1 = 2·f1 + k` and `n2 = 2·f2 + d`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] under the same conditions as
    /// [`SystemParams::new`], and [`InvalidParams::Constraint`] if a layer
    /// size does not fit in a `usize`.
    pub fn for_failures(f1: usize, f2: usize, k: usize, d: usize) -> Result<Self, InvalidParams> {
        let size = |f: usize, code: usize, relation: &str| {
            f.checked_mul(2)
                .and_then(|twice| twice.checked_add(code))
                .ok_or_else(|| InvalidParams::Constraint(format!("{relation} overflows a usize")))
        };
        Self::new(
            size(f1, k, "n1 = 2*f1 + k")?,
            size(f2, d, "n2 = 2*f2 + d")?,
            f1,
            f2,
        )
    }

    /// A small symmetric configuration convenient for tests: `n1 = n2 = n`,
    /// `f1 = f2 = f` (which forces `k = d = n − 2f`).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] if the constraints cannot be met.
    pub fn symmetric(n: usize, f: usize) -> Result<Self, InvalidParams> {
        Self::new(n, n, f, f)
    }

    /// Number of L1 (edge) servers.
    pub fn n1(&self) -> usize {
        self.n1
    }

    /// Number of L2 (back-end) servers.
    pub fn n2(&self) -> usize {
        self.n2
    }

    /// L1 crash-fault tolerance.
    pub fn f1(&self) -> usize {
        self.f1
    }

    /// L2 crash-fault tolerance.
    pub fn f2(&self) -> usize {
        self.f2
    }

    /// Reconstruction threshold of the code (`k = n1 − 2·f1`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Repair degree of the code (`d = n2 − 2·f2`).
    pub fn d(&self) -> usize {
        self.d
    }

    /// Total code length `n = n1 + n2` of the code `C`.
    pub fn code_length(&self) -> usize {
        self.n1 + self.n2
    }

    /// Quorum of L1 responses a writer waits for in both phases (`f1 + k`).
    pub fn write_quorum(&self) -> usize {
        self.f1 + self.k
    }

    /// Quorum of L1 responses a reader waits for in all three phases
    /// (`f1 + k`).
    pub fn read_quorum(&self) -> usize {
        self.f1 + self.k
    }

    /// Number of distinct COMMIT-TAG broadcasts a server must consume before
    /// acknowledging a write (`f1 + k`).
    pub fn commit_quorum(&self) -> usize {
        self.f1 + self.k
    }

    /// Number of L2 responses an L1 server waits for during `write-to-L2`
    /// and `regenerate-from-L2` (`f2 + d = n2 − f2`).
    pub fn l2_quorum(&self) -> usize {
        self.f2 + self.d
    }
}

impl fmt::Display for SystemParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LDS {{ n1={}, n2={}, f1={}, f2={}, k={}, d={} }}",
            self.n1, self.n2, self.f1, self.f2, self.k, self.d
        )
    }
}

/// Which message flow the server automata run — the one protocol selector.
///
/// The two profiles differ in exactly these places (everything else,
/// including every client phase and every wire byte, is shared — a read is
/// always Fig. 3's get-committed-tag, get-data and put-tag):
///
/// | | `PaperFaithful` | `HighThroughput` |
/// |---|---|---|
/// | COMMIT-TAG broadcast route | through the `f1 + 1` relay set (`BCAST-SEND` → `BCAST-DELIVER`) | straight to every L1 server (`BCAST-DELIVER` only) |
/// | a server's own copy of its broadcast | a message through the network | consumed inside the step that broadcasts |
/// | who runs `write-to-L2` | every L1 server | the first `f1 + 1` L1 servers |
/// | L2 acknowledges `WRITE-CODE-ELEM` | yes | no |
/// | L1 replaces a committed value by `⊥` | after `f2 + d` L2 acks | never by acks — when a higher tag commits |
///
/// `PaperFaithful` is Figs. 2–3 of the paper message for message, so the
/// cost model of §V holds exactly. `HighThroughput` trades that accounting,
/// and the broadcast primitive's all-or-nothing delivery when the
/// broadcaster crashes mid-send, for fewer messages per operation;
/// atomicity holds in both, and both run under the `History` checker in the
/// simulator (`tests/atomicity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The paper's automata, message for message (the default everywhere a
    /// profile is configured).
    PaperFaithful,
    /// Direct broadcast with inline self-delivery, `f1 + 1` offloaders, no
    /// L2 write acks: every L1 server keeps the committed value, so reads are
    /// served from L1 without `regenerate-from-L2`.
    HighThroughput,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivations_match_paper_relations() {
        let p = SystemParams::new(10, 12, 3, 2).unwrap();
        assert_eq!(p.k(), 10 - 6);
        assert_eq!(p.d(), 12 - 4);
        assert_eq!(p.write_quorum(), 3 + 4);
        assert_eq!(p.l2_quorum(), 12 - 2);
        assert_eq!(p.code_length(), 22);

        let q = SystemParams::for_failures(3, 2, 4, 8).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn symmetric_configuration() {
        let p = SystemParams::symmetric(10, 2).unwrap();
        assert_eq!(p.n1(), 10);
        assert_eq!(p.n2(), 10);
        assert_eq!(p.k(), 6);
        assert_eq!(p.d(), 6);
    }

    #[test]
    fn fault_bounds_enforced() {
        // f1 >= n1/2.
        assert!(SystemParams::new(4, 9, 2, 1).is_err());
        // f2 >= n2/3.
        assert!(SystemParams::new(5, 9, 1, 3).is_err());
        // k > d.
        assert!(SystemParams::new(9, 5, 1, 1).is_err());
        // Empty layers.
        assert!(SystemParams::new(0, 5, 0, 1).is_err());
        assert!(SystemParams::new(5, 0, 1, 0).is_err());
    }

    /// Fault tolerances near `usize::MAX` are errors, not wrapped layer
    /// sizes or arithmetic panics.
    #[test]
    fn huge_fault_tolerances_are_rejected() {
        let huge = 1 << (usize::BITS - 1);
        for params in [
            SystemParams::for_failures(huge, 1, 2, 3),
            SystemParams::for_failures(1, huge, 2, 3),
            SystemParams::for_failures(usize::MAX, 1, 2, 3),
            SystemParams::for_failures(1, 1, usize::MAX, 3),
            SystemParams::new(4, 5, huge, 1),
            SystemParams::new(4, 5, 1, huge),
        ] {
            assert!(
                matches!(params, Err(InvalidParams::Constraint(_))),
                "{params:?}"
            );
        }
    }

    /// A quorum set is a `u128` over a layer's code indices: 128 servers
    /// per layer are accepted, 129 are a typed error, whichever layer.
    #[test]
    fn layers_above_128_servers_are_rejected() {
        let p = SystemParams::for_failures(1, 1, 126, 126).unwrap();
        assert_eq!((p.n1(), p.n2()), (128, 128));
        assert_eq!(SystemParams::for_failures(1, 1, 2, 126).unwrap().n2(), 128);
        assert_eq!(
            SystemParams::for_failures(2, 1, 125, 126),
            Err(InvalidParams::LayerTooLarge {
                layer: 1,
                servers: 129
            })
        );
        assert_eq!(
            SystemParams::for_failures(1, 1, 2, 127),
            Err(InvalidParams::LayerTooLarge {
                layer: 2,
                servers: 129
            })
        );
        assert!(matches!(
            SystemParams::symmetric(129, 10),
            Err(InvalidParams::LayerTooLarge { layer: 1, .. })
        ));
        assert_eq!(SystemParams::symmetric(128, 10).unwrap().n1(), 128);
    }

    #[test]
    fn paper_figure_6_parameters_are_valid() {
        // Fig. 6: n1 = n2 = 100, k = d = 80 ⇒ f1 = f2 = 10.
        let p = SystemParams::symmetric(100, 10).unwrap();
        assert_eq!(p.k(), 80);
        assert_eq!(p.d(), 80);
        assert_eq!(p.write_quorum(), 90);
        assert_eq!(p.l2_quorum(), 90);
    }

    #[test]
    fn display_is_informative() {
        let p = SystemParams::symmetric(6, 1).unwrap();
        assert!(p.to_string().contains("n1=6"));
        assert!(InvalidParams::Constraint("x".into())
            .to_string()
            .contains("invalid"));
        let too_large = InvalidParams::LayerTooLarge {
            layer: 2,
            servers: 129,
        };
        assert!(too_large.to_string().contains("L2 has 129 servers"));
    }
}
