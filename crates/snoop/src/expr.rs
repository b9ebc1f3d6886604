//! The composite event expression AST.
//!
//! Expressions are built from primitive event names and the Snoop
//! operators; [`crate::PlanDetector::define`] compiles an expression
//! into plan nodes. The builder methods make nesting readable:
//!
//! ```
//! use decs_snoop::EventExpr;
//! // ¬(Cancel)[Order ; Payment, Ship + 10]
//! let e = EventExpr::not(
//!     EventExpr::prim("Cancel"),
//!     EventExpr::seq(EventExpr::prim("Order"), EventExpr::prim("Payment")),
//!     EventExpr::plus(EventExpr::prim("Ship"), 10),
//! );
//! assert_eq!(e.primitive_names(), vec!["Cancel", "Order", "Payment", "Ship"]);
//! ```

use crate::error::{Result, SnoopError};
use crate::nodes::mask::Mask;
use std::fmt;

/// A composite event expression over named primitive events.
///
/// Equality is structural (`Eq` — operand order matters everywhere, since
/// parameter tuples are accumulated in constituent order). The [`Hash`]
/// implementation is *canonical*: commutative operands of `And`/`Or` are
/// hashed in a normalized order, so `And(a, b)` and `And(b, a)` land in the
/// same hash bucket (they are equivalent as *detectors* even though their
/// parameter order differs), while the order-sensitive `Seq` does not. See
/// [`EventExpr::canonicalize`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventExpr {
    /// A primitive (or separately defined composite) event, by name.
    Primitive(String),
    /// Conjunction `E1 ∧ E2`: both occur, in any order.
    And(Box<EventExpr>, Box<EventExpr>),
    /// Disjunction `E1 ∨ E2`: either occurs.
    Or(Box<EventExpr>, Box<EventExpr>),
    /// Sequence `E1 ; E2`: `E1` strictly before `E2`.
    Seq(Box<EventExpr>, Box<EventExpr>),
    /// Negation `¬(guard)[opener, closer]`: `opener` then `closer` with no
    /// `guard` occurrence strictly inside the open interval.
    Not {
        /// The event that must *not* occur inside the interval.
        guard: Box<EventExpr>,
        /// The interval-opening event (`E1`).
        opener: Box<EventExpr>,
        /// The interval-closing event (`E3`).
        closer: Box<EventExpr>,
    },
    /// Aperiodic `A(E1, E2, E3)`: signalled for *each* `E2` inside the
    /// half-open window started by `E1` and ended by `E3`.
    Aperiodic {
        /// Window opener.
        opener: Box<EventExpr>,
        /// The monitored event.
        mid: Box<EventExpr>,
        /// Window closer.
        closer: Box<EventExpr>,
    },
    /// Cumulative aperiodic `A*(E1, E2, E3)`: signalled once at `E3` with
    /// all `E2` occurrences of the window accumulated.
    AperiodicStar {
        /// Window opener.
        opener: Box<EventExpr>,
        /// The accumulated event.
        mid: Box<EventExpr>,
        /// Window closer / detection point.
        closer: Box<EventExpr>,
    },
    /// Periodic `P(E1, [t], E3)`: after `E1`, signalled every `period`
    /// ticks until `E3`.
    Periodic {
        /// Window opener.
        opener: Box<EventExpr>,
        /// Period in clock ticks (centralized) / global ticks (distributed).
        period: u64,
        /// Window closer.
        closer: Box<EventExpr>,
    },
    /// Cumulative periodic `P*(E1, [t], E3)`: the periodic stamps are
    /// accumulated and signalled once at `E3`.
    PeriodicStar {
        /// Window opener.
        opener: Box<EventExpr>,
        /// Period in ticks.
        period: u64,
        /// Window closer / detection point.
        closer: Box<EventExpr>,
    },
    /// `E + t`: signalled `delta` ticks after each occurrence of `E`.
    Plus {
        /// The anchoring event.
        base: Box<EventExpr>,
        /// Offset in ticks.
        delta: u64,
    },
    /// `ANY(m; E1, …, En)`: `m` occurrences of *distinct* alternatives.
    Any {
        /// How many distinct alternatives must occur.
        m: usize,
        /// The alternatives.
        alternatives: Vec<EventExpr>,
    },
    /// `E{mask}`: only occurrences of `E` whose parameters satisfy the
    /// mask participate.
    Masked {
        /// The filtered expression.
        base: Box<EventExpr>,
        /// The parameter predicate.
        mask: Mask,
    },
}

impl std::hash::Hash for EventExpr {
    /// Canonical structural hash: every variant hashes a discriminant tag
    /// plus its fields, except that the commutative `And`/`Or` hash their
    /// two operands in [`Ord`]-normalized order. Consistent with the
    /// (structural) `Eq`: equal expressions hash equal; additionally
    /// commutative reorderings hash equal, which the plan compiler uses to
    /// bucket equivalent subexpressions cheaply.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use EventExpr::*;
        match self {
            Primitive(name) => {
                state.write_u8(0);
                name.hash(state);
            }
            And(a, b) | Or(a, b) => {
                state.write_u8(if matches!(self, And(..)) { 1 } else { 2 });
                let (x, y) = if a <= b { (a, b) } else { (b, a) };
                x.hash(state);
                y.hash(state);
            }
            Seq(a, b) => {
                state.write_u8(3);
                a.hash(state);
                b.hash(state);
            }
            Not {
                guard,
                opener,
                closer,
            } => {
                state.write_u8(4);
                guard.hash(state);
                opener.hash(state);
                closer.hash(state);
            }
            Aperiodic {
                opener,
                mid,
                closer,
            } => {
                state.write_u8(5);
                opener.hash(state);
                mid.hash(state);
                closer.hash(state);
            }
            AperiodicStar {
                opener,
                mid,
                closer,
            } => {
                state.write_u8(6);
                opener.hash(state);
                mid.hash(state);
                closer.hash(state);
            }
            Periodic {
                opener,
                period,
                closer,
            } => {
                state.write_u8(7);
                opener.hash(state);
                period.hash(state);
                closer.hash(state);
            }
            PeriodicStar {
                opener,
                period,
                closer,
            } => {
                state.write_u8(8);
                opener.hash(state);
                period.hash(state);
                closer.hash(state);
            }
            Plus { base, delta } => {
                state.write_u8(9);
                base.hash(state);
                delta.hash(state);
            }
            Any { m, alternatives } => {
                state.write_u8(10);
                m.hash(state);
                alternatives.hash(state);
            }
            Masked { base, mask } => {
                state.write_u8(11);
                base.hash(state);
                mask.hash(state);
            }
        }
    }
}

impl EventExpr {
    /// The canonical form of this expression: commutative `And`/`Or`
    /// operand pairs are recursively sorted into [`Ord`] order. Two
    /// expressions with the same canonical form detect the same occurrences
    /// (they are the same boolean/temporal pattern); they are **not**
    /// interchangeable bit-for-bit, because the order of operands fixes the
    /// order in which parameter tuples are concatenated. The plan compiler
    /// therefore uses the canonical form (via [`Hash`]) only to bucket
    /// candidate subexpressions and shares an operator node only on exact
    /// structural equality.
    pub fn canonicalize(&self) -> EventExpr {
        use EventExpr::*;
        match self {
            Primitive(_) => self.clone(),
            And(a, b) | Or(a, b) => {
                let (ca, cb) = (a.canonicalize(), b.canonicalize());
                let (x, y) = if ca <= cb { (ca, cb) } else { (cb, ca) };
                if matches!(self, And(..)) {
                    And(Box::new(x), Box::new(y))
                } else {
                    Or(Box::new(x), Box::new(y))
                }
            }
            Seq(a, b) => Seq(Box::new(a.canonicalize()), Box::new(b.canonicalize())),
            Not {
                guard,
                opener,
                closer,
            } => Not {
                guard: Box::new(guard.canonicalize()),
                opener: Box::new(opener.canonicalize()),
                closer: Box::new(closer.canonicalize()),
            },
            Aperiodic {
                opener,
                mid,
                closer,
            } => Aperiodic {
                opener: Box::new(opener.canonicalize()),
                mid: Box::new(mid.canonicalize()),
                closer: Box::new(closer.canonicalize()),
            },
            AperiodicStar {
                opener,
                mid,
                closer,
            } => AperiodicStar {
                opener: Box::new(opener.canonicalize()),
                mid: Box::new(mid.canonicalize()),
                closer: Box::new(closer.canonicalize()),
            },
            Periodic {
                opener,
                period,
                closer,
            } => Periodic {
                opener: Box::new(opener.canonicalize()),
                period: *period,
                closer: Box::new(closer.canonicalize()),
            },
            PeriodicStar {
                opener,
                period,
                closer,
            } => PeriodicStar {
                opener: Box::new(opener.canonicalize()),
                period: *period,
                closer: Box::new(closer.canonicalize()),
            },
            Plus { base, delta } => Plus {
                base: Box::new(base.canonicalize()),
                delta: *delta,
            },
            Any { m, alternatives } => Any {
                m: *m,
                alternatives: alternatives.iter().map(|a| a.canonicalize()).collect(),
            },
            Masked { base, mask } => Masked {
                base: Box::new(base.canonicalize()),
                mask: mask.clone(),
            },
        }
    }

    /// A primitive event reference.
    pub fn prim(name: &str) -> Self {
        EventExpr::Primitive(name.to_owned())
    }

    /// `self ∧ other`.
    pub fn and(a: EventExpr, b: EventExpr) -> Self {
        EventExpr::And(Box::new(a), Box::new(b))
    }

    /// `self ∨ other`.
    pub fn or(a: EventExpr, b: EventExpr) -> Self {
        EventExpr::Or(Box::new(a), Box::new(b))
    }

    /// `a ; b`.
    pub fn seq(a: EventExpr, b: EventExpr) -> Self {
        EventExpr::Seq(Box::new(a), Box::new(b))
    }

    /// `¬(guard)[opener, closer]`.
    pub fn not(guard: EventExpr, opener: EventExpr, closer: EventExpr) -> Self {
        EventExpr::Not {
            guard: Box::new(guard),
            opener: Box::new(opener),
            closer: Box::new(closer),
        }
    }

    /// `A(opener, mid, closer)`.
    pub fn aperiodic(opener: EventExpr, mid: EventExpr, closer: EventExpr) -> Self {
        EventExpr::Aperiodic {
            opener: Box::new(opener),
            mid: Box::new(mid),
            closer: Box::new(closer),
        }
    }

    /// `A*(opener, mid, closer)`.
    pub fn aperiodic_star(opener: EventExpr, mid: EventExpr, closer: EventExpr) -> Self {
        EventExpr::AperiodicStar {
            opener: Box::new(opener),
            mid: Box::new(mid),
            closer: Box::new(closer),
        }
    }

    /// `P(opener, [period], closer)`.
    pub fn periodic(opener: EventExpr, period: u64, closer: EventExpr) -> Self {
        EventExpr::Periodic {
            opener: Box::new(opener),
            period,
            closer: Box::new(closer),
        }
    }

    /// `P*(opener, [period], closer)`.
    pub fn periodic_star(opener: EventExpr, period: u64, closer: EventExpr) -> Self {
        EventExpr::PeriodicStar {
            opener: Box::new(opener),
            period,
            closer: Box::new(closer),
        }
    }

    /// `base + delta`.
    pub fn plus(base: EventExpr, delta: u64) -> Self {
        EventExpr::Plus {
            base: Box::new(base),
            delta,
        }
    }

    /// `ANY(m; alternatives…)`.
    pub fn any(m: usize, alternatives: Vec<EventExpr>) -> Self {
        EventExpr::Any { m, alternatives }
    }

    /// `base{mask}` — parameter-filtered event.
    pub fn masked(base: EventExpr, mask: Mask) -> Self {
        EventExpr::Masked {
            base: Box::new(base),
            mask,
        }
    }

    /// Validate structural constraints: `ANY` bounds and positive periods.
    pub fn validate(&self) -> Result<()> {
        match self {
            EventExpr::Primitive(_) => Ok(()),
            EventExpr::And(a, b) | EventExpr::Or(a, b) | EventExpr::Seq(a, b) => {
                a.validate()?;
                b.validate()
            }
            EventExpr::Not {
                guard,
                opener,
                closer,
            } => {
                guard.validate()?;
                opener.validate()?;
                closer.validate()
            }
            EventExpr::Aperiodic {
                opener,
                mid,
                closer,
            }
            | EventExpr::AperiodicStar {
                opener,
                mid,
                closer,
            } => {
                opener.validate()?;
                mid.validate()?;
                closer.validate()
            }
            EventExpr::Periodic {
                opener,
                period,
                closer,
            }
            | EventExpr::PeriodicStar {
                opener,
                period,
                closer,
            } => {
                if *period == 0 {
                    return Err(SnoopError::ZeroPeriod);
                }
                opener.validate()?;
                closer.validate()
            }
            EventExpr::Plus { base, delta } => {
                if *delta == 0 {
                    return Err(SnoopError::ZeroPeriod);
                }
                base.validate()
            }
            EventExpr::Any { m, alternatives } => {
                if *m == 0 || *m > alternatives.len() {
                    return Err(SnoopError::InvalidAny {
                        m: *m,
                        n: alternatives.len(),
                    });
                }
                alternatives.iter().try_for_each(EventExpr::validate)
            }
            EventExpr::Masked { base, .. } => base.validate(),
        }
    }

    /// All primitive names referenced, sorted and deduplicated.
    pub fn primitive_names(&self) -> Vec<&str> {
        let mut names = Vec::new();
        self.collect_names(&mut names);
        names.sort_unstable();
        names.dedup();
        names
    }

    fn collect_names<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            EventExpr::Primitive(n) => out.push(n),
            EventExpr::And(a, b) | EventExpr::Or(a, b) | EventExpr::Seq(a, b) => {
                a.collect_names(out);
                b.collect_names(out);
            }
            EventExpr::Not {
                guard,
                opener,
                closer,
            } => {
                guard.collect_names(out);
                opener.collect_names(out);
                closer.collect_names(out);
            }
            EventExpr::Aperiodic {
                opener,
                mid,
                closer,
            }
            | EventExpr::AperiodicStar {
                opener,
                mid,
                closer,
            } => {
                opener.collect_names(out);
                mid.collect_names(out);
                closer.collect_names(out);
            }
            EventExpr::Periodic { opener, closer, .. }
            | EventExpr::PeriodicStar { opener, closer, .. } => {
                opener.collect_names(out);
                closer.collect_names(out);
            }
            EventExpr::Plus { base, .. } => base.collect_names(out),
            EventExpr::Any { alternatives, .. } => {
                for a in alternatives {
                    a.collect_names(out);
                }
            }
            EventExpr::Masked { base, .. } => base.collect_names(out),
        }
    }

    /// Number of operator nodes (tree size; primitives count as zero).
    pub fn operator_count(&self) -> usize {
        match self {
            EventExpr::Primitive(_) => 0,
            EventExpr::And(a, b) | EventExpr::Or(a, b) | EventExpr::Seq(a, b) => {
                1 + a.operator_count() + b.operator_count()
            }
            EventExpr::Not {
                guard,
                opener,
                closer,
            } => 1 + guard.operator_count() + opener.operator_count() + closer.operator_count(),
            EventExpr::Aperiodic {
                opener,
                mid,
                closer,
            }
            | EventExpr::AperiodicStar {
                opener,
                mid,
                closer,
            } => 1 + opener.operator_count() + mid.operator_count() + closer.operator_count(),
            EventExpr::Periodic { opener, closer, .. }
            | EventExpr::PeriodicStar { opener, closer, .. } => {
                1 + opener.operator_count() + closer.operator_count()
            }
            EventExpr::Plus { base, .. } => 1 + base.operator_count(),
            EventExpr::Any { alternatives, .. } => {
                1 + alternatives
                    .iter()
                    .map(EventExpr::operator_count)
                    .sum::<usize>()
            }
            EventExpr::Masked { base, .. } => 1 + base.operator_count(),
        }
    }
}

impl fmt::Display for EventExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventExpr::Primitive(n) => f.write_str(n),
            EventExpr::And(a, b) => write!(f, "({a} ∧ {b})"),
            EventExpr::Or(a, b) => write!(f, "({a} ∨ {b})"),
            EventExpr::Seq(a, b) => write!(f, "({a} ; {b})"),
            EventExpr::Not {
                guard,
                opener,
                closer,
            } => write!(f, "¬({guard})[{opener}, {closer}]"),
            EventExpr::Aperiodic {
                opener,
                mid,
                closer,
            } => {
                write!(f, "A({opener}, {mid}, {closer})")
            }
            EventExpr::AperiodicStar {
                opener,
                mid,
                closer,
            } => {
                write!(f, "A*({opener}, {mid}, {closer})")
            }
            EventExpr::Periodic {
                opener,
                period,
                closer,
            } => write!(f, "P({opener}, [{period}], {closer})"),
            EventExpr::PeriodicStar {
                opener,
                period,
                closer,
            } => write!(f, "P*({opener}, [{period}], {closer})"),
            EventExpr::Plus { base, delta } => write!(f, "({base} + {delta})"),
            EventExpr::Any { m, alternatives } => {
                write!(f, "ANY({m}; ")?;
                for (i, a) in alternatives.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            EventExpr::Masked { base, mask } => write!(f, "{base}{{{mask}}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_display() {
        let e = EventExpr::seq(
            EventExpr::and(EventExpr::prim("A"), EventExpr::prim("B")),
            EventExpr::prim("C"),
        );
        assert_eq!(e.to_string(), "((A ∧ B) ; C)");
        let n = EventExpr::not(
            EventExpr::prim("X"),
            EventExpr::prim("A"),
            EventExpr::prim("B"),
        );
        assert_eq!(n.to_string(), "¬(X)[A, B]");
        assert_eq!(
            EventExpr::periodic(EventExpr::prim("A"), 5, EventExpr::prim("B")).to_string(),
            "P(A, [5], B)"
        );
        assert_eq!(
            EventExpr::any(2, vec![EventExpr::prim("A"), EventExpr::prim("B")]).to_string(),
            "ANY(2; A, B)"
        );
        assert_eq!(
            EventExpr::plus(EventExpr::prim("A"), 3).to_string(),
            "(A + 3)"
        );
    }

    #[test]
    fn validate_catches_bad_any() {
        let bad = EventExpr::any(3, vec![EventExpr::prim("A"), EventExpr::prim("B")]);
        assert_eq!(
            bad.validate().unwrap_err(),
            SnoopError::InvalidAny { m: 3, n: 2 }
        );
        let bad0 = EventExpr::any(0, vec![EventExpr::prim("A")]);
        assert!(bad0.validate().is_err());
        let ok = EventExpr::any(1, vec![EventExpr::prim("A")]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validate_catches_zero_periods() {
        assert_eq!(
            EventExpr::periodic(EventExpr::prim("A"), 0, EventExpr::prim("B"))
                .validate()
                .unwrap_err(),
            SnoopError::ZeroPeriod
        );
        assert!(EventExpr::plus(EventExpr::prim("A"), 0).validate().is_err());
        assert!(EventExpr::plus(EventExpr::prim("A"), 1).validate().is_ok());
    }

    #[test]
    fn validate_recurses() {
        let nested = EventExpr::and(
            EventExpr::prim("A"),
            EventExpr::any(5, vec![EventExpr::prim("B")]),
        );
        assert!(nested.validate().is_err());
    }

    #[test]
    fn primitive_names_dedup_sorted() {
        let e = EventExpr::seq(
            EventExpr::and(EventExpr::prim("B"), EventExpr::prim("A")),
            EventExpr::prim("B"),
        );
        assert_eq!(e.primitive_names(), vec!["A", "B"]);
    }

    #[test]
    fn operator_count() {
        let e = EventExpr::seq(
            EventExpr::and(EventExpr::prim("A"), EventExpr::prim("B")),
            EventExpr::aperiodic_star(
                EventExpr::prim("C"),
                EventExpr::prim("D"),
                EventExpr::prim("E"),
            ),
        );
        assert_eq!(e.operator_count(), 3);
    }

    fn hash_of(e: &EventExpr) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        e.hash(&mut h);
        h.finish()
    }

    #[test]
    fn commutative_reordering_hashes_equal() {
        let ab = EventExpr::and(EventExpr::prim("A"), EventExpr::prim("B"));
        let ba = EventExpr::and(EventExpr::prim("B"), EventExpr::prim("A"));
        assert_ne!(ab, ba, "And is structurally ordered");
        assert_eq!(hash_of(&ab), hash_of(&ba));
        let or1 = EventExpr::or(
            EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B")),
            EventExpr::prim("C"),
        );
        let or2 = EventExpr::or(
            EventExpr::prim("C"),
            EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B")),
        );
        assert_eq!(hash_of(&or1), hash_of(&or2));
        // Nested commutative swaps normalize too.
        let deep1 = EventExpr::seq(ab.clone(), or1);
        let deep2 = EventExpr::seq(ba.clone(), or2);
        assert_eq!(hash_of(&deep1), hash_of(&deep2));
    }

    #[test]
    fn seq_reordering_hashes_differently() {
        let ab = EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B"));
        let ba = EventExpr::seq(EventExpr::prim("B"), EventExpr::prim("A"));
        assert_ne!(ab, ba);
        assert_ne!(hash_of(&ab), hash_of(&ba));
    }

    #[test]
    fn and_does_not_hash_like_or() {
        let and = EventExpr::and(EventExpr::prim("A"), EventExpr::prim("B"));
        let or = EventExpr::or(EventExpr::prim("A"), EventExpr::prim("B"));
        assert_ne!(hash_of(&and), hash_of(&or));
    }

    #[test]
    fn equal_exprs_hash_equal() {
        let e = EventExpr::not(
            EventExpr::prim("C"),
            EventExpr::and(EventExpr::prim("B"), EventExpr::prim("A")),
            EventExpr::plus(EventExpr::prim("D"), 5),
        );
        assert_eq!(e, e.clone());
        assert_eq!(hash_of(&e), hash_of(&e.clone()));
    }

    #[test]
    fn canonicalize_sorts_commutative_operands_only() {
        let e = EventExpr::seq(
            EventExpr::and(EventExpr::prim("B"), EventExpr::prim("A")),
            EventExpr::or(EventExpr::prim("Z"), EventExpr::prim("Y")),
        );
        let canon = e.canonicalize();
        assert_eq!(
            canon,
            EventExpr::seq(
                EventExpr::and(EventExpr::prim("A"), EventExpr::prim("B")),
                EventExpr::or(EventExpr::prim("Y"), EventExpr::prim("Z")),
            )
        );
        // Canonicalization is idempotent and hash-preserving.
        assert_eq!(canon, canon.canonicalize());
        assert_eq!(hash_of(&e), hash_of(&canon));
        // Seq operands keep their order.
        let s = EventExpr::seq(EventExpr::prim("B"), EventExpr::prim("A"));
        assert_eq!(s.canonicalize(), s);
    }
}
