//! Temporal formula syntax.

use std::collections::BTreeMap;
use std::fmt;
use troll_data::{Quantifier, Term, Value};

/// A pattern matching event occurrences in a trace.
///
/// `hire(P)` in a permission matches an occurrence of `hire` whose single
/// argument equals the current value of `P`; an argument slot of `None`
/// is a wildcard matching anything, so `hire(_)` matches any hire.
/// Argument terms are evaluated **rigidly**: in the environment current
/// at evaluation time, not at the historical position — `P` denotes the
/// same person at every position, which is exactly the paper's reading of
/// `sometime(after(hire(P)))`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventPattern {
    /// Event name to match.
    pub name: String,
    /// Argument patterns; `None` is a wildcard.
    pub args: Vec<Option<Term>>,
}

impl EventPattern {
    /// Creates a pattern.
    pub fn new(name: impl Into<String>, args: Vec<Option<Term>>) -> Self {
        EventPattern {
            name: name.into(),
            args,
        }
    }

    /// Pattern matching any occurrence of the named event, regardless of
    /// arity or arguments.
    pub fn any(name: impl Into<String>) -> Self {
        EventPattern {
            name: name.into(),
            args: Vec::new(),
        }
    }

    /// Whether this pattern ignores arguments entirely.
    pub fn is_wildcard(&self) -> bool {
        self.args.iter().all(Option::is_none)
    }
}

impl fmt::Display for EventPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match a {
                Some(t) => write!(f, "{t}")?,
                None => write!(f, "_")?,
            }
        }
        write!(f, ")")
    }
}

/// A temporal formula over object histories.
///
/// The logic is the past fragment used by TROLL permissions plus the
/// future operators used by liveness obligations (checked on completed
/// traces). State predicates are data [`Term`]s evaluated with the
/// position's attribute state layered over the ambient environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// A state predicate (a boolean data term).
    Pred(Term),
    /// An event matching the pattern occurs at the current step.
    Occurs(EventPattern),
    /// The current state is the one immediately after an occurrence of
    /// the pattern — TROLL's `after(e)`. Since our steps record
    /// post-states, `after(e)` holds at a position iff `e` occurred at
    /// that position.
    After(EventPattern),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Past ◇: the body held at some position ≤ now (TROLL `sometime`).
    Sometime(Box<Formula>),
    /// Past □: the body held at every position ≤ now (TROLL `always`).
    AlwaysPast(Box<Formula>),
    /// The body held at the previous position (false at position 0).
    Previous(Box<Formula>),
    /// `φ since ψ`: ψ held at some past position and φ has held ever
    /// since (strictly after it).
    Since(Box<Formula>, Box<Formula>),
    /// Future ◇ over the remainder of a completed trace (liveness).
    Eventually(Box<Formula>),
    /// Future □ over the remainder of a completed trace.
    Henceforth(Box<Formula>),
    /// Rigid bounded quantification: the domain term is evaluated at the
    /// evaluation position, each element is bound rigidly, and the body
    /// is a temporal formula (as in the `closure` permission of `DEPT`).
    Quant {
        /// Which quantifier.
        q: Quantifier,
        /// Bound variable.
        var: String,
        /// Finite domain (set- or list-valued data term).
        domain: Term,
        /// Quantified temporal body.
        body: Box<Formula>,
    },
}

impl Formula {
    /// The formula `true`.
    pub fn truth() -> Formula {
        Formula::Pred(Term::truth())
    }

    /// State-predicate formula.
    pub fn pred(t: Term) -> Formula {
        Formula::Pred(t)
    }

    /// `occurs(p)`.
    pub fn occurs(p: EventPattern) -> Formula {
        Formula::Occurs(p)
    }

    /// `after(p)`.
    pub fn after(p: EventPattern) -> Formula {
        Formula::After(p)
    }

    /// `not φ`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// `φ and ψ`.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// `φ or ψ`.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// `φ ⇒ ψ`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// `sometime φ`.
    pub fn sometime(f: Formula) -> Formula {
        Formula::Sometime(Box::new(f))
    }

    /// `always φ` (past).
    pub fn always_past(f: Formula) -> Formula {
        Formula::AlwaysPast(Box::new(f))
    }

    /// `previous φ`.
    pub fn previous(f: Formula) -> Formula {
        Formula::Previous(Box::new(f))
    }

    /// `φ since ψ`.
    pub fn since(f: Formula, g: Formula) -> Formula {
        Formula::Since(Box::new(f), Box::new(g))
    }

    /// `eventually φ` (future; liveness obligation).
    pub fn eventually(f: Formula) -> Formula {
        Formula::Eventually(Box::new(f))
    }

    /// `henceforth φ` (future).
    pub fn henceforth(f: Formula) -> Formula {
        Formula::Henceforth(Box::new(f))
    }

    /// `for all(var in domain : body)`.
    pub fn forall(var: impl Into<String>, domain: Term, body: Formula) -> Formula {
        Formula::Quant {
            q: Quantifier::Forall,
            var: var.into(),
            domain,
            body: Box::new(body),
        }
    }

    /// `exists(var in domain : body)`.
    pub fn exists(var: impl Into<String>, domain: Term, body: Formula) -> Formula {
        Formula::Quant {
            q: Quantifier::Exists,
            var: var.into(),
            domain,
            body: Box::new(body),
        }
    }

    /// Whether the formula is free of future operators (checkable on
    /// growing traces, i.e. usable as a permission precondition).
    pub fn is_past_only(&self) -> bool {
        match self {
            Formula::Pred(_) | Formula::Occurs(_) | Formula::After(_) => true,
            Formula::Not(f)
            | Formula::Sometime(f)
            | Formula::AlwaysPast(f)
            | Formula::Previous(f) => f.is_past_only(),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Since(a, b) => a.is_past_only() && b.is_past_only(),
            Formula::Eventually(_) | Formula::Henceforth(_) => false,
            Formula::Quant { body, .. } => body.is_past_only(),
        }
    }

    /// Whether the formula is quantifier-free (supported by the
    /// incremental [`crate::Monitor`] when also past-only; the
    /// [`crate::ParametricMonitor`] also takes one top-level quantifier).
    pub fn is_quantifier_free(&self) -> bool {
        match self {
            Formula::Pred(_) | Formula::Occurs(_) | Formula::After(_) => true,
            Formula::Not(f)
            | Formula::Sometime(f)
            | Formula::AlwaysPast(f)
            | Formula::Previous(f)
            | Formula::Eventually(f)
            | Formula::Henceforth(f) => f.is_quantifier_free(),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Since(a, b) => a.is_quantifier_free() && b.is_quantifier_free(),
            Formula::Quant { .. } => false,
        }
    }

    /// Substitutes constants for the given variables throughout the
    /// formula: in state predicates, event-pattern arguments and
    /// quantifier domains. Quantifier binders shadow as usual.
    ///
    /// Grounding a permission formula with its parameter bindings turns
    /// rigidly evaluated pattern arguments (like `P` in
    /// `sometime(after(hire(P)))`) into closed terms, so the result can
    /// be evaluated without the check-time environment.
    pub fn ground(&self, bindings: &BTreeMap<String, Value>) -> Formula {
        if bindings.is_empty() {
            return self.clone();
        }
        let pat = |p: &EventPattern| EventPattern {
            name: p.name.clone(),
            args: p
                .args
                .iter()
                .map(|a| a.as_ref().map(|t| t.subst_map(bindings)))
                .collect(),
        };
        match self {
            Formula::Pred(t) => Formula::Pred(t.subst_map(bindings)),
            Formula::Occurs(p) => Formula::Occurs(pat(p)),
            Formula::After(p) => Formula::After(pat(p)),
            Formula::Not(f) => Formula::not(f.ground(bindings)),
            Formula::And(a, b) => Formula::and(a.ground(bindings), b.ground(bindings)),
            Formula::Or(a, b) => Formula::or(a.ground(bindings), b.ground(bindings)),
            Formula::Implies(a, b) => Formula::implies(a.ground(bindings), b.ground(bindings)),
            Formula::Sometime(f) => Formula::sometime(f.ground(bindings)),
            Formula::AlwaysPast(f) => Formula::always_past(f.ground(bindings)),
            Formula::Previous(f) => Formula::previous(f.ground(bindings)),
            Formula::Since(a, b) => Formula::since(a.ground(bindings), b.ground(bindings)),
            Formula::Eventually(f) => Formula::eventually(f.ground(bindings)),
            Formula::Henceforth(f) => Formula::henceforth(f.ground(bindings)),
            Formula::Quant {
                q,
                var,
                domain,
                body,
            } => {
                let domain = domain.subst_map(bindings);
                let body = if bindings.contains_key(var) {
                    let mut inner = bindings.clone();
                    inner.remove(var);
                    body.ground(&inner)
                } else {
                    body.ground(bindings)
                };
                Formula::Quant {
                    q: *q,
                    var: var.clone(),
                    domain,
                    body: Box::new(body),
                }
            }
        }
    }

    /// Number of syntactic nodes (used by the benchmarks to report
    /// formula sizes).
    pub fn size(&self) -> usize {
        match self {
            Formula::Pred(_) | Formula::Occurs(_) | Formula::After(_) => 1,
            Formula::Not(f)
            | Formula::Sometime(f)
            | Formula::AlwaysPast(f)
            | Formula::Previous(f)
            | Formula::Eventually(f)
            | Formula::Henceforth(f) => 1 + f.size(),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Since(a, b) => 1 + a.size() + b.size(),
            Formula::Quant { body, .. } => 1 + body.size(),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Pred(t) => write!(f, "{t}"),
            Formula::Occurs(p) => write!(f, "occurs({p})"),
            Formula::After(p) => write!(f, "after({p})"),
            Formula::Not(x) => write!(f, "not({x})"),
            Formula::And(a, b) => write!(f, "({a} and {b})"),
            Formula::Or(a, b) => write!(f, "({a} or {b})"),
            Formula::Implies(a, b) => write!(f, "({a} => {b})"),
            Formula::Sometime(x) => write!(f, "sometime({x})"),
            Formula::AlwaysPast(x) => write!(f, "always({x})"),
            Formula::Previous(x) => write!(f, "previous({x})"),
            Formula::Since(a, b) => write!(f, "({a} since {b})"),
            Formula::Eventually(x) => write!(f, "eventually({x})"),
            Formula::Henceforth(x) => write!(f, "henceforth({x})"),
            Formula::Quant {
                q,
                var,
                domain,
                body,
            } => {
                let kw = match q {
                    Quantifier::Forall => "for all",
                    Quantifier::Exists => "exists",
                };
                write!(f, "{kw}({var} in {domain} : {body})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hire_p() -> EventPattern {
        EventPattern::new("hire", vec![Some(Term::var("P"))])
    }

    #[test]
    fn classification() {
        let perm = Formula::sometime(Formula::after(hire_p()));
        assert!(perm.is_past_only());
        assert!(perm.is_quantifier_free());

        let live = Formula::eventually(Formula::occurs(EventPattern::any("closure")));
        assert!(!live.is_past_only());
        assert!(live.is_quantifier_free());

        let closure = Formula::forall(
            "P",
            Term::var("all_persons"),
            Formula::implies(
                Formula::sometime(Formula::pred(Term::var("dummy"))),
                Formula::sometime(Formula::after(EventPattern::new(
                    "fire",
                    vec![Some(Term::var("P"))],
                ))),
            ),
        );
        assert!(closure.is_past_only());
        assert!(!closure.is_quantifier_free());
    }

    #[test]
    fn display_matches_troll_flavor() {
        let f = Formula::sometime(Formula::after(hire_p()));
        assert_eq!(f.to_string(), "sometime(after(hire(P)))");
        let p = EventPattern::new("new_manager", vec![None]);
        assert_eq!(p.to_string(), "new_manager(_)");
        assert!(p.is_wildcard());
    }

    #[test]
    fn ground_substitutes_predicates_patterns_and_domains() {
        let mut b = BTreeMap::new();
        b.insert("P".to_string(), Value::from("ada"));

        let perm = Formula::sometime(Formula::after(hire_p()));
        assert_eq!(
            perm.ground(&b).to_string(),
            "sometime(after(hire(\"ada\")))"
        );

        // Quantifier binders shadow the substitution in the body but not
        // in the domain.
        let q = Formula::forall("P", Term::var("P"), Formula::pred(Term::var("P")));
        assert_eq!(q.ground(&b).to_string(), "for all(P in \"ada\" : P)");

        // Empty bindings are the identity.
        assert_eq!(perm.ground(&BTreeMap::new()), perm);
    }

    #[test]
    fn size_counts_nodes() {
        let f = Formula::and(
            Formula::truth(),
            Formula::not(Formula::occurs(EventPattern::any("e"))),
        );
        assert_eq!(f.size(), 4);
    }
}
