//! Parametric monitors: one incremental monitor per formula, its state
//! indexed by the binding of one slicing variable.
//!
//! A permission like DEPT's `{ sometime(after(hire(P))) } fire(P)` is
//! one formula checked under many bindings of `P`. A grounded
//! [`crate::Monitor`] per binding pays for every binding on every step;
//! the scan pays O(|trace|) per check. Parametric trace slicing (Chen &
//! Roşu, TACAS 2009) keeps one monitor whose state is a map from binding
//! to subformula values instead:
//!
//! * a **default slice** stands for every binding never seen at a
//!   slicing position. It is fed every committed step with the
//!   parametric patterns false;
//! * a committed step updates only the bindings whose value appears at a
//!   slicing position of a matching event (`hire(ada)` touches `ada`).
//!   A binding seen for the first time starts as a copy of the default
//!   slice, which is exactly its state so far;
//! * a binding left untouched for a while catches up lazily when it is
//!   next read. On an untouched step its parametric leaves are false and
//!   every other historical leaf is a constant, so its transition does
//!   not depend on the step. Iterating such a transition reaches a fixed
//!   point within the formula's temporal depth, so catching up costs
//!   O(depth·|φ|), however many steps were skipped.
//!
//! # The fragment
//!
//! Past-only formulas, optionally under one top-level `for all` /
//! `exists (X in dom : body)`. The slicing variable is the quantified
//! `X`, or else the one variable that appears as a bare argument of an
//! event pattern under a temporal operator. Leaves under a temporal
//! operator ("historical" leaves, whose past values matter) must be:
//!
//! * with a slicing variable: patterns whose other arguments are
//!   wildcards or closed terms, and closed predicates (constants);
//! * without one: predicates over names every step's state records, and
//!   patterns with closed arguments. Then the default slice is the whole
//!   monitor and is fed with the real leaf values.
//!
//! Leaves outside every temporal operator are read at the checked step
//! only, so they may mention anything the check-time environment binds.
//! A formula with no temporal operator at all keeps no state: it is
//! evaluated on the checked step alone.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::eval::OneBinding;
use crate::monitor::{eval_leaf, transition, Node};
use crate::scan::CompiledPattern;
use crate::{EventPattern, Formula, Result, Step, TemporalError};
use troll_data::{DataError, Env, Layered, MapEnv, Quantifier, Term, Value};
use troll_vm::Compiled;

/// One argument slot of a [`ParamPattern`].
#[derive(Debug, Clone)]
enum ParamArg {
    /// A wildcard.
    Any,
    /// The slicing variable.
    Slice,
    /// A closed term, evaluated once.
    Is(Value),
}

/// An event pattern with the slicing variable at one or more argument
/// positions: `hire(P)` under the slicing variable `P`.
#[derive(Debug, Clone)]
pub(crate) struct ParamPattern {
    name: String,
    args: Vec<ParamArg>,
}

impl ParamPattern {
    /// The events of `step` this pattern could match under some binding.
    fn candidates<'a>(
        &'a self,
        step: &'a Step,
    ) -> impl Iterator<Item = &'a crate::EventOccurrence> + 'a {
        step.events
            .iter()
            .filter(|occ| occ.name == self.name && occ.args.len() == self.args.len())
    }

    /// Whether an event of `step` matches with the slicing variable
    /// bound to `binding` — the scan's pattern match with the argument
    /// values already known.
    fn matches(&self, step: &Step, binding: &Value) -> bool {
        self.candidates(step).any(|occ| {
            self.args
                .iter()
                .zip(&occ.args)
                .all(|(arg, actual)| match arg {
                    ParamArg::Any => true,
                    ParamArg::Slice => actual == binding,
                    ParamArg::Is(v) => actual == v,
                })
        })
    }

    /// Pushes every value at a slicing position of a candidate event:
    /// the only bindings for which this pattern can hold at `step`.
    fn touched(&self, step: &Step, out: &mut Vec<Value>) {
        for occ in self.candidates(step) {
            for (arg, actual) in self.args.iter().zip(&occ.args) {
                if matches!(arg, ParamArg::Slice) {
                    out.push(actual.clone());
                }
            }
        }
    }
}

/// The state of one slice: every subformula's value at the last step
/// the slice has seen, and how many steps that is.
#[derive(Debug, Clone)]
struct Slice {
    prev: Vec<bool>,
    steps: usize,
}

/// The immutable part of a parametric monitor, shared by every copy.
#[derive(Debug)]
struct Shape {
    nodes: Vec<Node>,
    /// Whether each node's value at past steps can be read: it is a
    /// temporal operator or lies under one.
    historical: Vec<bool>,
    /// The slicing variable.
    var: Option<String>,
    /// The top-level quantifier over `var`, with its compiled domain.
    quant: Option<(Quantifier, Compiled)>,
    /// Indices of the `Param` nodes.
    params: Vec<usize>,
    /// No temporal operator: the checked step alone decides.
    stateless: bool,
}

impl Shape {
    /// A leaf's value at a committed step, for the slice of `binding`
    /// (`None`: the default slice). Leaves outside every temporal
    /// operator are never read at past steps and are not evaluated.
    fn fed_leaf(
        &self,
        i: usize,
        leaf: &Node,
        step: &Step,
        binding: Option<&Value>,
    ) -> Result<bool> {
        if !self.historical[i] {
            return Ok(false);
        }
        match leaf {
            Node::Param(p) => Ok(binding.is_some_and(|b| p.matches(step, b))),
            other => eval_leaf(other, step, &MapEnv::new()),
        }
    }

    /// `slice` brought forward to `n` committed steps, all of them
    /// untouched for its binding. Only bindings of a formula with
    /// parametric leaves have slices, and there every other historical
    /// leaf is a constant, so an untouched step's transition reads no
    /// step at all: the loop stops at its fixed point.
    fn synced<'a>(&self, slice: &'a Slice, n: usize) -> Result<Cow<'a, Slice>> {
        if slice.steps >= n {
            return Ok(Cow::Borrowed(slice));
        }
        let mut cur = slice.clone();
        while cur.steps < n {
            let next = transition(&self.nodes, &cur.prev, cur.steps == 0, |_, _| Ok(false))?;
            if cur.steps > 0 && next == cur.prev {
                cur.steps = n;
            } else {
                cur.prev = next;
                cur.steps += 1;
            }
        }
        Ok(Cow::Owned(cur))
    }
}

/// An incremental monitor for one formula under every binding of its
/// slicing variable (see the module documentation for the fragment).
///
/// # Example
///
/// ```
/// use std::collections::BTreeSet;
/// use troll_data::{MapEnv, Term, Value};
/// use troll_temporal::{EventPattern, Formula, ParametricMonitor, Step};
///
/// // sometime(after(hire(P)))
/// let phi = Formula::sometime(Formula::after(EventPattern::new(
///     "hire",
///     vec![Some(Term::var("P"))],
/// )));
/// let mut m = ParametricMonitor::new(&phi, &BTreeSet::new())?;
/// m.step(&Step::new(vec![("hire", vec![Value::from("ada")]).into()], []))?;
/// m.step(&Step::new(vec![], []))?;
/// let now = Step::new(vec![], []);
/// let env = MapEnv::new();
/// assert!(m.peek(Some(&Value::from("ada")), &now, &env)?);
/// assert!(!m.peek(Some(&Value::from("bob")), &now, &env)?);
/// # Ok::<(), troll_temporal::TemporalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParametricMonitor {
    shape: Arc<Shape>,
    /// The state of every binding not in `bindings`.
    default: Slice,
    /// Hashed: a binding is looked up on every check and every step
    /// that touches it, and never iterated.
    bindings: HashMap<Value, Slice>,
}

impl ParametricMonitor {
    /// Compiles `formula`. `state_vars` names what every committed
    /// step's state records: a historical predicate of a formula without
    /// a slicing variable may read only those names.
    ///
    /// # Errors
    ///
    /// [`TemporalError::UnsupportedByMonitor`] for formulas outside the
    /// fragment; callers answer those with the scan.
    pub fn new(formula: &Formula, state_vars: &BTreeSet<String>) -> Result<Self> {
        let (body, var, quant) = match formula {
            Formula::Quant {
                q,
                var,
                domain,
                body,
            } => (
                &**body,
                Some(var.clone()),
                Some((*q, Compiled::new(domain.clone()))),
            ),
            other => (other, slicing_var(other)?, None),
        };
        let mut b = Builder {
            var: var.as_deref(),
            state_vars,
            nodes: Vec::new(),
            historical: Vec::new(),
            params: Vec::new(),
            step_leaves: false,
        };
        b.flatten(body, false)?;
        if !b.params.is_empty() && b.step_leaves {
            return Err(unsupported(
                "a historical leaf besides the parametric patterns is not a constant",
            ));
        }
        let stateless = !b.historical.iter().any(|h| *h);
        let default = Slice {
            prev: vec![false; b.nodes.len()],
            steps: 0,
        };
        let (nodes, historical, params) = (b.nodes, b.historical, b.params);
        Ok(ParametricMonitor {
            shape: Arc::new(Shape {
                nodes,
                historical,
                var,
                quant,
                params,
                stateless,
            }),
            default,
            bindings: HashMap::new(),
        })
    }

    /// Whether the formula has no temporal operator: such a monitor
    /// keeps no state and never needs feeding.
    pub fn is_stateless(&self) -> bool {
        self.shape.stateless
    }

    /// Number of bindings with a slice of their own.
    pub fn bindings(&self) -> usize {
        self.bindings.len()
    }

    /// Feeds the next committed step: the default slice, plus the slice
    /// of every binding the step touches.
    ///
    /// # Errors
    ///
    /// Evaluation errors of a historical state predicate (formulas
    /// without a slicing variable only). The monitor is then unchanged
    /// and should be abandoned for the scan.
    pub fn step(&mut self, step: &Step) -> Result<()> {
        let n = self.default.steps;
        if self.shape.stateless {
            self.default.steps = n + 1;
            return Ok(());
        }
        crate::obs::monitor_steps().inc();
        let shape = &*self.shape;
        let mut touched = Vec::new();
        for &i in &shape.params {
            if let Node::Param(p) = &shape.nodes[i] {
                p.touched(step, &mut touched);
            }
        }
        touched.sort();
        touched.dedup();
        for b in touched {
            let slot = self.bindings.entry(b);
            let prev = {
                let (b, from) = match &slot {
                    Entry::Occupied(e) => (e.key(), shape.synced(e.get(), n)?),
                    Entry::Vacant(e) => (e.key(), Cow::Borrowed(&self.default)),
                };
                transition(&shape.nodes, &from.prev, from.steps == 0, |i, leaf| {
                    shape.fed_leaf(i, leaf, step, Some(b))
                })?
            };
            slot.insert_entry(Slice { prev, steps: n + 1 });
        }
        let prev = transition(&shape.nodes, &self.default.prev, n == 0, |i, leaf| {
            shape.fed_leaf(i, leaf, step, None)
        })?;
        self.default = Slice { prev, steps: n + 1 };
        Ok(())
    }

    /// Evaluates the quantifier-free body with the slicing variable bound
    /// to `binding` (`None`: no binding, every parametric pattern false)
    /// as if `step` were appended to the consumed history. `env` is the
    /// check-time environment; it must resolve the slicing variable to
    /// `binding` for leaves read at `step` alone.
    ///
    /// # Errors
    ///
    /// Evaluation errors of leaves read at `step`.
    pub fn peek(&self, binding: Option<&Value>, step: &Step, env: &dyn Env) -> Result<bool> {
        crate::obs::monitor_peeks().inc();
        let shape = &*self.shape;
        let slice = match binding.and_then(|b| self.bindings.get(b)) {
            Some(s) => shape.synced(s, self.default.steps)?,
            None => Cow::Borrowed(&self.default),
        };
        let cur = transition(
            &shape.nodes,
            &slice.prev,
            slice.steps == 0,
            |_, leaf| match leaf {
                Node::Param(p) => Ok(binding.is_some_and(|b| p.matches(step, b))),
                other => eval_leaf(other, step, env),
            },
        )?;
        Ok(*cur.last().expect("monitor has at least one node"))
    }

    /// Evaluates the whole formula as if `step` were appended to the
    /// consumed history — the monitor's twin of
    /// [`crate::eval_now_appended`]. A top-level quantifier evaluates
    /// its domain at `step` and peeks each element; otherwise the
    /// slicing variable's binding is its value in `env`.
    ///
    /// # Errors
    ///
    /// An unbound slicing variable, a non-collection domain, and
    /// evaluation errors of leaves read at `step`.
    pub fn eval_appended(&self, step: &Step, env: &dyn Env) -> Result<bool> {
        let shape = &*self.shape;
        let Some(var) = &shape.var else {
            return self.peek(None, step, env);
        };
        let Some((q, domain)) = &shape.quant else {
            let binding = env
                .lookup(var)
                .ok_or_else(|| DataError::UnboundVariable(var.clone()))?;
            return self.peek(Some(&binding), step, env);
        };
        let dom = domain.eval(&Layered {
            top: step,
            base: env,
        })?;
        let elems: Vec<Value> = match dom {
            Value::Set(s) => s.into_iter().collect(),
            Value::List(l) => l.into_iter().collect(),
            other => return Err(TemporalError::NonFiniteDomain(other.to_string())),
        };
        for elem in elems {
            let bound = OneBinding {
                name: var,
                value: elem,
                parent: env,
            };
            match (q, self.peek(Some(&bound.value), step, &bound)?) {
                (Quantifier::Forall, false) => return Ok(false),
                (Quantifier::Exists, true) => return Ok(true),
                _ => {}
            }
        }
        Ok(matches!(q, Quantifier::Forall))
    }
}

fn unsupported(what: &str) -> TemporalError {
    TemporalError::UnsupportedByMonitor(what.to_string())
}

/// The one variable that appears as a bare argument of an event pattern
/// under a temporal operator, if any.
fn slicing_var(formula: &Formula) -> Result<Option<String>> {
    fn collect(f: &Formula, historical: bool, out: &mut BTreeSet<String>) {
        match f {
            Formula::Occurs(p) | Formula::After(p) if historical => {
                for arg in p.args.iter().flatten() {
                    if let Term::Var(v) = arg {
                        out.insert(v.clone());
                    }
                }
            }
            Formula::Pred(_) | Formula::Occurs(_) | Formula::After(_) | Formula::Quant { .. } => {}
            Formula::Not(a) => collect(a, historical, out),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                collect(a, historical, out);
                collect(b, historical, out);
            }
            Formula::Sometime(a)
            | Formula::AlwaysPast(a)
            | Formula::Previous(a)
            | Formula::Eventually(a)
            | Formula::Henceforth(a) => collect(a, true, out),
            Formula::Since(a, b) => {
                collect(a, true, out);
                collect(b, true, out);
            }
        }
    }
    let mut vars = BTreeSet::new();
    collect(formula, false, &mut vars);
    if vars.len() > 1 {
        return Err(unsupported("more than one slicing variable"));
    }
    Ok(vars.pop_first())
}

/// Flattens a body into [`Node`]s (postorder), classifying its leaves.
struct Builder<'a> {
    var: Option<&'a str>,
    state_vars: &'a BTreeSet<String>,
    nodes: Vec<Node>,
    historical: Vec<bool>,
    params: Vec<usize>,
    /// Some historical leaf depends on the step other than through the
    /// slicing variable.
    step_leaves: bool,
}

impl Builder<'_> {
    fn flatten(&mut self, formula: &Formula, historical: bool) -> Result<usize> {
        let (node, temporal) = match formula {
            Formula::Pred(t) => (self.pred(t, historical)?, false),
            Formula::Occurs(p) | Formula::After(p) => (self.pattern(p, historical)?, false),
            Formula::Not(a) => (Node::Not(self.flatten(a, historical)?), false),
            Formula::And(a, b) => {
                let (a, b) = (self.flatten(a, historical)?, self.flatten(b, historical)?);
                (Node::And(a, b), false)
            }
            Formula::Or(a, b) => {
                let (a, b) = (self.flatten(a, historical)?, self.flatten(b, historical)?);
                (Node::Or(a, b), false)
            }
            Formula::Implies(a, b) => {
                let (a, b) = (self.flatten(a, historical)?, self.flatten(b, historical)?);
                (Node::Implies(a, b), false)
            }
            Formula::Sometime(a) => (Node::Sometime(self.flatten(a, true)?), true),
            Formula::AlwaysPast(a) => (Node::AlwaysPast(self.flatten(a, true)?), true),
            Formula::Previous(a) => (Node::Previous(self.flatten(a, true)?), true),
            Formula::Since(a, b) => {
                let (a, b) = (self.flatten(a, true)?, self.flatten(b, true)?);
                (Node::Since(a, b), true)
            }
            Formula::Eventually(_) | Formula::Henceforth(_) => {
                return Err(unsupported("future operator"))
            }
            Formula::Quant { .. } => return Err(unsupported("nested quantifier")),
        };
        if matches!(node, Node::Param(_)) {
            self.params.push(self.nodes.len());
        }
        self.nodes.push(node);
        self.historical.push(historical || temporal);
        Ok(self.nodes.len() - 1)
    }

    fn pred(&mut self, t: &Term, historical: bool) -> Result<Node> {
        if !historical {
            return Ok(Node::Pred(Compiled::new(t.clone())));
        }
        let free = t.free_vars();
        if free.is_empty() {
            return match t.eval(&MapEnv::new()).ok().and_then(|v| v.as_bool()) {
                Some(b) => Ok(Node::Const(b)),
                None => Err(unsupported("closed predicate is not a boolean")),
            };
        }
        if free.iter().any(|v| Some(v.as_str()) == self.var) {
            return Err(unsupported("slicing variable inside a state predicate"));
        }
        if !free.iter().all(|v| self.state_vars.contains(v)) {
            return Err(unsupported("historical predicate over unrecorded names"));
        }
        self.step_leaves = true;
        Ok(Node::Pred(Compiled::new(t.clone())))
    }

    fn pattern(&mut self, p: &EventPattern, historical: bool) -> Result<Node> {
        if !historical {
            return Ok(Node::Occurs(CompiledPattern::new(p)));
        }
        let mut args = Vec::with_capacity(p.args.len());
        for arg in &p.args {
            args.push(match arg {
                None => ParamArg::Any,
                Some(Term::Var(v)) if Some(v.as_str()) == self.var => ParamArg::Slice,
                Some(t) if t.free_vars().is_empty() => match t.eval(&MapEnv::new()) {
                    Ok(v) => ParamArg::Is(v),
                    Err(_) => return Err(unsupported("pattern argument does not evaluate")),
                },
                Some(_) => return Err(unsupported("open pattern argument")),
            });
        }
        if args.iter().any(|a| matches!(a, ParamArg::Slice)) {
            return Ok(Node::Param(ParamPattern {
                name: p.name.clone(),
                args,
            }));
        }
        self.step_leaves = true;
        Ok(Node::Occurs(CompiledPattern::new(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_now_appended;
    use crate::{EventOccurrence, EventPattern, Trace};
    use proptest::prelude::*;
    use troll_data::Op;

    fn ev(name: &str, args: Vec<i64>) -> EventOccurrence {
        EventOccurrence::new(name, args.into_iter().map(Value::from).collect())
    }

    /// A step with the given events and state `x`, `d` (a set of ints).
    fn mkstep(events: Vec<EventOccurrence>, x: i64, d: &[i64]) -> Step {
        Step::new(
            events,
            [
                ("x".to_string(), Value::from(x)),
                (
                    "d".to_string(),
                    Value::set_of(d.iter().map(|v| Value::from(*v))),
                ),
            ],
        )
    }

    fn pat(name: &str, args: Vec<Option<Term>>) -> Formula {
        Formula::after(EventPattern::new(name, args))
    }

    fn p() -> Option<Term> {
        Some(Term::var("P"))
    }

    fn x_ge(n: i64) -> Formula {
        Formula::pred(Term::apply(Op::Ge, vec![Term::var("x"), Term::constant(n)]))
    }

    fn vars(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fragment_gate() {
        let state = vars(&["x", "d"]);
        let ok = |f: &Formula| ParametricMonitor::new(f, &state).is_ok();
        let hire = pat("a", vec![p()]);
        // the DEPT shapes
        assert!(ok(&Formula::sometime(hire.clone())));
        assert!(ok(&Formula::forall(
            "P",
            Term::var("d"),
            Formula::sometime(hire.clone())
        )));
        // no temporal operator: anything goes, nothing is kept
        let now = Formula::and(x_ge(1), Formula::pred(Term::var("P")));
        let m = ParametricMonitor::new(&now, &state).unwrap();
        assert!(m.is_stateless());
        // state predicates under a temporal operator: without slicing only
        assert!(ok(&Formula::sometime(x_ge(1))));
        assert!(!ok(&Formula::sometime(Formula::and(hire.clone(), x_ge(1)))));
        assert!(!ok(&Formula::sometime(Formula::pred(Term::var("y")))));
        // closed predicates and arguments are constants
        assert!(ok(&Formula::sometime(Formula::and(
            pat("b", vec![p(), Some(Term::constant(1i64))]),
            Formula::truth()
        ))));
        // the slicing variable must stay a bare pattern argument
        assert!(!ok(&Formula::sometime(Formula::pred(Term::var("P")))));
        assert!(!ok(&Formula::sometime(pat(
            "a",
            vec![Some(Term::apply(
                Op::Add,
                vec![Term::var("P"), Term::constant(1i64)]
            ))]
        ))));
        // one slicing variable, no step-dependent events beside it
        assert!(!ok(&Formula::sometime(Formula::and(
            hire.clone(),
            pat("b", vec![Some(Term::var("Q")), None])
        ))));
        assert!(!ok(&Formula::sometime(Formula::or(
            hire.clone(),
            Formula::after(EventPattern::any("c"))
        ))));
        // future operators and nested quantifiers
        assert!(!ok(&Formula::eventually(hire.clone())));
        assert!(!ok(&Formula::not(Formula::forall(
            "P",
            Term::var("d"),
            Formula::sometime(hire)
        ))));
    }

    #[test]
    fn untouched_bindings_catch_up_to_a_fixed_point() {
        // previous(previous(after(a(P)))): true exactly two steps after a(P)
        let phi = Formula::previous(Formula::previous(pat("a", vec![p()])));
        let mut m = ParametricMonitor::new(&phi, &BTreeSet::new()).unwrap();
        let env = MapEnv::new();
        let quiet = mkstep(vec![], 0, &[]);
        let one = Value::from(1i64);
        m.step(&mkstep(vec![ev("a", vec![1])], 0, &[])).unwrap();
        assert!(!m.peek(Some(&one), &quiet, &env).unwrap());
        m.step(&quiet).unwrap();
        assert!(m.peek(Some(&one), &quiet, &env).unwrap());
        for _ in 0..100 {
            m.step(&quiet).unwrap();
        }
        assert!(!m.peek(Some(&one), &quiet, &env).unwrap());
        assert_eq!(m.bindings(), 1);
    }

    /// Past-only formulas over the given leaves.
    fn arb_past(leaf: BoxedStrategy<Formula>) -> impl Strategy<Value = Formula> {
        leaf.prop_recursive(4, 24, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Formula::not),
                inner.clone().prop_map(Formula::sometime),
                inner.clone().prop_map(Formula::always_past),
                inner.clone().prop_map(Formula::previous),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| Formula::since(a, b)),
            ]
        })
    }

    /// A generator over the fragment. Historical subformulas are either
    /// parametric (over `a(P)`, `b(P, _)`, `b(P, 1)` and constants) or
    /// state-only (over `x >= 1`, `c()` and constants); top-level boolean
    /// structure may add `x >= 1`, `c()`, `P = 2` and `a(P)`, read at
    /// the checked step only.
    fn arb_historical() -> impl Strategy<Value = Formula> {
        let parametric = prop_oneof![
            Just(pat("a", vec![p()])),
            Just(pat("b", vec![p(), None])),
            Just(pat("b", vec![p(), Some(Term::constant(1i64))])),
            Just(Formula::truth()),
            Just(Formula::not(Formula::truth())),
        ]
        .prop_boxed();
        let state = prop_oneof![
            Just(x_ge(1)),
            Just(Formula::occurs(EventPattern::any("c"))),
            Just(Formula::truth()),
        ]
        .prop_boxed();
        prop_oneof![arb_past(parametric), arb_past(state)]
    }

    fn arb_body() -> impl Strategy<Value = Formula> {
        let temporal = arb_historical().prop_map(|f| match f {
            // make sure the body has a temporal operator most of the time
            f @ (Formula::Sometime(_)
            | Formula::AlwaysPast(_)
            | Formula::Previous(_)
            | Formula::Since(..)) => f,
            f => Formula::sometime(f),
        });
        let now = prop_oneof![
            Just(x_ge(1)),
            Just(Formula::occurs(EventPattern::any("c"))),
            Just(Formula::pred(Term::apply(
                Op::Eq,
                vec![Term::var("P"), Term::constant(2i64)]
            ))),
            Just(pat("a", vec![p()])),
        ];
        prop_oneof![
            temporal.clone(),
            (temporal.clone(), now.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (now, temporal).prop_map(|(a, b)| Formula::implies(a, b)),
        ]
    }

    fn arb_formula() -> impl Strategy<Value = Formula> {
        prop_oneof![
            arb_body(),
            arb_body().prop_map(|b| Formula::forall("P", Term::var("d"), b)),
            arb_body().prop_map(|b| Formula::exists("P", Term::var("d"), b)),
        ]
    }

    /// Steps whose events carry values 0..4; value 4 never occurs and
    /// value 3 only from the middle of the trace on. The state `d` is
    /// the quantifier domain.
    fn arb_trace() -> impl Strategy<Value = Vec<Step>> {
        let event = prop_oneof![
            (0i64..3).prop_map(|v| ev("a", vec![v])),
            (0i64..3, 0i64..2).prop_map(|(v, w)| ev("b", vec![v, w])),
            Just(ev("c", vec![])),
        ];
        proptest::collection::vec(
            (
                proptest::collection::vec(event, 0..3),
                0i64..3,
                proptest::collection::vec(0i64..5, 0..4),
            ),
            1..14,
        )
        .prop_map(|steps| {
            let half = steps.len() / 2;
            steps
                .into_iter()
                .enumerate()
                .map(|(i, (mut events, x, d))| {
                    if i >= half && i % 2 == 1 {
                        events.push(ev("a", vec![3]));
                    }
                    mkstep(events, x, &d)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// At every prefix, the monitor synced to the prefix answers the
        /// next step as the reference evaluator does on the prefix with
        /// that step appended — for every binding: seen from the start,
        /// first seen mid-trace, never seen, or first seen in the
        /// appended step itself.
        #[test]
        fn eval_appended_matches_reference_at_every_prefix(
            f in arb_formula(),
            t in arb_trace(),
        ) {
            let state = vars(&["x", "d"]);
            let mut m = ParametricMonitor::new(&f, &state).unwrap();
            let mut prefix = Trace::new();
            for step in &t {
                for binding in 0i64..5 {
                    let mut env = MapEnv::new();
                    env.bind("P", Value::from(binding));
                    let got = m.eval_appended(step, &env).unwrap();
                    let want = eval_now_appended(&f, &prefix, step, &env).unwrap();
                    prop_assert_eq!(got, want, "{} at {} with P = {}", f, prefix.len(), binding);
                }
                m.step(step).unwrap();
                prefix.push(step.clone());
            }
        }
    }
}
