//! The compiled form of an analyzed model: every rule term the step
//! engine evaluates on its hot path, lowered to bytecode **once** at
//! `ObjectBase` build time, together with each rule's precomputed
//! needed-variable set (callers used to re-derive a `BTreeSet<String>`
//! per evaluation via `env::needed_vars`/`formula_needed_vars`).
//!
//! Indices mirror the model exactly: valuation and permission programs
//! are grouped per event by replaying the same `valuation_for` /
//! `permissions_for` filters the evaluation sites use, so position `i`
//! of a group corresponds to the `i`-th rule those iterators yield
//! (permission `CheckKey`s depend on that index staying stable).
//! Constraints, derivations, parameterized attributes and calling
//! rules are parallel vectors over their model counterparts.
//!
//! Under the `treewalk` oracle feature the runtime builds no compiled
//! model at all ([`ObjectBase`](crate::ObjectBase) call sites then take
//! their original tree-walk branches, re-deriving needed sets per
//! evaluation exactly as before) — that build *is* the differential
//! baseline, not a half-compiled hybrid.

use std::collections::{BTreeMap, BTreeSet};

use troll_lang::{ClassModel, EventTarget, LoweredCall, SystemModel};
use troll_temporal::CompiledFormula;
use troll_vm::Compiled;

use crate::env;

/// A valuation rule's compiled guard and value.
#[derive(Debug)]
pub(crate) struct CompiledValuation {
    pub(crate) guard: Option<Compiled>,
    pub(crate) value: Compiled,
    /// Union of guard and value free variables.
    pub(crate) needed: BTreeSet<String>,
}

/// A permission formula's compiled scan form plus its precomputed
/// needed-variable set. Monitorable formulas on base histories are
/// answered by the monitor cache (whose leaves are compiled inside
/// `troll_temporal::ParametricMonitor`); everything else — role-context
/// checks and unmonitorable formulas — scans through `scan`, the
/// bytecode twin of the reference evaluator.
#[derive(Debug)]
pub(crate) struct CompiledPermission {
    pub(crate) scan: CompiledFormula,
    pub(crate) needed: BTreeSet<String>,
}

/// A constraint formula's compiled scan form plus its precomputed
/// needed-variable set.
#[derive(Debug)]
pub(crate) struct CompiledConstraint {
    pub(crate) scan: CompiledFormula,
    pub(crate) needed: BTreeSet<String>,
}

/// One called event of a calling rule: compiled argument terms plus
/// the compiled instance-designator term for `EventTarget::Instance`.
#[derive(Debug)]
pub(crate) struct CompiledCall {
    pub(crate) args: Vec<Compiled>,
    pub(crate) target_id: Option<Compiled>,
    /// Union of argument and designator free variables.
    pub(crate) needed: BTreeSet<String>,
}

/// A parameterized attribute family's compiled derivation.
#[derive(Debug)]
pub(crate) struct CompiledParamAttr {
    pub(crate) value: Compiled,
    pub(crate) needed: BTreeSet<String>,
}

/// Everything compiled for one class.
#[derive(Debug, Default)]
pub(crate) struct CompiledClass {
    /// Valuation rules grouped by event (same order as `valuation_for`).
    valuations: BTreeMap<String, Vec<CompiledValuation>>,
    /// Permissions grouped by event (same order as `permissions_for`).
    permissions: BTreeMap<String, Vec<CompiledPermission>>,
    /// Parallel to `ClassModel::constraints`.
    pub(crate) constraints: Vec<CompiledConstraint>,
    /// Parallel to `ClassModel::derivation`.
    pub(crate) derivations: Vec<Compiled>,
    /// Parallel to `ClassModel::param_attributes`.
    pub(crate) param_attrs: Vec<CompiledParamAttr>,
    /// `interactions[i][j]` compiles `ClassModel::interactions[i].calls[j]`.
    pub(crate) interactions: Vec<Vec<CompiledCall>>,
}

impl CompiledClass {
    fn new(class: &ClassModel) -> CompiledClass {
        let mut valuations: BTreeMap<String, Vec<CompiledValuation>> = BTreeMap::new();
        for rule in &class.valuation {
            let mut needed = env::needed_vars(&[&rule.value]);
            if let Some(g) = &rule.guard {
                needed.extend(env::needed_vars(&[g]));
            }
            valuations
                .entry(rule.event.clone())
                .or_default()
                .push(CompiledValuation {
                    guard: rule.guard.clone().map(Compiled::new),
                    // delta-aware: `attr := insert(x, attr)`-shaped
                    // value terms lower to incremental collection
                    // updates (see `troll_vm::Compiled::new_valuation`)
                    value: Compiled::new_valuation(rule.value.clone(), &rule.attribute),
                    needed,
                });
        }
        let mut permissions: BTreeMap<String, Vec<CompiledPermission>> = BTreeMap::new();
        for perm in &class.permissions {
            let mut needed = BTreeSet::new();
            env::formula_needed_vars(&perm.formula, &mut needed);
            permissions
                .entry(perm.event.clone())
                .or_default()
                .push(CompiledPermission {
                    scan: CompiledFormula::new(&perm.formula),
                    needed,
                });
        }
        let constraints = class
            .constraints
            .iter()
            .map(|c| {
                let mut needed = BTreeSet::new();
                env::formula_needed_vars(&c.formula, &mut needed);
                CompiledConstraint {
                    scan: CompiledFormula::new(&c.formula),
                    needed,
                }
            })
            .collect();
        let derivations = class
            .derivation
            .iter()
            .map(|d| Compiled::new(d.value.clone()))
            .collect();
        let param_attrs = class
            .param_attributes
            .iter()
            .map(|p| CompiledParamAttr {
                needed: env::needed_vars(&[&p.value]),
                value: Compiled::new(p.value.clone()),
            })
            .collect();
        let interactions = class
            .interactions
            .iter()
            .map(|rule| rule.calls.iter().map(CompiledCall::new).collect())
            .collect();
        CompiledClass {
            valuations,
            permissions,
            constraints,
            derivations,
            param_attrs,
            interactions,
        }
    }

    /// The compiled valuation rule that `valuation_for(event)` yields at
    /// position `index`.
    pub(crate) fn valuation(&self, event: &str, index: usize) -> Option<&CompiledValuation> {
        self.valuations.get(event)?.get(index)
    }

    /// The compiled permission that `permissions_for(event)` yields at
    /// position `index`.
    pub(crate) fn permission(&self, event: &str, index: usize) -> Option<&CompiledPermission> {
        self.permissions.get(event)?.get(index)
    }
}

impl CompiledCall {
    fn new(call: &LoweredCall) -> CompiledCall {
        let mut needed = env::needed_vars(&call.args.iter().collect::<Vec<_>>());
        let target_id = match &call.target {
            EventTarget::Instance { id, .. } => {
                needed.extend(id.free_vars());
                Some(Compiled::new(id.clone()))
            }
            _ => None,
        };
        CompiledCall {
            args: call.args.iter().cloned().map(Compiled::new).collect(),
            target_id,
            needed,
        }
    }
}

/// The whole model, compiled. Built once in `ObjectBase::new` and
/// shared (behind an `Arc`) with every shard of a sharded world.
#[derive(Debug, Default)]
pub(crate) struct CompiledModel {
    classes: BTreeMap<String, CompiledClass>,
    /// `globals[i][j]` compiles `SystemModel::global_interactions[i].calls[j]`.
    pub(crate) globals: Vec<Vec<CompiledCall>>,
}

impl CompiledModel {
    pub(crate) fn new(model: &SystemModel) -> CompiledModel {
        CompiledModel {
            classes: model
                .classes
                .iter()
                .map(|(name, class)| (name.clone(), CompiledClass::new(class)))
                .collect(),
            globals: model
                .global_interactions
                .iter()
                .map(|rule| rule.calls.iter().map(CompiledCall::new).collect())
                .collect(),
        }
    }

    pub(crate) fn class(&self, name: &str) -> Option<&CompiledClass> {
        self.classes.get(name)
    }
}
