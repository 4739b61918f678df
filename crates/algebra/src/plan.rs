//! The logical query plan: UA queries lowered into a validated operator DAG.
//!
//! The paper evaluates UA queries in two conceptually separate stages: the
//! *parsimonious translation* of the relational operations onto U-relations
//! (Section 3) and the *confidence computation* for `conf` / `σ̂` nodes
//! (Sections 4–6).  [`LogicalPlan`] makes that separation explicit and
//! engine-independent: [`LogicalPlan::lower`] flattens a [`Query`] tree into
//! a topologically ordered DAG of [`PlanNode`]s, merging structurally equal
//! subqueries into a single node (the memoisation the recursive evaluator
//! performed with a string cache — sharing matters semantically, because
//! shared `repair-key` subqueries must share their random variables, cf. the
//! self-join of Example 2.2).
//!
//! Each node carries an [`Accuracy`] annotation with its ε/δ requirements:
//!
//! | operator                    | paper section | accuracy annotation        |
//! |-----------------------------|---------------|----------------------------|
//! | σ, π, ρ, ×, ⋈, ∪, −c        | §2, §3        | [`Accuracy::Exact`]        |
//! | `repair-key`, `poss`, `cert`| §2, §3        | [`Accuracy::Exact`]        |
//! | `conf`                      | §4            | [`Accuracy::Exact`] (the engine may substitute an FPRAS) |
//! | `conf_{ε,δ}`                | §4, Cor. 4.3  | [`Accuracy::Fpras`]        |
//! | `σ̂_{φ(conf[A⃗₁],…)}`        | §5–6          | [`Accuracy::ApproxSelect`] |
//!
//! Physical engines (`engine::physical`, the possible-worlds reference
//! engine, the Theorem 6.7 adaptive driver) are alternative lowerings of the
//! same logical plan; they choose how each annotated node is computed.

use crate::error::{AlgebraError, Result};
use crate::predicate::Predicate;
use crate::query::{ConfTerm, ProjItem, Query};
use crate::validate::{output_schema, Catalog};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Index of a node inside a [`LogicalPlan`] (also its topological position:
/// every node's inputs have strictly smaller ids).
pub type NodeId = usize;

/// A 128-bit content fingerprint of a sub-plan: two independently seeded
/// 64-bit hashes over its canonical textual form.  A collision would require
/// two distinct sub-plans agreeing on both hashes — vanishingly unlikely —
/// which lets caches address sub-plan results by digest without retaining
/// the text.
pub type SubplanDigest = (u64, u64);

/// The [`SubplanDigest`] of a sub-plan given in canonical textual form (the
/// `Display` form of the subquery, which [`LogicalPlan`] stores as each
/// node's label).
pub fn subplan_digest(canonical_text: &str) -> SubplanDigest {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h1 = DefaultHasher::new();
    canonical_text.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    0x5bd1_e995_9e37_79b9_u64.hash(&mut h2);
    canonical_text.hash(&mut h2);
    (h1.finish(), h2.finish())
}

/// The accuracy a plan node demands from its physical implementation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Accuracy {
    /// The node's semantics are exact (all per-world relational operators,
    /// and `conf` unless the engine substitutes an FPRAS).
    Exact,
    /// `conf_{ε,δ}`: relative error ε with probability at least `1 − δ`
    /// (Corollary 4.3).
    Fpras {
        /// Relative error ε.
        epsilon: f64,
        /// Error probability δ.
        delta: f64,
    },
    /// `σ̂`: refine to the relative half-width ε₀ and decide with error at
    /// most δ away from ε₀-singularities (Theorem 5.8).
    ApproxSelect {
        /// Smallest relative half-width ε₀ refined to.
        epsilon0: f64,
        /// Per-operator error bound δ.
        delta: f64,
    },
}

/// A logical operator: the [`Query`] constructors with the child pointers
/// factored out into [`PlanNode::inputs`].
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalOp {
    /// A base relation (§2).
    Scan {
        /// Relation name.
        relation: String,
    },
    /// Per-world selection `σ_φ` (§2, translated per §3).
    Select {
        /// Selection predicate.
        predicate: Predicate,
    },
    /// Generalised projection `π` (§2/§3).
    Project {
        /// Output items.
        items: Vec<ProjItem>,
    },
    /// Extension by computed attributes (§2/§3).
    Extend {
        /// Appended items.
        items: Vec<ProjItem>,
    },
    /// Attribute renaming `ρ` (§2/§3).
    Rename {
        /// Attribute to rename.
        from: String,
        /// New attribute name.
        to: String,
    },
    /// Cartesian product `×` (§3 condition-merging translation).
    Product,
    /// Natural join `⋈` (§3).
    NaturalJoin,
    /// Union `∪` (§3).
    Union,
    /// Difference; `checked = false` is the unrestricted `−` outside positive
    /// UA (engines reject it on uncertain inputs), `checked = true` the
    /// complete-input `−c` of Proposition 3.3.
    Difference {
        /// True for the `−c` form restricted to complete inputs.
        checked: bool,
    },
    /// Confidence computation `conf` / `conf_{ε,δ}` (§4); the ε/δ variant is
    /// expressed through the node's [`Accuracy`].
    Conf {
        /// Name of the appended probability attribute.
        prob_attr: String,
    },
    /// Uncertainty introduction `repair-key_{A⃗@B}` (§2/§3).
    RepairKey {
        /// Key attributes.
        key: Vec<String>,
        /// Weight attribute.
        weight: String,
    },
    /// `poss` (§2).
    Poss,
    /// `cert` (§2; the `conf = 1` test, cf. Example 5.7).
    Cert,
    /// Approximate selection `σ̂_{φ(conf[A⃗₁], …)}` (§6); ε₀/δ live in the
    /// node's [`Accuracy`].
    ApproxSelect {
        /// Confidence terms the predicate refers to.
        terms: Vec<ConfTerm>,
        /// Predicate over the term placeholders.
        predicate: Predicate,
    },
}

impl LogicalOp {
    /// A short operator mnemonic for plan rendering.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalOp::Scan { .. } => "scan",
            LogicalOp::Select { .. } => "select",
            LogicalOp::Project { .. } => "project",
            LogicalOp::Extend { .. } => "extend",
            LogicalOp::Rename { .. } => "rename",
            LogicalOp::Product => "product",
            LogicalOp::NaturalJoin => "join",
            LogicalOp::Union => "union",
            LogicalOp::Difference { checked: false } => "diff",
            LogicalOp::Difference { checked: true } => "diffc",
            LogicalOp::Conf { .. } => "conf",
            LogicalOp::RepairKey { .. } => "repair-key",
            LogicalOp::Poss => "poss",
            LogicalOp::Cert => "cert",
            LogicalOp::ApproxSelect { .. } => "approx-select",
        }
    }
}

/// One node of a logical plan.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanNode {
    /// The operator.
    pub op: LogicalOp,
    /// Ids of the input nodes, left to right; always smaller than this
    /// node's own id.
    pub inputs: Vec<NodeId>,
    /// The node's accuracy requirement.
    pub accuracy: Accuracy,
    /// The textual form of the subquery rooted here (the common-subexpression
    /// key, kept for diagnostics and plan rendering).
    pub label: String,
}

/// A validated, topologically ordered operator DAG for one UA query.
///
/// Nodes are stored in evaluation order: iterating `0..len()` and executing
/// each node after its inputs is a correct schedule, and structurally equal
/// subqueries appear exactly once.
#[derive(Clone, Debug, PartialEq)]
pub struct LogicalPlan {
    nodes: Vec<PlanNode>,
    root: NodeId,
}

impl LogicalPlan {
    /// Lowers a query into a plan, performing the structural validation that
    /// needs no catalog: ε/δ parameter ranges and distinct `σ̂` placeholder
    /// names.
    pub fn lower(query: &Query) -> Result<LogicalPlan> {
        let mut builder = Builder {
            nodes: Vec::new(),
            cse: HashMap::new(),
        };
        let root = builder.lower_node(query)?;
        Ok(LogicalPlan {
            nodes: builder.nodes,
            root,
        })
    }

    /// Lowers a query into a plan and additionally validates every attribute
    /// reference and schema constraint against the catalog (the static
    /// analysis of [`crate::validate`]).
    pub fn lower_validated(query: &Query, catalog: &Catalog) -> Result<LogicalPlan> {
        // `output_schema` walks the whole tree and checks predicates,
        // projection expressions, key/weight attributes, union compatibility
        // and σ̂ terms; run it first so errors surface before execution.
        output_schema(query, catalog)?;
        LogicalPlan::lower(query)
    }

    /// The nodes in topological (execution) order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The root (output) node id; always `len() - 1`.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id]
    }

    /// Number of distinct operator nodes (shared subqueries count once).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the plan has no nodes (never produced by `lower`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of the base relations scanned by the plan.
    pub fn scans(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                LogicalOp::Scan { relation } => Some(relation.as_str()),
                _ => None,
            })
            .collect()
    }

    /// For every node, the content digest of the sub-plan rooted there.
    ///
    /// The digest is computed from the node's label — the canonical textual
    /// form of the subquery, which is also the common-subexpression key — so
    /// two structurally equal sub-plans have equal digests *across plans*,
    /// and (up to hash collision, see [`SubplanDigest`]) only those do.
    /// The serving layer uses these digests as the content addresses of its
    /// cross-query snapshot pool: a sub-plan result computed for one
    /// prepared query is found by every other prepared query that contains
    /// the same sub-plan.
    pub fn subplan_digests(&self) -> Vec<SubplanDigest> {
        self.nodes
            .iter()
            .map(|n| subplan_digest(&n.label))
            .collect()
    }

    /// For every node, the set of base relations the sub-plan rooted there
    /// scans (its *relation footprint*).
    ///
    /// A sub-plan's result can only change when one of the relations in its
    /// footprint changes, so footprints are the unit of catalog-aware cache
    /// invalidation: an update to relation `R` invalidates exactly the
    /// cached sub-plan results whose footprint contains `R`.
    pub fn subplan_footprints(&self) -> Vec<BTreeSet<String>> {
        let mut footprints: Vec<BTreeSet<String>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mut fp = BTreeSet::new();
            if let LogicalOp::Scan { relation } = &node.op {
                fp.insert(relation.clone());
            }
            for &input in &node.inputs {
                fp.extend(footprints[input].iter().cloned());
            }
            footprints.push(fp);
        }
        footprints
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "LogicalPlan (root = #{})", self.root)?;
        for (id, node) in self.nodes.iter().enumerate() {
            let inputs: Vec<String> = node.inputs.iter().map(|i| format!("#{i}")).collect();
            let accuracy = match node.accuracy {
                Accuracy::Exact => String::new(),
                Accuracy::Fpras { epsilon, delta } => {
                    format!("  [fpras ε={epsilon} δ={delta}]")
                }
                Accuracy::ApproxSelect { epsilon0, delta } => {
                    format!("  [σ̂ ε₀={epsilon0} δ={delta}]")
                }
            };
            writeln!(
                f,
                "  #{id} {}({}){}  ← {}",
                node.op.name(),
                inputs.join(", "),
                accuracy,
                node.label
            )?;
        }
        Ok(())
    }
}

struct Builder {
    nodes: Vec<PlanNode>,
    /// Common-subexpression elimination: textual subquery → node id.
    cse: HashMap<String, NodeId>,
}

impl Builder {
    fn lower_node(&mut self, query: &Query) -> Result<NodeId> {
        let label = query.to_string();
        if let Some(&id) = self.cse.get(&label) {
            return Ok(id);
        }
        let (op, accuracy, children): (LogicalOp, Accuracy, Vec<&Query>) = match query {
            Query::Table(name) => (
                LogicalOp::Scan {
                    relation: name.clone(),
                },
                Accuracy::Exact,
                vec![],
            ),
            Query::Select { input, predicate } => (
                LogicalOp::Select {
                    predicate: predicate.clone(),
                },
                Accuracy::Exact,
                vec![input],
            ),
            Query::Project { input, items } => (
                LogicalOp::Project {
                    items: items.clone(),
                },
                Accuracy::Exact,
                vec![input],
            ),
            Query::Extend { input, items } => (
                LogicalOp::Extend {
                    items: items.clone(),
                },
                Accuracy::Exact,
                vec![input],
            ),
            Query::Rename { input, from, to } => (
                LogicalOp::Rename {
                    from: from.clone(),
                    to: to.clone(),
                },
                Accuracy::Exact,
                vec![input],
            ),
            Query::Product { left, right } => {
                (LogicalOp::Product, Accuracy::Exact, vec![left, right])
            }
            Query::NaturalJoin { left, right } => {
                (LogicalOp::NaturalJoin, Accuracy::Exact, vec![left, right])
            }
            Query::Union { left, right } => (LogicalOp::Union, Accuracy::Exact, vec![left, right]),
            Query::Difference { left, right } => (
                LogicalOp::Difference { checked: false },
                Accuracy::Exact,
                vec![left, right],
            ),
            Query::DifferenceC { left, right } => (
                LogicalOp::Difference { checked: true },
                Accuracy::Exact,
                vec![left, right],
            ),
            Query::Conf { input, prob_attr } => (
                LogicalOp::Conf {
                    prob_attr: prob_attr.clone(),
                },
                Accuracy::Exact,
                vec![input],
            ),
            Query::ApproxConf {
                input,
                prob_attr,
                epsilon,
                delta,
            } => {
                check_unit_interval("epsilon", *epsilon)?;
                check_unit_interval("delta", *delta)?;
                (
                    LogicalOp::Conf {
                        prob_attr: prob_attr.clone(),
                    },
                    Accuracy::Fpras {
                        epsilon: *epsilon,
                        delta: *delta,
                    },
                    vec![input],
                )
            }
            Query::RepairKey { input, key, weight } => (
                LogicalOp::RepairKey {
                    key: key.clone(),
                    weight: weight.clone(),
                },
                Accuracy::Exact,
                vec![input],
            ),
            Query::Poss { input } => (LogicalOp::Poss, Accuracy::Exact, vec![input]),
            Query::Cert { input } => (LogicalOp::Cert, Accuracy::Exact, vec![input]),
            Query::ApproxSelect {
                input,
                terms,
                predicate,
                epsilon0,
                delta,
            } => {
                check_unit_interval("epsilon0", *epsilon0)?;
                check_unit_interval("delta", *delta)?;
                for (i, t) in terms.iter().enumerate() {
                    if terms[..i].iter().any(|u| u.name == t.name) {
                        return Err(AlgebraError::Invariant(format!(
                            "duplicate confidence-term placeholder `{}`",
                            t.name
                        )));
                    }
                }
                (
                    LogicalOp::ApproxSelect {
                        terms: terms.clone(),
                        predicate: predicate.clone(),
                    },
                    Accuracy::ApproxSelect {
                        epsilon0: *epsilon0,
                        delta: *delta,
                    },
                    vec![input],
                )
            }
        };
        let inputs: Vec<NodeId> = children
            .into_iter()
            .map(|c| self.lower_node(c))
            .collect::<Result<_>>()?;
        let id = self.nodes.len();
        self.nodes.push(PlanNode {
            op,
            inputs,
            accuracy,
            label: label.clone(),
        });
        self.cse.insert(label, id);
        Ok(id)
    }
}

fn check_unit_interval(what: &str, value: f64) -> Result<()> {
    if !(value > 0.0 && value < 1.0) {
        return Err(AlgebraError::InvalidParameter(format!(
            "{what} = {value} must be in (0, 1)"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::parser::parse_query;

    #[test]
    fn shared_subqueries_become_one_node() {
        // The self-join of Example 2.2: R ⋈ R must lower to a DAG in which R
        // appears once, so both sides share repair-key variables downstream.
        let q = parse_query(
            "join(project[CoinType](repairkey[ @ Count](Coins)), \
                  project[CoinType](repairkey[ @ Count](Coins)))",
        )
        .unwrap();
        let plan = LogicalPlan::lower(&q).unwrap();
        // scan, repair-key, project, join — not 7 nodes.
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.root(), plan.len() - 1);
        let join = plan.node(plan.root());
        assert_eq!(join.inputs, vec![2, 2]);
        assert_eq!(plan.scans(), vec!["Coins"]);
    }

    #[test]
    fn nodes_are_topologically_ordered() {
        let q = parse_query(
            "conf(join(project[A](repairkey[ @ W](R)), select[A = 1](project[A](repairkey[ @ W](R)))))",
        )
        .unwrap();
        let plan = LogicalPlan::lower(&q).unwrap();
        for (id, node) in plan.nodes().iter().enumerate() {
            for &input in &node.inputs {
                assert!(input < id, "node #{id} depends on later node #{input}");
            }
        }
        assert_eq!(plan.root(), plan.len() - 1);
    }

    #[test]
    fn accuracy_annotations_follow_the_operators() {
        let q = Query::table("R").project(&["A"]).approx_conf("P", 0.2, 0.1);
        let plan = LogicalPlan::lower(&q).unwrap();
        assert!(matches!(
            plan.node(plan.root()).accuracy,
            Accuracy::Fpras { epsilon, delta } if epsilon == 0.2 && delta == 0.1
        ));

        let q = Query::table("R").approx_select(
            vec![ConfTerm::new("P1", ["A"])],
            Predicate::ge(Expr::attr("P1"), Expr::konst(0.5)),
            0.05,
            0.02,
        );
        let plan = LogicalPlan::lower(&q).unwrap();
        assert!(matches!(
            plan.node(plan.root()).accuracy,
            Accuracy::ApproxSelect { epsilon0, delta } if epsilon0 == 0.05 && delta == 0.02
        ));
    }

    #[test]
    fn invalid_parameters_are_rejected_at_lowering() {
        let q = Query::table("R").approx_conf("P", 0.0, 0.1);
        assert!(matches!(
            LogicalPlan::lower(&q),
            Err(AlgebraError::InvalidParameter(_))
        ));
        let q = Query::table("R").approx_select(
            vec![ConfTerm::new("P1", ["A"]), ConfTerm::new("P1", ["B"])],
            Predicate::ge(Expr::attr("P1"), Expr::konst(0.5)),
            0.05,
            0.02,
        );
        assert!(matches!(
            LogicalPlan::lower(&q),
            Err(AlgebraError::Invariant(_))
        ));
    }

    #[test]
    fn subplan_digests_are_content_addressed_across_plans() {
        // The same sub-query appearing in two different plans gets the same
        // digest; distinct sub-queries get distinct digests.
        let a = LogicalPlan::lower(&parse_query("conf(project[A](repairkey[ @ W](R)))").unwrap())
            .unwrap();
        let b = LogicalPlan::lower(&parse_query("poss(project[A](repairkey[ @ W](R)))").unwrap())
            .unwrap();
        let da = a.subplan_digests();
        let db = b.subplan_digests();
        assert_eq!(da.len(), a.len());
        // scan, repair-key and project agree between the plans…
        assert_eq!(da[0], db[0]);
        assert_eq!(da[1], db[1]);
        assert_eq!(da[2], db[2]);
        // …while the differing roots do not.
        assert_ne!(da[3], db[3]);
        // Digests are unique within a plan (labels are the CSE keys).
        let mut sorted = da.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), da.len());
    }

    #[test]
    fn subplan_footprints_collect_scans() {
        let plan = LogicalPlan::lower(
            &parse_query("conf(join(project[A](R), project[A](join(S, R))))").unwrap(),
        )
        .unwrap();
        let footprints = plan.subplan_footprints();
        // The root sees every scanned relation.
        let root_fp = &footprints[plan.root()];
        assert!(root_fp.contains("R") && root_fp.contains("S"));
        assert_eq!(root_fp.len(), 2);
        // Scan nodes see exactly themselves.
        for (id, node) in plan.nodes().iter().enumerate() {
            if let LogicalOp::Scan { relation } = &node.op {
                assert_eq!(footprints[id].iter().collect::<Vec<_>>(), vec![relation]);
            }
        }
    }

    #[test]
    fn display_renders_every_node() {
        let q = parse_query("conf(project[A](repairkey[ @ W](R)))").unwrap();
        let plan = LogicalPlan::lower(&q).unwrap();
        let text = plan.to_string();
        for name in ["scan", "repair-key", "project", "conf"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn validated_lowering_checks_the_catalog() {
        let mut catalog = Catalog::new();
        catalog.add("R", pdb::Schema::new(["A", "W"]).unwrap(), true);
        let good = parse_query("project[A](repairkey[ @ W](R))").unwrap();
        assert!(LogicalPlan::lower_validated(&good, &catalog).is_ok());
        let bad = parse_query("project[Missing](R)").unwrap();
        assert!(LogicalPlan::lower_validated(&bad, &catalog).is_err());
        let unknown = parse_query("project[A](Nope)").unwrap();
        assert!(LogicalPlan::lower_validated(&unknown, &catalog).is_err());
    }
}
