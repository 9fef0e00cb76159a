//! Graphviz (DOT) export of system evolutions.
//!
//! The paper's figures are drawings of evolution DAGs: elements as nodes,
//! update/fork/join transitions as arrows, annotated with version vectors
//! (Figure 1), causal histories (Section 2) or version stamps (Figure 4).
//! This module regenerates such drawings from any [`Trace`] and any
//! [`Mechanism`], so `dot -Tpdf` can render the reproduction's counterpart
//! of each figure.
//!
//! ```
//! use vstamp_sim::{figure4, viz};
//! use vstamp_core::VersionStampMechanism;
//!
//! let scenario = figure4();
//! let dot = viz::evolution_dot(VersionStampMechanism::reducing(), &scenario.trace, "figure4");
//! assert!(dot.starts_with("digraph figure4"));
//! ```

use core::fmt::Debug;
use std::collections::BTreeMap;

use vstamp_core::{Applied, Configuration, ElementId, Mechanism, Trace};

/// One node of the evolution DAG: an element that existed at some point in
/// the run, labelled with its payload as rendered by the mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolutionNode {
    /// The element identifier.
    pub id: ElementId,
    /// Rendered payload (stamp, vector, causal history, …).
    pub label: String,
    /// Whether the element is still part of the final frontier.
    pub live: bool,
}

/// One edge of the evolution DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvolutionEdge {
    /// The element consumed by the operation.
    pub from: ElementId,
    /// The element produced by the operation.
    pub to: ElementId,
    /// The kind of operation ("update", "fork" or "join").
    pub kind: &'static str,
}

/// The full evolution DAG of a trace under one mechanism.
#[derive(Debug, Clone, Default)]
pub struct EvolutionGraph {
    /// Every element that ever existed, in creation order.
    pub nodes: Vec<EvolutionNode>,
    /// Lineage edges.
    pub edges: Vec<EvolutionEdge>,
}

impl EvolutionGraph {
    /// Number of elements that ever existed.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of lineage edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The nodes of the final frontier.
    #[must_use]
    pub fn frontier(&self) -> Vec<&EvolutionNode> {
        self.nodes.iter().filter(|n| n.live).collect()
    }
}

/// Replays `trace` against `mechanism` and records the full evolution DAG,
/// labelling every element with the mechanism's `Debug` rendering of its
/// payload.
pub fn evolution_graph<M>(mechanism: M, trace: &Trace) -> EvolutionGraph
where
    M: Mechanism,
    M::Element: Debug,
{
    let mut config = Configuration::new(mechanism);
    let mut labels: BTreeMap<ElementId, String> = BTreeMap::new();
    let root = config.ids()[0];
    labels.insert(root, format!("{:?}", config.get(root).expect("initial element")));

    let mut edges = Vec::new();
    for op in trace {
        let inputs = op.inputs();
        let applied = config.apply(*op).expect("trace replays cleanly");
        for output in applied.outputs() {
            labels
                .insert(output, format!("{:?}", config.get(output).expect("just-created element")));
            for &input in &inputs {
                edges.push(EvolutionEdge { from: input, to: output, kind: op.kind() });
            }
        }
        // joins and forks both covered: Applied::outputs() yields 1 or 2 ids
        let _ = &applied;
        debug_assert!(matches!(
            applied,
            Applied::Updated(_) | Applied::Forked(_, _) | Applied::Joined(_)
        ));
    }

    let nodes = labels
        .into_iter()
        .map(|(id, label)| EvolutionNode { id, label, live: config.contains(id) })
        .collect();
    EvolutionGraph { nodes, edges }
}

fn escape(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the evolution of `trace` under `mechanism` as a Graphviz DOT
/// document named `graph_name`. Live frontier elements are drawn with a
/// double border, update edges are bold, fork edges solid and join edges
/// dashed.
pub fn evolution_dot<M>(mechanism: M, trace: &Trace, graph_name: &str) -> String
where
    M: Mechanism,
    M::Element: Debug,
{
    let graph = evolution_graph(mechanism, trace);
    let mut out = String::new();
    out.push_str(&format!("digraph {graph_name} {{\n"));
    out.push_str("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n");
    for node in &graph.nodes {
        let peripheries = if node.live { 2 } else { 1 };
        out.push_str(&format!(
            "  \"{}\" [label=\"{}\\n{}\", peripheries={}];\n",
            node.id,
            node.id,
            escape(&node.label),
            peripheries
        ));
    }
    for edge in &graph.edges {
        let style = match edge.kind {
            "update" => "bold",
            "join" => "dashed",
            _ => "solid",
        };
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}\", style={}];\n",
            edge.from, edge.to, edge.kind, style
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{figure1, figure2};
    use vstamp_core::causal::CausalMechanism;
    use vstamp_core::VersionStampMechanism;

    #[test]
    fn graph_counts_match_the_trace_structure() {
        let scenario = figure2();
        let graph = evolution_graph(VersionStampMechanism::reducing(), &scenario.trace);
        // one node per element ever created: initial + outputs of every op
        let expected_nodes: usize = 1 + scenario
            .trace
            .iter()
            .map(|op| match op {
                vstamp_core::Operation::Fork(_) => 2,
                _ => 1,
            })
            .sum::<usize>();
        assert_eq!(graph.node_count(), expected_nodes);
        // every operation contributes inputs × outputs edges
        let expected_edges: usize = scenario
            .trace
            .iter()
            .map(|op| match op {
                vstamp_core::Operation::Fork(_) => 2,
                vstamp_core::Operation::Join(_, _) => 2,
                vstamp_core::Operation::Update(_) => 1,
            })
            .sum();
        assert_eq!(graph.edge_count(), expected_edges);
        // the final frontier of Figure 2 has three elements
        assert_eq!(graph.frontier().len(), 3);
    }

    #[test]
    fn dot_output_is_well_formed_for_every_mechanism() {
        let scenario = figure1();
        for dot in [
            evolution_dot(VersionStampMechanism::reducing(), &scenario.trace, "fig1_stamps"),
            evolution_dot(CausalMechanism::new(), &scenario.trace, "fig1_causal"),
        ] {
            assert!(dot.starts_with("digraph "));
            assert!(dot.trim_end().ends_with('}'));
            assert_eq!(dot.matches("->").count(), {
                let graph = evolution_graph(VersionStampMechanism::reducing(), &scenario.trace);
                graph.edge_count()
            });
            assert!(dot.contains("peripheries=2"), "final frontier must be highlighted");
            assert!(dot.contains("style=dashed"), "joins must be rendered dashed");
            assert!(dot.contains("style=bold"), "updates must be rendered bold");
        }
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn operation_lineage_is_recorded() {
        let scenario = figure1();
        let graph = evolution_graph(VersionStampMechanism::reducing(), &scenario.trace);
        // every edge points from an earlier element to a later one
        for edge in &graph.edges {
            assert!(edge.from.raw() < edge.to.raw(), "lineage must move forward: {edge:?}");
        }
        // every non-root node has at least one incoming edge
        for node in &graph.nodes {
            if node.id.raw() == 0 {
                continue;
            }
            assert!(graph.edges.iter().any(|e| e.to == node.id), "node {} has no lineage", node.id);
        }
    }
}
