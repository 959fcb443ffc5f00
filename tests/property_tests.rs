//! Property-based tests for the core invariants of the reproduction:
//!
//! * **Transpiler soundness (Theorem 5.7)**: on arbitrary small graph
//!   instances, the transpiled SQL query over the SDT-image of the graph is
//!   table-equivalent to the Cypher query on the graph.
//! * **Table equivalence (Definition 4.4)** is reflexive, symmetric, and
//!   invariant under column and row permutation.
//! * **Transformer application** commutes with the counterexample lifting
//!   (SDT followed by lift followed by SDT is a fixpoint).
//!
//! Graph instances and Cypher queries are generated by the shared
//! `graphiti-testkit` strategies, and soundness is phrased through its
//! differential oracle, so these tests and the testkit's own property tests
//! share one source of truth for fixtures and generators.

use graphiti_common::Value;
use graphiti_core::{infer_sdt, lift_to_graph};
use graphiti_relational::Table;
use graphiti_testkit::{arb_cypher, arb_instance, differential_oracle, fixtures};
use graphiti_transformer::apply_to_graph;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 5.7 (soundness of transpilation), checked empirically on
    /// random instances for the shared battery of featherweight queries.
    #[test]
    fn transpilation_is_sound_on_random_graphs(
        graph in arb_instance(&fixtures::emp::schema(), 4, 8),
        qidx in 0usize..fixtures::emp::QUERIES.len(),
    ) {
        let schema = fixtures::emp::schema();
        let query = fixtures::emp::QUERIES[qidx];
        let result = differential_oracle(&schema, &graph, query);
        prop_assert!(result.is_ok(), "{}", result.err().map(|e| e.to_string()).unwrap_or_default());
    }

    /// The same soundness property on randomly *generated* queries over
    /// the two-hop biomedical schema (the testkit's own property tests
    /// cover the EMP schema).
    #[test]
    fn transpilation_is_sound_on_random_biomed_queries(
        graph in arb_instance(&fixtures::biomed::schema(), 3, 6),
        query in arb_cypher(&fixtures::biomed::schema()),
    ) {
        let schema = fixtures::biomed::schema();
        let result = differential_oracle(&schema, &graph, &query);
        prop_assert!(result.is_ok(), "{}", result.err().map(|e| e.to_string()).unwrap_or_default());
    }

    /// The same soundness property over the social schema, whose
    /// `FOLLOWS` edges have `USR` at both ends.
    #[test]
    fn transpilation_is_sound_on_random_social_queries(
        graph in arb_instance(&fixtures::social::schema(), 4, 8),
        query in arb_cypher(&fixtures::social::schema()),
    ) {
        let schema = fixtures::social::schema();
        let result = differential_oracle(&schema, &graph, &query);
        prop_assert!(result.is_ok(), "{}", result.err().map(|e| e.to_string()).unwrap_or_default());
    }

    /// The SDT is invertible on its image: graph → induced tables → graph →
    /// induced tables is a fixpoint (used for counterexample lifting).
    #[test]
    fn sdt_lift_round_trip(graph in arb_instance(&fixtures::emp::schema(), 4, 8)) {
        let schema = fixtures::emp::schema();
        prop_assume!(graph.validate(&schema).is_ok());
        let ctx = infer_sdt(&schema).unwrap();
        let induced = apply_to_graph(&ctx.sdt, &schema, &graph, &ctx.induced_schema).unwrap();
        let lifted = lift_to_graph(&ctx, &induced).unwrap();
        prop_assert!(lifted.validate(&schema).is_ok());
        let induced_again = apply_to_graph(&ctx.sdt, &schema, &lifted, &ctx.induced_schema).unwrap();
        for rel in &ctx.induced_schema.relations {
            let a = induced.table(rel.name.as_str()).unwrap();
            let b = induced_again.table(rel.name.as_str()).unwrap();
            prop_assert!(a.equivalent(b), "table {} changed by the round trip", rel.name);
        }
    }

    /// Definition 4.4: table equivalence is invariant under row and column
    /// permutation, and sensitive to multiplicity changes.
    #[test]
    fn table_equivalence_properties(
        rows in proptest::collection::vec(proptest::collection::vec(0i64..4, 3), 0..6),
        row_seed in any::<u64>(),
    ) {
        let to_table = |rows: &[Vec<i64>], col_perm: [usize; 3]| -> Table {
            let mut t = Table::new(["a", "b", "c"]);
            for r in rows {
                t.push_row(col_perm.iter().map(|&i| Value::Int(r[i])).collect());
            }
            t
        };
        let original = to_table(&rows, [0, 1, 2]);
        // Row permutation (rotate by seed) + column permutation.
        let mut rotated = rows.clone();
        if !rotated.is_empty() {
            let shift = (row_seed as usize) % rotated.len();
            rotated.rotate_left(shift);
        }
        let permuted = to_table(&rotated, [2, 0, 1]);
        prop_assert!(original.equivalent(&original));
        prop_assert!(original.equivalent(&permuted));
        prop_assert!(permuted.equivalent(&original));
        // Adding a duplicate of an existing row breaks equivalence.
        if let Some(first) = rows.first() {
            let mut extended = rows.clone();
            extended.push(first.clone());
            let bigger = to_table(&extended, [0, 1, 2]);
            prop_assert!(!original.equivalent(&bigger));
        }
    }
}
