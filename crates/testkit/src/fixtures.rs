//! Shared schemas, instances, and query batteries.
//!
//! Two scenarios cover the shapes the pipeline cares about:
//!
//! * [`emp`] — the EMP/DEPT/WORK_AT employee scenario used throughout the
//!   workspace's unit tests: two node types, one edge type, and a query
//!   battery exercising every Featherweight Cypher construct the
//!   transpiler supports.
//! * [`biomed`] — the paper's Section 2 motivating scenario
//!   (CONCEPT/PA/SENTENCE with CS and SP edges), including the Figure 3a
//!   instance on which the buggy translation of Figure 4 is refuted.
//! * [`social`] — users who post pictures and follow each other: its
//!   `FOLLOWS` edge has the same label at both ends, so a pattern's
//!   variables can meet themselves (`(n)-[e]->(n)`, self-loops, cycles).

/// The EMP/DEPT/WORK_AT employee scenario.
pub mod emp {
    use graphiti_common::Value;
    use graphiti_graph::{EdgeType, GraphInstance, GraphSchema, NodeType};

    /// Schema: `EMP(id, ename)`, `DEPT(dnum, dname)`,
    /// `WORK_AT(wid): EMP -> DEPT`.
    pub fn schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("EMP", ["id", "ename"]))
            .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
            .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
    }

    /// A small deterministic instance: three employees, two departments,
    /// one employee without a department, and one shared department name.
    pub fn graph() -> GraphInstance {
        let mut g = GraphInstance::new();
        let ada = g.add_node("EMP", [("id", Value::Int(1)), ("ename", Value::str("Ada"))]);
        let bob = g.add_node("EMP", [("id", Value::Int(2)), ("ename", Value::str("Bob"))]);
        let _cy = g.add_node("EMP", [("id", Value::Int(3)), ("ename", Value::str("Cy"))]);
        let cs = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
        let ee = g.add_node("DEPT", [("dnum", Value::Int(2)), ("dname", Value::str("CS"))]);
        g.add_edge("WORK_AT", ada, cs, [("wid", Value::Int(10))]);
        g.add_edge("WORK_AT", bob, ee, [("wid", Value::Int(11))]);
        g
    }

    /// Featherweight Cypher queries that are in the transpiler's fragment,
    /// one per supported construct (plain match, traversal, aggregation,
    /// filtering, `OPTIONAL MATCH`, `EXISTS`, `Count(*)`, self-join).
    pub const QUERIES: &[&str] = &[
        "MATCH (n:EMP) RETURN n.ename AS name, n.id AS id",
        "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.ename AS name, m.dname AS dept",
        "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS dept, Count(n) AS headcount",
        "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WHERE n.id > 0 AND m.dnum = 1 RETURN n.id AS id",
        "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) \
         RETURN n.id AS id, m.dnum AS dept",
        "MATCH (m:DEPT) WHERE EXISTS ((n:EMP)-[e:WORK_AT]->(m:DEPT)) RETURN m.dname AS dept",
        "MATCH (n:EMP) RETURN Count(*) AS total",
        "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) MATCH (n2:EMP)-[e2:WORK_AT]->(m:DEPT) \
         WHERE n.id < n2.id RETURN n.id AS a, n2.id AS b",
        // ORDER BY keys end in the unique `id` so the expected order is
        // total and the oracle's ordered comparison is well-defined.
        "MATCH (n:EMP) RETURN n.id AS id ORDER BY id",
        "MATCH (n:EMP) RETURN n.ename AS name, n.id AS id ORDER BY name, id",
    ];
}

/// The paper's Section 2 biomedical scenario.
pub mod biomed {
    use graphiti_common::Value;
    use graphiti_graph::{EdgeType, GraphInstance, GraphSchema, NodeType};

    /// Schema of Figure 2a: concepts, predication assertions, and
    /// sentences, linked by CS (concept-to-assertion) and SP
    /// (assertion-to-sentence) edges.
    pub fn schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("CONCEPT", ["CID", "Name"]))
            .with_node(NodeType::new("PA", ["PID", "PCSID"]))
            .with_node(NodeType::new("SENTENCE", ["SID", "PMID"]))
            .with_edge(EdgeType::new("CS", "CONCEPT", "PA", ["CSEID", "CSID"]))
            .with_edge(EdgeType::new("SP", "PA", "SENTENCE", ["SPID", "SPSID"]))
    }

    /// The Figure 3a instance: Atropine appears in two predication
    /// assertions that both occur in sentence 0, so the co-occurrence count
    /// of the motivating example is 2, not 1.
    pub fn figure_3a_graph() -> GraphInstance {
        let mut g = GraphInstance::new();
        let atropine =
            g.add_node("CONCEPT", [("CID", Value::Int(1)), ("Name", Value::str("Atropine"))]);
        let _aspirin =
            g.add_node("CONCEPT", [("CID", Value::Int(2)), ("Name", Value::str("Aspirin"))]);
        let pa0 = g.add_node("PA", [("PID", Value::Int(0)), ("PCSID", Value::Int(0))]);
        let pa1 = g.add_node("PA", [("PID", Value::Int(1)), ("PCSID", Value::Int(1))]);
        let s0 = g.add_node("SENTENCE", [("SID", Value::Int(0)), ("PMID", Value::Int(0))]);
        let _s1 = g.add_node("SENTENCE", [("SID", Value::Int(1)), ("PMID", Value::Int(0))]);
        g.add_edge("CS", atropine, pa0, [("CSEID", Value::Int(0)), ("CSID", Value::Int(0))]);
        g.add_edge("CS", atropine, pa1, [("CSEID", Value::Int(1)), ("CSID", Value::Int(1))]);
        g.add_edge("SP", pa0, s0, [("SPID", Value::Int(0)), ("SPSID", Value::Int(0))]);
        g.add_edge("SP", pa1, s0, [("SPID", Value::Int(1)), ("SPSID", Value::Int(0))]);
        g
    }

    /// In-fragment queries over the biomedical schema, exercising two-hop
    /// traversals and aggregation over them.
    pub const QUERIES: &[&str] = &[
        "MATCH (c:CONCEPT) RETURN c.Name AS name",
        "MATCH (c:CONCEPT)-[e:CS]->(p:PA) RETURN c.CID AS cid, p.PID AS pid",
        "MATCH (c:CONCEPT)-[e:CS]->(p:PA) RETURN c.Name AS name, Count(p) AS assertions",
        "MATCH (p:PA)-[e:SP]->(s:SENTENCE) WHERE s.PMID = 0 RETURN p.PID AS pid",
        "MATCH (c:CONCEPT) OPTIONAL MATCH (c:CONCEPT)-[e:CS]->(p:PA) \
         RETURN c.CID AS cid, p.PID AS pid",
        "MATCH (s:SENTENCE) WHERE EXISTS ((p:PA)-[e:SP]->(s:SENTENCE)) RETURN s.SID AS sid",
    ];
}

/// The social domain the serving benchmark queries.
pub mod social {
    use graphiti_graph::{EdgeType, GraphSchema, NodeType};

    /// Schema: `USR(UsrId, UsrName)`, `PIC(PicId, PicSize)`,
    /// `FOLLOWS(FId): USR -> USR`, `POSTED(PostId, PostDate): USR -> PIC`.
    pub fn schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("USR", ["UsrId", "UsrName"]))
            .with_node(NodeType::new("PIC", ["PicId", "PicSize"]))
            .with_edge(EdgeType::new("FOLLOWS", "USR", "USR", ["FId"]))
            .with_edge(EdgeType::new("POSTED", "USR", "PIC", ["PostId", "PostDate"]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_instances_are_schema_valid() {
        assert!(emp::graph().validate(&emp::schema()).is_ok());
        assert!(biomed::figure_3a_graph().validate(&biomed::schema()).is_ok());
    }

    #[test]
    fn fixture_queries_parse() {
        for q in emp::QUERIES.iter().chain(biomed::QUERIES) {
            graphiti_cypher::parse_query(q).unwrap_or_else(|e| panic!("`{q}` failed: {e}"));
        }
    }
}
