//! Immutable, cheaply-shareable database snapshots.
//!
//! A [`Snapshot`] freezes one property graph together with everything a
//! query service needs to answer both Cypher and SQL traffic against it:
//! the validated [`GraphInstance`] (adjacency indexes included), the
//! inferred [`SdtContext`], the SDT-image [`RelInstance`] the transpiler
//! targets, and any number of additional named relational instances (e.g.
//! a benchmark's user-transformed target database).
//!
//! Snapshots are handed out as `Arc<Snapshot>`: cloning a handle is a
//! reference-count bump, and every contained type is plain owned data
//! (`String`s, `Vec`s, maps, interned `Arc<str>` values), so a snapshot is
//! `Send + Sync` and can back any number of worker threads without
//! locking.

use graphiti_common::Result;
use graphiti_core::{infer_sdt, SdtContext};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_relational::{ColumnInstance, RelInstance};
use graphiti_transformer::apply_to_graph;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The shared map of extra named row instances carried by a snapshot.
pub type SharedExtras = Arc<BTreeMap<String, RelInstance>>;
/// The shared map of the extra instances' columnar images.
pub type SharedColumnarExtras = Arc<BTreeMap<String, ColumnInstance>>;

/// The SQL-side evaluation target of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SqlTarget {
    /// The SDT-image of the frozen graph (what transpiled queries run on).
    Induced,
    /// One of the extra named instances registered at freeze time.
    Named(String),
}

impl std::fmt::Display for SqlTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlTarget::Induced => f.write_str("induced"),
            SqlTarget::Named(n) => write!(f, "named:{n}"),
        }
    }
}

/// A frozen, validated, query-ready database state.
///
/// Every relational instance is materialized **twice** at freeze time: the
/// row-oriented [`RelInstance`] (plan compilation, subquery re-entry, the
/// row-at-a-time oracle path) and its columnar image
/// ([`ColumnInstance`]) that the vectorized executor scans — so every
/// batch query starts from cache-friendly typed columns without any
/// per-query conversion.
#[derive(Debug)]
pub struct Snapshot {
    // The schema, graph, and SDT context sit behind `Arc`s so successive
    // MVCC generations published by a writable store share them: a
    // data-only commit re-publishes these as reference-count bumps.  The
    // same goes for the extra named instances, which a store never
    // mutates; the induced images are per-generation values whose
    // *tables* share untouched payloads internally (see
    // [`RelInstance`]'s copy-on-write tables and [`ColumnTable`]'s
    // `Arc`-shared columns).
    schema: Arc<GraphSchema>,
    graph: Arc<GraphInstance>,
    ctx: Arc<SdtContext>,
    induced: RelInstance,
    induced_columnar: ColumnInstance,
    extra: Arc<BTreeMap<String, RelInstance>>,
    extra_columnar: Arc<BTreeMap<String, ColumnInstance>>,
}

impl Snapshot {
    /// Validates `graph` against `schema`, infers the SDT, materializes the
    /// induced relational instance, and freezes everything into a shared
    /// snapshot.
    pub fn freeze(schema: GraphSchema, graph: GraphInstance) -> Result<Arc<Snapshot>> {
        Snapshot::freeze_with(schema, graph, [])
    }

    /// [`Snapshot::freeze`] plus additional named relational instances that
    /// SQL batch queries can target via [`SqlTarget::Named`].
    pub fn freeze_with(
        schema: GraphSchema,
        graph: GraphInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
    ) -> Result<Arc<Snapshot>> {
        graph.validate(&schema)?;
        let ctx = infer_sdt(&schema)?;
        let induced = apply_to_graph(&ctx.sdt, &schema, &graph, &ctx.induced_schema)?;
        let extra: BTreeMap<String, RelInstance> = extra.into_iter().collect();
        let induced_columnar = ColumnInstance::from_rel(&induced);
        let extra_columnar =
            extra.iter().map(|(k, v)| (k.clone(), ColumnInstance::from_rel(v))).collect();
        Ok(Arc::new(Snapshot {
            schema: Arc::new(schema),
            graph: Arc::new(graph),
            ctx: Arc::new(ctx),
            induced,
            induced_columnar,
            extra: Arc::new(extra),
            extra_columnar: Arc::new(extra_columnar),
        }))
    }

    /// Assembles a snapshot from already-computed parts (e.g. a benchmark
    /// harness that built the databases itself).  The caller vouches that
    /// `induced` really is the `ctx.sdt`-image of `graph`.
    pub fn from_parts(
        schema: GraphSchema,
        graph: GraphInstance,
        ctx: SdtContext,
        induced: RelInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
    ) -> Arc<Snapshot> {
        let extra: BTreeMap<String, RelInstance> = extra.into_iter().collect();
        let induced_columnar = ColumnInstance::from_rel(&induced);
        let extra_columnar =
            extra.iter().map(|(k, v)| (k.clone(), ColumnInstance::from_rel(v))).collect();
        Arc::new(Snapshot {
            schema: Arc::new(schema),
            graph: Arc::new(graph),
            ctx: Arc::new(ctx),
            induced,
            induced_columnar,
            extra: Arc::new(extra),
            extra_columnar: Arc::new(extra_columnar),
        })
    }

    /// Assembles a snapshot from fully-precomputed parts, **including** the
    /// columnar images — nothing is validated, converted, or copied.  This
    /// is the incremental re-freeze publication point: a writable store's
    /// commit path patches the previous generation's images with per-table
    /// row deltas and hands them here, while the schema, SDT context, and
    /// extra maps ride along as `Arc` bumps.  The caller vouches that
    /// `induced_columnar` is the columnar image of `induced` and that
    /// `induced` is the `ctx.sdt`-image of `graph`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts_with_columnar(
        schema: Arc<GraphSchema>,
        graph: Arc<GraphInstance>,
        ctx: Arc<SdtContext>,
        induced: RelInstance,
        induced_columnar: ColumnInstance,
        extra: SharedExtras,
        extra_columnar: SharedColumnarExtras,
    ) -> Arc<Snapshot> {
        Arc::new(Snapshot { schema, graph, ctx, induced, induced_columnar, extra, extra_columnar })
    }

    /// The shared extra-instance maps (row and columnar), for publishing a
    /// derived generation via [`Snapshot::from_parts_with_columnar`].
    pub fn extra_parts(&self) -> (SharedExtras, SharedColumnarExtras) {
        (Arc::clone(&self.extra), Arc::clone(&self.extra_columnar))
    }

    /// The shared schema handle.
    pub fn schema_arc(&self) -> Arc<GraphSchema> {
        Arc::clone(&self.schema)
    }

    /// The shared graph handle (what a derived generation republishes when
    /// the graph itself is reused).
    pub fn graph_arc(&self) -> Arc<GraphInstance> {
        Arc::clone(&self.graph)
    }

    /// The shared SDT-context handle.
    pub fn ctx_arc(&self) -> Arc<SdtContext> {
        Arc::clone(&self.ctx)
    }

    /// The columnar image of the induced instance.
    pub fn induced_columnar(&self) -> &ColumnInstance {
        &self.induced_columnar
    }

    /// The graph schema.
    pub fn schema(&self) -> &GraphSchema {
        &self.schema
    }

    /// The frozen graph instance.
    pub fn graph(&self) -> &GraphInstance {
        &self.graph
    }

    /// The inferred SDT context (induced schema + standard transformer).
    pub fn ctx(&self) -> &SdtContext {
        &self.ctx
    }

    /// The SDT-image relational instance.
    pub fn induced(&self) -> &RelInstance {
        &self.induced
    }

    /// Resolves a SQL target to its relational instance.
    pub fn sql_instance(&self, target: &SqlTarget) -> Result<&RelInstance> {
        match target {
            SqlTarget::Induced => Ok(&self.induced),
            SqlTarget::Named(name) => self.extra.get(name).ok_or_else(|| {
                graphiti_common::Error::eval(format!("unknown snapshot target `{name}`"))
            }),
        }
    }

    /// Resolves a SQL target to its columnar image (built at freeze time;
    /// the vectorized executor scans these).
    pub fn sql_columnar(&self, target: &SqlTarget) -> Result<&ColumnInstance> {
        match target {
            SqlTarget::Induced => Ok(&self.induced_columnar),
            SqlTarget::Named(name) => self.extra_columnar.get(name).ok_or_else(|| {
                graphiti_common::Error::eval(format!("unknown snapshot target `{name}`"))
            }),
        }
    }

    /// Names of the extra registered instances.
    pub fn extra_targets(&self) -> impl Iterator<Item = &str> {
        self.extra.keys().map(String::as_str)
    }
}

/// The layouts an engine's cached SQL plans compile against: the graph
/// schema, which fixes every induced table's columns, and the extra
/// instances' table columns.  Plans are keyed by query text and target,
/// not data, so they stay valid on every snapshot with the same layout.
#[derive(Debug)]
pub(crate) struct Layout {
    schema: Arc<GraphSchema>,
    extra: SharedExtras,
}

impl Layout {
    /// The layout of `snapshot`.
    pub(crate) fn of(snapshot: &Snapshot) -> Layout {
        Layout { schema: Arc::clone(&snapshot.schema), extra: Arc::clone(&snapshot.extra) }
    }

    /// `Ok` when plans compiled against this layout are valid on
    /// `snapshot`.  Every generation a store publishes shares both
    /// handles, so the check is two pointer comparisons; a snapshot
    /// frozen separately is compared by value.
    pub(crate) fn check(&self, snapshot: &Snapshot) -> Result<()> {
        let same_schema =
            Arc::ptr_eq(&self.schema, &snapshot.schema) || self.schema == snapshot.schema;
        let same_extra = Arc::ptr_eq(&self.extra, &snapshot.extra)
            || extra_columns(&self.extra).eq(extra_columns(&snapshot.extra));
        if same_schema && same_extra {
            Ok(())
        } else {
            Err(graphiti_common::Error::schema(
                "the snapshot's layout differs from the one this engine's plans compile against",
            ))
        }
    }
}

/// Every extra table's columns, keyed by instance and table name.
fn extra_columns(
    extra: &BTreeMap<String, RelInstance>,
) -> impl Iterator<Item = (&String, &String, &Vec<String>)> {
    extra.iter().flat_map(|(name, instance)| {
        instance.tables().map(move |(t, table)| (name, t, &table.columns))
    })
}
