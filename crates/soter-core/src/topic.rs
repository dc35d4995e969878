//! Topics and the universe of values exchanged on them.
//!
//! Formally a topic is a pair `(e, v)` of a unique name `e ∈ T` and a value
//! `v ∈ V` (Sec. III-A of the paper).  As in the paper's formalisation, all
//! topics share the same value universe `V`, modelled here by the [`Value`]
//! enum, and communication between nodes is modelled through the globally
//! visible valuation of topics, modelled by [`TopicMap`].
//!
//! Two representations of a valuation coexist:
//!
//! * [`TopicMap`] — the owned, name-ordered map.  This is the public,
//!   construction-and-inspection view: tests build them, observers receive
//!   them, golden traces print them.
//! * the executor's *slot store* — a dense `Vec<Value>` indexed by
//!   [`TopicId`]s handed out by a [`TopicInterner`] built once per system.
//!   Nodes never see the store directly; they read through the borrowed,
//!   allocation-free [`TopicRead`] views ([`SlotView`], [`RenamedView`],
//!   [`SingleTopic`]) and publish through a [`TopicWriter`] into a scratch
//!   buffer the executor reuses across firings.  This is what makes the
//!   steady-state hot path allocation-free.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The name of a topic — an element of the universe `T` of topic names.
///
/// Topic names are cheap to clone (reference-counted) and ordered, so maps
/// keyed by them iterate deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TopicName(Arc<str>);

impl TopicName {
    /// Creates a topic name.
    pub fn new(name: impl AsRef<str>) -> Self {
        TopicName(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for TopicName {
    fn from(s: &str) -> Self {
        TopicName::new(s)
    }
}

impl From<String> for TopicName {
    fn from(s: String) -> Self {
        TopicName::new(s)
    }
}

impl Borrow<str> for TopicName {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for TopicName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for TopicName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<TopicName> for str {
    fn eq(&self, other: &TopicName) -> bool {
        self == other.as_str()
    }
}

impl fmt::Display for TopicName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The universe `V` of values that can be communicated on topics.
///
/// The variants cover the message types exchanged by the drone surveillance
/// stack of the case study (coordinates, kinematic state, waypoint paths,
/// battery charge, control commands) plus generic scalars for writing other
/// systems and tests.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// The default value of a freshly initialised topic.
    #[default]
    Unit,
    /// A boolean flag.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A floating-point scalar (e.g. a battery charge fraction).
    Float(f64),
    /// A 3-D vector (e.g. a `coord` target position or an acceleration
    /// command).
    Vector([f64; 3]),
    /// A kinematic state sample: position and velocity.
    State {
        /// Position in metres.
        position: [f64; 3],
        /// Velocity in metres per second.
        velocity: [f64; 3],
    },
    /// A sequence of waypoints (a motion plan).  Reference-counted so that
    /// republishing and reading a plan never copies the waypoint storage —
    /// plans flow through the executor hot path at controller rate.
    Path(Arc<[[f64; 3]]>),
    /// A free-form text value.
    Text(String),
}

impl Value {
    /// Creates a `Path` value from waypoints.
    pub fn path(waypoints: impl Into<Arc<[[f64; 3]]>>) -> Self {
        Value::Path(waypoints.into())
    }

    /// Returns the boolean payload, if this value is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the float payload, if this value is a `Float` (or an `Int`,
    /// widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the integer payload, if this value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the vector payload, if this value is a `Vector`.
    pub fn as_vector(&self) -> Option<[f64; 3]> {
        match self {
            Value::Vector(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns `(position, velocity)`, if this value is a `State`.
    pub fn as_state(&self) -> Option<([f64; 3], [f64; 3])> {
        match self {
            Value::State { position, velocity } => Some((*position, *velocity)),
            _ => None,
        }
    }

    /// Returns the waypoint list, if this value is a `Path`.
    pub fn as_path(&self) -> Option<&[[f64; 3]]> {
        match self {
            Value::Path(p) => Some(p.as_ref()),
            _ => None,
        }
    }

    /// Returns the text payload, if this value is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Returns `true` if this is the default `Unit` value (i.e. nothing has
    /// been published on the topic yet).
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }
}

/// Read access to a valuation of topics, as seen by a node or an oracle.
///
/// Implemented both by the owned [`TopicMap`] (tests, observers, direct
/// node stepping) and by the executor's borrowed views ([`SlotView`],
/// [`RenamedView`], [`SingleTopic`]), so node and oracle code is written
/// once against `&dyn TopicRead` and runs allocation-free inside the
/// executor.  A `&TopicMap` coerces to `&dyn TopicRead` at any call site.
pub trait TopicRead {
    /// Reads the value of a topic, if visible in this valuation.
    fn get(&self, topic: &str) -> Option<&Value>;

    /// Reads the value of a topic, substituting [`Value::Unit`] (the
    /// default topic value in the initial configuration) when absent.
    fn get_or_unit(&self, topic: &str) -> Value {
        self.get(topic).cloned().unwrap_or(Value::Unit)
    }

    /// Returns `true` if the valuation contains the topic.
    fn contains(&self, topic: &str) -> bool {
        self.get(topic).is_some()
    }
}

/// Dense index of an interned topic within a [`TopicInterner`] (and the
/// executor's slot store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(pub u32);

impl TopicId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interner over a system's declared topic names, built once at executor
/// construction: every declared topic gets a dense [`TopicId`] so the
/// global valuation can live in a flat `Vec<Value>` and per-node topic
/// lists compile to id lists.
///
/// Ids are assigned in sorted name order, so they are deterministic for a
/// given set of declarations.
#[derive(Debug, Clone, Default)]
pub struct TopicInterner {
    names: Vec<TopicName>,
}

impl TopicInterner {
    /// Builds an interner over the given names (duplicates are fine).
    pub fn new(names: impl IntoIterator<Item = TopicName>) -> Self {
        let mut names: Vec<TopicName> = names.into_iter().collect();
        names.sort();
        names.dedup();
        TopicInterner { names }
    }

    /// Resolves a name to its id, if the topic was declared.
    pub fn id(&self, name: &str) -> Option<TopicId> {
        self.names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| TopicId(i as u32))
    }

    /// The interned name of an id.
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from this interner.
    pub fn name(&self, id: TopicId) -> &TopicName {
        &self.names[id.index()]
    }

    /// Number of interned topics.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no topic is interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id (= sorted name) order.
    pub fn iter(&self) -> impl Iterator<Item = (TopicId, &TopicName)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (TopicId(i as u32), n))
    }
}

/// Whether two topic names are equal: lengths first, then, for names of
/// 8–24 bytes such as the fleet's `droneN/localPosition`, three
/// overlapping `u64` words instead of a `memcmp` call; other lengths use
/// slice equality.
#[inline]
fn same_topic(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let n = a.len();
    if n != b.len() {
        return false;
    }
    if !(8..=24).contains(&n) {
        return a == b;
    }
    // Words at 0, (n - 8) / 2 and n - 8 cover every byte for 8 <= n <= 24.
    let word = |s: &[u8], at: usize| u64::from_le_bytes(s[at..at + 8].try_into().expect("8 bytes"));
    let mid = (n - 8) / 2;
    (word(a, 0) ^ word(b, 0)) | (word(a, mid) ^ word(b, mid)) | (word(a, n - 8) ^ word(b, n - 8))
        == 0
}

/// The index of `topic` in `names`, scanning from `start` to the end and
/// then wrapping round to the front.  Nodes read and write in declaration
/// order, so a cursor one past the previous hit usually hits on the first
/// compare.  Equals the first-match scan whenever equal names sit at
/// interchangeable positions (equal names intern to one [`TopicId`]).
#[inline]
fn find_from(names: &[TopicName], start: usize, topic: &str) -> Option<usize> {
    let find = |names: &[TopicName]| names.iter().position(|n| same_topic(n.as_str(), topic));
    find(&names[start..])
        .map(|i| start + i)
        .or_else(|| find(&names[..start]))
}

/// A borrowed, allocation-free view of the executor's slot store,
/// restricted to one node's subscriptions — the `Topics[I(n)]` of the
/// AC-OR-SC-STEP rule as a view instead of a rebuilt map.
///
/// `names` and `ids` are the node's compiled subscription list (declaration
/// order, parallel slices); a topic outside the list is invisible, exactly
/// like the former `TopicMap::restrict` projection.  Subscribed topics that
/// were never published read as [`Value::Unit`], again matching `restrict`.
/// Names that compare equal must carry equal ids, as interned lists do.
#[derive(Debug, Clone)]
pub struct SlotView<'a> {
    names: &'a [TopicName],
    ids: &'a [TopicId],
    slots: &'a [Value],
    /// Where the next lookup starts: one past the previous hit.
    cursor: Cell<usize>,
}

impl<'a> SlotView<'a> {
    /// Creates a view of `slots` restricted to the `names`/`ids`
    /// subscription list.
    ///
    /// # Panics
    ///
    /// Panics if `names` and `ids` have different lengths.
    pub fn new(names: &'a [TopicName], ids: &'a [TopicId], slots: &'a [Value]) -> Self {
        assert_eq!(names.len(), ids.len(), "subscription lists out of sync");
        SlotView {
            names,
            ids,
            slots,
            cursor: Cell::new(0),
        }
    }
}

impl TopicRead for SlotView<'_> {
    fn get(&self, topic: &str) -> Option<&Value> {
        // Subscription lists are short (1-10 entries): a cursor scan beats
        // hashing and needs no sort order.
        let i = find_from(self.names, self.cursor.get(), topic)?;
        self.cursor.set(i + 1);
        Some(&self.slots[self.ids[i].index()])
    }
}

/// A view that exposes an inner [`TopicRead`] under different topic names:
/// reading `alias` returns the inner value of `canonical`.  This is how a
/// scoped (per-drone) node reads its unscoped topic names against the
/// global valuation without any per-firing map rebuilding.
#[derive(Clone, Copy)]
pub struct RenamedView<'a> {
    renames: &'a [(TopicName, TopicName)],
    inner: &'a dyn TopicRead,
}

impl<'a> RenamedView<'a> {
    /// Creates a renaming view over `(alias, canonical)` pairs.
    pub fn new(renames: &'a [(TopicName, TopicName)], inner: &'a dyn TopicRead) -> Self {
        RenamedView { renames, inner }
    }
}

impl TopicRead for RenamedView<'_> {
    fn get(&self, topic: &str) -> Option<&Value> {
        let (_, canonical) = self
            .renames
            .iter()
            .find(|(alias, _)| same_topic(alias.as_str(), topic))?;
        self.inner.get(canonical.as_str())
    }
}

/// A single-topic view — the cheapest possible [`TopicRead`], used by
/// oracle adapters that re-key one observation under another name.
#[derive(Debug, Clone, Copy)]
pub struct SingleTopic<'a> {
    name: &'a str,
    value: Option<&'a Value>,
}

impl<'a> SingleTopic<'a> {
    /// A view containing exactly `name` (when `value` is `Some`).
    pub fn new(name: &'a str, value: Option<&'a Value>) -> Self {
        SingleTopic { name, value }
    }
}

impl TopicRead for SingleTopic<'_> {
    fn get(&self, topic: &str) -> Option<&Value> {
        if topic == self.name {
            self.value
        } else {
            None
        }
    }
}

/// The write half of a node firing: collects `(declared-output index,
/// value)` pairs into a scratch buffer owned by the caller (the executor
/// reuses one buffer across all firings, so steady-state publishing
/// allocates nothing).
///
/// Publishing on a topic outside the declared output list panics — the
/// undeclared-publish check of `apply_outputs`, moved to the write site.
/// Like [`SlotView`], the writer resolves names with a cursor scan, so a
/// name declared twice may resolve to either index; the executor maps both
/// to the same interned slot.
pub struct TopicWriter<'a> {
    node: &'a str,
    now: Time,
    names: &'a [TopicName],
    entries: &'a mut Vec<(u32, Value)>,
    /// Where the next lookup starts: one past the previous hit.
    cursor: usize,
}

impl<'a> TopicWriter<'a> {
    /// Creates a writer for `node` firing at instant `now` over its
    /// declared output `names` (declaration order), appending into
    /// `entries`.
    pub fn new(
        node: &'a str,
        now: Time,
        names: &'a [TopicName],
        entries: &'a mut Vec<(u32, Value)>,
    ) -> Self {
        TopicWriter {
            node,
            now,
            names,
            entries,
            cursor: 0,
        }
    }

    /// Publishes a value.  Later writes to the same topic within one firing
    /// win, as with a map.
    ///
    /// # Panics
    ///
    /// Panics if `topic` is not among the node's declared outputs, naming
    /// the node, the topic and the firing instant so the offending firing
    /// can be located in a trace.
    pub fn insert(&mut self, topic: impl AsRef<str>, value: Value) {
        let topic = topic.as_ref();
        match find_from(self.names, self.cursor, topic) {
            Some(i) => {
                self.cursor = i + 1;
                self.entries.push((i as u32, value));
            }
            None => panic!(
                "node `{}` published on undeclared topic `{topic}` at {} \
                 (declared outputs: {:?})",
                self.node, self.now, self.names
            ),
        }
    }

    /// A writer over the same entry buffer but resolving against `names`
    /// instead — for wrappers whose inner node publishes under aliased
    /// names.  `names` must be index-aligned with this writer's declared
    /// list (entry `i` of either list names the same output).
    pub fn reindexed<'b>(&'b mut self, node: &'b str, names: &'b [TopicName]) -> TopicWriter<'b> {
        assert_eq!(
            names.len(),
            self.names.len(),
            "aliased output list must be index-aligned"
        );
        TopicWriter {
            node,
            now: self.now,
            names,
            entries: self.entries,
            cursor: 0,
        }
    }

    /// Number of values published so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A valuation of a set of topics: a map from topic names to values.
///
/// This is `Vals(X)` in the paper's notation.  Backed by a `BTreeMap` so the
/// iteration order (and therefore every downstream computation) is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TopicMap {
    values: BTreeMap<TopicName, Value>,
}

impl TopicMap {
    /// Creates an empty valuation.
    pub fn new() -> Self {
        TopicMap {
            values: BTreeMap::new(),
        }
    }

    /// Inserts (publishes) a value for a topic, returning the previous value
    /// if one was present.
    pub fn insert(&mut self, topic: impl Into<TopicName>, value: Value) -> Option<Value> {
        self.values.insert(topic.into(), value)
    }

    /// Reads the value of a topic, if present.
    pub fn get(&self, topic: &str) -> Option<&Value> {
        self.values.get(topic)
    }

    /// Reads the value of a topic, substituting `Value::Unit` (the default
    /// topic value in the initial configuration) when absent.
    pub fn get_or_unit(&self, topic: &str) -> Value {
        self.values.get(topic).cloned().unwrap_or(Value::Unit)
    }

    /// Returns `true` if the valuation contains the topic.
    pub fn contains(&self, topic: &str) -> bool {
        self.values.contains_key(topic)
    }

    /// Number of topics in the valuation.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the valuation is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Removes a topic from the valuation.
    pub fn remove(&mut self, topic: &str) -> Option<Value> {
        self.values.remove(topic)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&TopicName, &Value)> {
        self.values.iter()
    }

    /// Merges `other` into `self`, overwriting existing entries — this is
    /// the `out ∪ Topics[T \ dom(out)]` update of the AC-OR-SC-STEP rule.
    pub fn merge_from(&mut self, other: &TopicMap) {
        for (k, v) in other.iter() {
            self.values.insert(k.clone(), v.clone());
        }
    }

    /// Returns the restriction of this valuation to the given topic names —
    /// `Topics[I(n)]` in the semantics, the inputs visible to a node.
    ///
    /// The executor no longer calls this per firing (it reads through
    /// [`SlotView`]s); it remains the reference implementation of the
    /// projection, which the differential tests compare the views against.
    pub fn restrict<'a, I>(&self, topics: I) -> TopicMap
    where
        I: IntoIterator<Item = &'a TopicName>,
    {
        let mut out = TopicMap::new();
        for t in topics {
            out.insert(t.clone(), self.get_or_unit(t.as_str()));
        }
        out
    }
}

impl TopicRead for TopicMap {
    fn get(&self, topic: &str) -> Option<&Value> {
        TopicMap::get(self, topic)
    }

    fn get_or_unit(&self, topic: &str) -> Value {
        TopicMap::get_or_unit(self, topic)
    }

    fn contains(&self, topic: &str) -> bool {
        TopicMap::contains(self, topic)
    }
}

impl FromIterator<(TopicName, Value)> for TopicMap {
    fn from_iter<T: IntoIterator<Item = (TopicName, Value)>>(iter: T) -> Self {
        TopicMap {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<(TopicName, Value)> for TopicMap {
    fn extend<T: IntoIterator<Item = (TopicName, Value)>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_names_compare_by_content() {
        let a = TopicName::new("localPosition");
        let b: TopicName = "localPosition".into();
        let c: TopicName = String::from("targetWaypoint").into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "localPosition");
        assert_eq!(format!("{a}"), "localPosition");
        assert!(a == "localPosition" && a == *"localPosition");
    }

    #[test]
    fn value_accessors_return_expected_variants() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(
            Value::Vector([1.0, 2.0, 3.0]).as_vector(),
            Some([1.0, 2.0, 3.0])
        );
        let s = Value::State {
            position: [1.0; 3],
            velocity: [0.0; 3],
        };
        assert_eq!(s.as_state(), Some(([1.0; 3], [0.0; 3])));
        let p = Value::path(vec![[0.0; 3], [1.0; 3]]);
        assert_eq!(p.as_path().unwrap().len(), 2);
        assert_eq!(Value::Text("hi".into()).as_text(), Some("hi"));
        assert!(Value::Unit.is_unit());
        // Mismatched accessors return None.
        assert_eq!(Value::Bool(true).as_float(), None);
        assert_eq!(Value::Float(1.0).as_vector(), None);
    }

    #[test]
    fn path_values_share_storage_when_cloned() {
        let p = Value::path(vec![[1.0; 3]; 64]);
        let q = p.clone();
        let (Value::Path(a), Value::Path(b)) = (&p, &q) else {
            panic!("path values");
        };
        assert!(Arc::ptr_eq(a, b), "cloning a Path must not copy waypoints");
        assert_eq!(p, q);
    }

    #[test]
    fn topic_map_insert_get_remove() {
        let mut m = TopicMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a", Value::Int(1)), None);
        assert_eq!(m.insert("a", Value::Int(2)), Some(Value::Int(1)));
        assert_eq!(m.get("a"), Some(&Value::Int(2)));
        assert!(m.contains("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get_or_unit("missing"), Value::Unit);
        assert_eq!(m.remove("a"), Some(Value::Int(2)));
        assert!(m.is_empty());
    }

    #[test]
    fn merge_overwrites_existing_entries() {
        let mut a = TopicMap::new();
        a.insert("x", Value::Int(1));
        a.insert("y", Value::Int(2));
        let mut b = TopicMap::new();
        b.insert("y", Value::Int(20));
        b.insert("z", Value::Int(30));
        a.merge_from(&b);
        assert_eq!(a.get("x"), Some(&Value::Int(1)));
        assert_eq!(a.get("y"), Some(&Value::Int(20)));
        assert_eq!(a.get("z"), Some(&Value::Int(30)));
    }

    #[test]
    fn restrict_projects_and_defaults() {
        let mut m = TopicMap::new();
        m.insert("present", Value::Float(1.0));
        let names = [TopicName::new("present"), TopicName::new("absent")];
        let r = m.restrict(names.iter());
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("present"), Some(&Value::Float(1.0)));
        assert_eq!(r.get("absent"), Some(&Value::Unit));
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = TopicMap::new();
        m.insert("b", Value::Int(2));
        m.insert("a", Value::Int(1));
        m.insert("c", Value::Int(3));
        let names: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let m: TopicMap = [(TopicName::new("a"), Value::Int(1))].into_iter().collect();
        assert_eq!(m.len(), 1);
        let mut m2 = TopicMap::new();
        m2.extend([(TopicName::new("b"), Value::Int(2))]);
        assert!(m2.contains("b"));
    }

    #[test]
    fn interner_assigns_dense_sorted_ids() {
        let interner = TopicInterner::new(["b", "a", "c", "a"].into_iter().map(TopicName::new));
        assert_eq!(interner.len(), 3);
        assert!(!interner.is_empty());
        assert_eq!(interner.id("a"), Some(TopicId(0)));
        assert_eq!(interner.id("b"), Some(TopicId(1)));
        assert_eq!(interner.id("c"), Some(TopicId(2)));
        assert_eq!(interner.id("missing"), None);
        assert_eq!(interner.name(TopicId(1)).as_str(), "b");
        let ids: Vec<u32> = interner.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn slot_view_matches_restrict_semantics() {
        let interner = TopicInterner::new(
            ["state", "command", "other"]
                .into_iter()
                .map(TopicName::new),
        );
        let mut slots = vec![Value::Unit; interner.len()];
        slots[interner.id("state").unwrap().index()] = Value::Float(7.0);
        slots[interner.id("other").unwrap().index()] = Value::Int(9);
        let names = [TopicName::new("state"), TopicName::new("command")];
        let ids = [
            interner.id("state").unwrap(),
            interner.id("command").unwrap(),
        ];
        let view = SlotView::new(&names, &ids, &slots);
        // Subscribed and published: the value.
        assert_eq!(view.get("state"), Some(&Value::Float(7.0)));
        // Subscribed, never published: Unit — exactly what restrict inserts.
        assert_eq!(view.get("command"), Some(&Value::Unit));
        assert_eq!(view.get_or_unit("command"), Value::Unit);
        // Not subscribed: invisible even though it has a slot.
        assert_eq!(view.get("other"), None);
        assert!(!view.contains("other"));
        assert!(view.contains("state"));
    }

    #[test]
    fn renamed_view_translates_aliases() {
        let mut inner = TopicMap::new();
        inner.insert("drone0/in", Value::Float(7.0));
        inner.insert("drone1/in", Value::Float(-1.0));
        let renames = [(TopicName::new("in"), TopicName::new("drone0/in"))];
        let view = RenamedView::new(&renames, &inner);
        assert_eq!(view.get("in"), Some(&Value::Float(7.0)));
        // Canonical names are not visible through the view.
        assert_eq!(view.get("drone0/in"), None);
        assert_eq!(view.get("drone1/in"), None);
    }

    #[test]
    fn single_topic_view_exposes_one_name() {
        let v = Value::Float(3.0);
        let view = SingleTopic::new("localPosition", Some(&v));
        assert_eq!(view.get("localPosition"), Some(&Value::Float(3.0)));
        assert_eq!(view.get("other"), None);
        let empty = SingleTopic::new("localPosition", None);
        assert_eq!(empty.get("localPosition"), None);
    }

    #[test]
    fn writer_collects_declared_outputs() {
        let names = [TopicName::new("command"), TopicName::new("status")];
        let mut entries = Vec::new();
        let mut w = TopicWriter::new("ctrl", Time::ZERO, &names, &mut entries);
        assert!(w.is_empty());
        w.insert("status", Value::Bool(true));
        w.insert("command", Value::Float(1.0));
        w.insert("command", Value::Float(2.0));
        assert_eq!(w.len(), 3);
        assert_eq!(
            entries,
            vec![
                (1, Value::Bool(true)),
                (0, Value::Float(1.0)),
                (0, Value::Float(2.0)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "undeclared topic")]
    fn writer_rejects_undeclared_topics() {
        let names = [TopicName::new("command")];
        let mut entries = Vec::new();
        let mut w = TopicWriter::new("rogue", Time::ZERO, &names, &mut entries);
        w.insert("other", Value::Bool(true));
    }

    #[test]
    fn undeclared_publish_panics_with_the_same_message() {
        let names = [
            TopicName::new("drone0/command"),
            TopicName::new("drone0/status"),
        ];
        let mut entries = Vec::new();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w =
                TopicWriter::new("drone0/rogue", Time::from_millis(30), &names, &mut entries);
            // Leave the cursor at the end, so the miss wraps round.
            w.insert("drone0/status", Value::Bool(true));
            w.insert("drone0/other", Value::Bool(true));
        }))
        .expect_err("an undeclared publish must panic");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some(
                "node `drone0/rogue` published on undeclared topic `drone0/other` at \
                 0.030000s (declared outputs: [TopicName(\"drone0/command\"), \
                 TopicName(\"drone0/status\")])"
            )
        );
    }

    /// Names on both sides of every length the word compare treats
    /// specially (0, 1, 7, 8, 9, 16, 23, 24, 25 and 40 bytes), each with
    /// variants that differ only in the first, middle or last byte; fleet
    /// names sharing a prefix or a suffix; and non-ASCII names.
    fn name_pool() -> Vec<String> {
        let mut pool = Vec::new();
        for len in [0usize, 1, 7, 8, 9, 16, 23, 24, 25, 40] {
            let base: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
            for at in [0, len / 2, len.saturating_sub(1)] {
                let mut variant = base.clone();
                if let Some(b) = variant.get_mut(at) {
                    *b = b'Z';
                }
                pool.push(String::from_utf8(variant).unwrap());
            }
            pool.push(String::from_utf8(base).unwrap());
        }
        for d in 0..4 {
            for topic in [
                "localPosition",
                "localPositionX",
                "controlAction",
                "targetWaypoint",
            ] {
                pool.push(format!("drone{d}/{topic}"));
            }
        }
        pool.extend(
            [
                "localPosition",
                "δρόνος/θέση",
                "δρόνος/θέσι",
                "drone0/位置",
                "drone0/位罝",
            ]
            .map(String::from),
        );
        pool.sort();
        pool.dedup();
        pool
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A declared list drawn from the pool (duplicates allowed), and a
    /// query sequence over one view: declaration order, reverse order,
    /// declaration order twice (wrap-around), then random names from the
    /// whole pool (repeats and undeclared names).
    fn declared_and_queries(seed: u64) -> (Vec<TopicName>, Vec<String>) {
        let pool = name_pool();
        let mut rng = seed;
        let len = (splitmix(&mut rng) % 13) as usize;
        let declared: Vec<TopicName> = (0..len)
            .map(|_| TopicName::new(&pool[splitmix(&mut rng) as usize % pool.len()]))
            .collect();
        let in_order = declared.iter().map(|n| n.as_str().to_string());
        let mut queries: Vec<String> = in_order.clone().collect();
        queries.extend(in_order.clone().rev());
        queries.extend(in_order.clone().chain(in_order));
        queries.extend((0..24).map(|_| pool[splitmix(&mut rng) as usize % pool.len()].clone()));
        (declared, queries)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn views_and_writer_match_first_match_scans(seed in 0u64..u64::MAX) {
            let (declared, queries) = declared_and_queries(seed);
            let interner = TopicInterner::new(declared.iter().cloned());
            let ids: Vec<TopicId> = declared.iter().map(|n| interner.id(n.as_str()).unwrap()).collect();
            let slots: Vec<Value> = (0..interner.len()).map(|i| Value::Int(i as i64)).collect();
            let first_match = |topic: &str| declared.iter().position(|n| n.as_str() == topic);

            let view = SlotView::new(&declared, &ids, &slots);
            for q in &queries {
                let expected = first_match(q).map(|i| &slots[ids[i].index()]);
                let got = view.get(q);
                proptest::prop_assert!(
                    got.map(|v| v as *const Value) == expected.map(|v| v as *const Value),
                    "SlotView::get({q:?}) over {declared:?}: {got:?} vs {expected:?}"
                );
            }

            let renames: Vec<(TopicName, TopicName)> = declared
                .iter()
                .enumerate()
                .map(|(i, alias)| (alias.clone(), TopicName::new(format!("scope{i}/{alias}"))))
                .collect();
            // Every other canonical topic is published, so misses occur on
            // both sides of the renaming.
            let inner: TopicMap = renames
                .iter()
                .step_by(2)
                .enumerate()
                .map(|(i, (_, canonical))| (canonical.clone(), Value::Int(i as i64)))
                .collect();
            let renamed = RenamedView::new(&renames, &inner);
            for q in &queries {
                let expected = renames
                    .iter()
                    .find(|(alias, _)| alias.as_str() == q)
                    .and_then(|(_, canonical)| inner.get(canonical.as_str()));
                proptest::prop_assert_eq!(renamed.get(q), expected, "RenamedView::get({:?})", q);
            }

            let mut entries = Vec::new();
            let mut writer = TopicWriter::new("node", Time::ZERO, &declared, &mut entries);
            let mut expected = Vec::new();
            for (k, q) in queries.iter().enumerate() {
                if let Some(i) = first_match(q) {
                    writer.insert(q.as_str(), Value::Int(k as i64));
                    expected.push((i, k));
                }
            }
            proptest::prop_assert_eq!(entries.len(), expected.len());
            for (&(got, ref value), &(want, k)) in entries.iter().zip(&expected) {
                let got = got as usize;
                proptest::prop_assert_eq!(value, &Value::Int(k as i64));
                // A name declared twice may resolve to either index; both
                // intern to the same slot.
                proptest::prop_assert_eq!(ids[got], ids[want]);
                if declared.iter().filter(|n| *n == &declared[want]).count() == 1 {
                    proptest::prop_assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn same_topic_matches_string_equality_on_the_pool() {
        let pool = name_pool();
        for a in &pool {
            for b in &pool {
                assert_eq!(same_topic(a, b), a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn writer_reindexing_shares_the_buffer() {
        let scoped = [TopicName::new("drone0/out")];
        let plain = [TopicName::new("out")];
        let mut entries = Vec::new();
        let mut w = TopicWriter::new("drone0/relay", Time::ZERO, &scoped, &mut entries);
        {
            let mut inner = w.reindexed("relay", &plain);
            inner.insert("out", Value::Int(1));
        }
        w.insert("drone0/out", Value::Int(2));
        assert_eq!(entries, vec![(0, Value::Int(1)), (0, Value::Int(2))]);
    }
}
