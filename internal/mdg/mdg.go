// Package mdg implements the Multiversion Dependency Graph (MDG) of the
// paper (§3.1): a single graph capturing the shape and evolution of
// objects over time together with the data dependencies between the
// values a program manipulates.
//
// Nodes are abstract locations representing objects, primitive values,
// functions and calls. Edges carry one of five labels:
//
//	D      dependency: the target is computed using the source
//	P(p)   known property: target is the value of property p of source
//	P(*)   unknown property: as P(p) with a statically unknown name
//	V(p)   version: target is a new version of source after writing p
//	V(*)   version: as V(p) with a statically unknown property name
//
// Allocation is site-keyed: the same (site, role, origin) triple always
// yields the same location, which keeps graphs finite and loops
// convergent (the paper's fixed-point summary representation).
package mdg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/budget"
)

// Loc is an abstract location: the identity of an MDG node.
type Loc int

// NoLoc is the zero Loc, used as "absent".
const NoLoc Loc = 0

// NodeKind classifies MDG nodes.
type NodeKind int

// Node kinds.
const (
	KindObject  NodeKind = iota // objects and primitive values
	KindCall                    // function-call nodes (f_x in the paper)
	KindFunc                    // function values
	KindParam                   // function parameters (taint sources live here)
	KindLiteral                 // primitive literal pool nodes
)

func (k NodeKind) String() string {
	switch k {
	case KindObject:
		return "Object"
	case KindCall:
		return "Call"
	case KindFunc:
		return "Func"
	case KindParam:
		return "Param"
	case KindLiteral:
		return "Literal"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// EdgeType classifies MDG edges.
type EdgeType int

// Edge types.
const (
	Dep      EdgeType = iota // D
	Prop                     // P(p)
	PropStar                 // P(*)
	Ver                      // V(p)
	VerStar                  // V(*)
)

func (t EdgeType) String() string {
	switch t {
	case Dep:
		return "D"
	case Prop:
		return "P"
	case PropStar:
		return "P*"
	case Ver:
		return "V"
	case VerStar:
		return "V*"
	default:
		return fmt.Sprintf("EdgeType(%d)", int(t))
	}
}

// Edge is one labeled MDG edge. Prop is the property name for Prop/Ver
// edges and empty for Dep/PropStar/VerStar.
type Edge struct {
	From, To Loc
	Type     EdgeType
	Prop     string
}

// Label renders the edge label as in the paper (D, P(cmd), V(*), ...).
func (e Edge) Label() string {
	switch e.Type {
	case Dep:
		return "D"
	case Prop:
		return fmt.Sprintf("P(%s)", e.Prop)
	case PropStar:
		return "P(*)"
	case Ver:
		return fmt.Sprintf("V(%s)", e.Prop)
	case VerStar:
		return "V(*)"
	}
	return "?"
}

// Node is one MDG node.
type Node struct {
	Loc   Loc
	Kind  NodeKind
	Label string // variable hint, call name, function name, or literal text
	Site  int    // statement index that allocated the node (0 = none)
	Line  int    // source line of the allocating statement
	File  string // source file of the allocating statement

	// Source marks taint sources (parameters of exported functions).
	Source bool
	// Exported marks functions reachable from module.exports.
	Exported bool

	// Call metadata (KindCall only). CallArgs[i] holds the locations
	// that may flow into the i-th argument.
	CallName string
	CallArgs [][]Loc

	// Func metadata (KindFunc only): the function's parameter and
	// return locations, for call linking and queries.
	FuncName  string
	ParamLocs []Loc
	RetLoc    Loc
}

// Graph is a Multiversion Dependency Graph.
//
// Locations are dense: fresh numbers nodes 1, 2, 3, ... and Stitch
// offsets each fragment by its maxLoc, so nodes and adjacency lists
// live in slices indexed by Loc (index 0, NoLoc, is always empty; a
// stitched graph may hold nil holes). Out and In lists keep insertion
// order, which every consumer relies on for deterministic iteration.
//
// A Graph is not safe for concurrent mutation. The version-chain walks
// (Lookup, AllPropValues) keep their visited set in the graph, so they
// count as mutation; Node, Out, In and Edges are plain reads.
type Graph struct {
	nodes    []*Node
	out      [][]Edge
	in       [][]Edge
	numNodes int
	numEdges int
	next     Loc

	// alloc implements site-keyed deterministic allocation.
	alloc map[allocKey]Loc

	// curFile annotates newly created nodes with their source file
	// (multi-module analysis); see SetCurrentFile.
	curFile string

	// sorted caches the ascending-Loc node slice handed out by Nodes
	// when the graph has holes; node creation invalidates it.
	sorted []*Node

	// slab and echunk are allocation chunks: nodes are carved from
	// slab, and each adjacency list's first two slots from echunk, so
	// small graphs cost a few allocations rather than one per node and
	// per list.
	slab   []Node
	echunk []Edge

	// visit is the scratch visited set of the version-chain walks
	// (Lookup, AllPropValues); oldest is AP's scratch for the oldest
	// versions of one lookup.
	visit  Marks
	oldest []Loc

	// bud, when set, is charged for every node and edge created, so a
	// scan-wide MaxNodes/MaxEdges cap covers MDG construction. The
	// graph only records the charge; the analyzer's per-statement tick
	// notices the exceeded budget and aborts.
	bud *budget.Budget
}

// SetBudget charges subsequent node/edge creation against b (nil
// disables the accounting).
func (g *Graph) SetBudget(b *budget.Budget) { g.bud = b }

// SetCurrentFile sets the source-file annotation applied to nodes
// created from now on.
func (g *Graph) SetCurrentFile(file string) { g.curFile = file }

// allocKey is a site-keyed allocation key. n is an integer component
// (a literal's kind, a parameter's position) kept out of prop so
// callers never format it into a string; AllocN sets it.
type allocKey struct {
	role   string
	site   int
	origin Loc
	prop   string
	n      int
}

// New returns an empty MDG.
func New() *Graph { return NewSized(0) }

// NewSized returns an empty MDG with room for about n nodes before its
// tables grow.
func NewSized(n int) *Graph {
	if n < 16 {
		n = 16
	}
	return &Graph{
		nodes: make([]*Node, 1, n+1),
		out:   make([][]Edge, 1, n+1),
		in:    make([][]Edge, 1, n+1),
		alloc: make(map[allocKey]Loc, n),
	}
}

// grow extends the Loc-indexed slices to hold location l.
func (g *Graph) grow(l Loc) {
	for Loc(len(g.nodes)) <= l {
		g.nodes = append(g.nodes, nil)
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int { return g.numEdges }

// Node returns the node at l, or nil.
func (g *Graph) Node(l Loc) *Node {
	if l <= NoLoc || int(l) >= len(g.nodes) {
		return nil
	}
	return g.nodes[l]
}

// Nodes returns all nodes in ascending Loc order. The slice is shared
// between calls until the next node is created; callers must not
// modify it.
func (g *Graph) Nodes() []*Node {
	if g.numNodes == len(g.nodes)-1 {
		return g.nodes[1:len(g.nodes):len(g.nodes)] // no holes
	}
	if g.sorted == nil {
		g.sorted = make([]*Node, 0, g.numNodes)
		for _, n := range g.nodes {
			if n != nil {
				g.sorted = append(g.sorted, n)
			}
		}
	}
	return g.sorted
}

// NodesOfKind returns the nodes of one kind in ascending Loc order.
func (g *Graph) NodesOfKind(kind NodeKind) []*Node {
	var out []*Node
	for _, n := range g.Nodes() {
		if n.Kind == kind {
			out = append(out, n)
		}
	}
	return out
}

// Edges returns all edges in a deterministic order: by source location,
// then in insertion order.
func (g *Graph) Edges() []Edge {
	if g.numEdges == 0 {
		return nil
	}
	out := make([]Edge, 0, g.numEdges)
	for _, es := range g.out {
		out = append(out, es...)
	}
	return out
}

// Out returns the outgoing edges of l in insertion order. The slice is
// the graph's own; callers must not modify it.
func (g *Graph) Out(l Loc) []Edge {
	if l <= NoLoc || int(l) >= len(g.out) {
		return nil
	}
	return g.out[l]
}

// In returns the incoming edges of l in insertion order. The slice is
// the graph's own; callers must not modify it.
func (g *Graph) In(l Loc) []Edge {
	if l <= NoLoc || int(l) >= len(g.in) {
		return nil
	}
	return g.in[l]
}

// fresh creates a brand-new node.
func (g *Graph) fresh(kind NodeKind, label string, site, line int) *Node {
	g.bud.AddNode() // cap recorded in the budget; the analyzer's tick aborts
	g.next++
	if len(g.slab) == 0 {
		g.slab = make([]Node, nodeSlab)
	}
	n := &g.slab[0]
	g.slab = g.slab[1:]
	*n = Node{Loc: g.next, Kind: kind, Label: label, Site: site, Line: line, File: g.curFile}
	g.grow(n.Loc)
	g.nodes[n.Loc] = n
	g.numNodes++
	g.sorted = nil
	return n
}

// Alloc returns the location for (role, site, origin, prop), creating a
// node on first use. Repeated calls with the same key return the same
// location — the allocation-site abstraction that keeps loops finite.
func (g *Graph) Alloc(role string, site int, origin Loc, prop string, kind NodeKind, label string, line int) Loc {
	return g.allocKey(allocKey{role: role, site: site, origin: origin, prop: prop}, kind, label, line)
}

// AllocN is Alloc for a key with an integer component n (origin NoLoc).
// Keys built by AllocN never collide with Alloc keys of the same role
// unless n is 0, so a role should use one form throughout.
func (g *Graph) AllocN(role string, site int, prop string, n int, kind NodeKind, label string, line int) Loc {
	return g.allocKey(allocKey{role: role, site: site, prop: prop, n: n}, kind, label, line)
}

func (g *Graph) allocKey(key allocKey, kind NodeKind, label string, line int) Loc {
	if l, ok := g.alloc[key]; ok {
		return l
	}
	n := g.fresh(kind, label, key.site, line)
	g.alloc[key] = n.Loc
	return n.Loc
}

// LocForKey returns the location previously allocated for the given
// allocation key, if any. Soundness tests use it to build the
// abstraction function α from concrete to abstract locations.
func (g *Graph) LocForKey(role string, site int, origin Loc, prop string) (Loc, bool) {
	l, ok := g.alloc[allocKey{role: role, site: site, origin: origin, prop: prop}]
	return l, ok
}

// LocForKeyN is LocForKey for an AllocN key.
func (g *Graph) LocForKeyN(role string, site int, prop string, n int) (Loc, bool) {
	l, ok := g.alloc[allocKey{role: role, site: site, prop: prop, n: n}]
	return l, ok
}

// AddEdge inserts e if not already present. It reports whether the
// graph changed. The duplicate check scans the shorter of the source's
// Out list and the target's In list.
func (g *Graph) AddEdge(e Edge) bool {
	if g.Node(e.From) == nil || g.Node(e.To) == nil {
		// Internal invariant (callers only wire locations they
		// allocated); a violation is an analyzer bug, recovered at the
		// scanner's phase guard rather than killing the sweep.
		panic(fmt.Sprintf("mdg: edge %v references unknown node", e)) //lint:allow nakedpanic -- graph invariant; recovered at the scanner's phase guard
	}
	if g.has(e) {
		return false
	}
	g.bud.AddEdge()
	g.insert(e)
	return true
}

// has reports whether e is present; both endpoints must be in range.
func (g *Graph) has(e Edge) bool {
	es := g.out[e.From]
	if in := g.in[e.To]; len(in) < len(es) {
		es = in
	}
	for i := range es {
		if es[i] == e {
			return true
		}
	}
	return false
}

// insert appends e to both adjacency lists without checks.
func (g *Graph) insert(e Edge) {
	g.out[e.From] = g.appendEdge(g.out[e.From], e)
	g.in[e.To] = g.appendEdge(g.in[e.To], e)
	g.numEdges++
}

// appendEdge appends e to an adjacency list. An empty list starts as a
// two-slot slice carved from echunk with its capacity capped, so a
// longer list moves out by the usual append growth and never spills
// into a neighbour's slots.
func (g *Graph) appendEdge(es []Edge, e Edge) []Edge {
	if es == nil {
		if len(g.echunk) < 2 {
			g.echunk = make([]Edge, 2*edgeChunkLists)
		}
		es = g.echunk[:0:2]
		g.echunk = g.echunk[2:]
	}
	return append(es, e)
}

// Allocation chunk sizes: nodes per slab, adjacency lists per echunk.
const (
	nodeSlab       = 16
	edgeChunkLists = 16
)

// HasEdge reports whether e is present.
func (g *Graph) HasEdge(e Edge) bool {
	return g.Node(e.From) != nil && g.Node(e.To) != nil && g.has(e)
}

// AddDep adds a dependency edge from → to.
func (g *Graph) AddDep(from, to Loc) bool {
	return g.AddEdge(Edge{From: from, To: to, Type: Dep})
}

// ---------------------------------------------------------------------------
// Graph operations from the paper (§3.1–3.2)
// ---------------------------------------------------------------------------

// PropTarget returns the first direct P(p) target of l, or NoLoc.
func (g *Graph) PropTarget(l Loc, p string) Loc {
	for _, e := range g.Out(l) {
		if e.Type == Prop && e.Prop == p {
			return e.To
		}
	}
	return NoLoc
}

// PropTargets returns all direct P(p) targets of l. Version nodes that
// merge several objects (site-keyed allocation) can carry multiple P(p)
// edges for the same name.
func (g *Graph) PropTargets(l Loc, p string) []Loc {
	var out []Loc
	for _, e := range g.Out(l) {
		if e.Type == Prop && e.Prop == p {
			out = append(out, e.To)
		}
	}
	return out
}

// StarTargets returns the direct P(*) targets of l.
func (g *Graph) StarTargets(l Loc) []Loc {
	var out []Loc
	for _, e := range g.Out(l) {
		if e.Type == PropStar {
			out = append(out, e.To)
		}
	}
	return out
}

// VersionPredecessors returns the locations u with u →V(...) l.
func (g *Graph) VersionPredecessors(l Loc) []Loc {
	var out []Loc
	for _, e := range g.In(l) {
		if e.Type == Ver || e.Type == VerStar {
			out = append(out, e.From)
		}
	}
	return out
}

// VersionSuccessors returns the locations v with l →V(...) v.
func (g *Graph) VersionSuccessors(l Loc) []Loc {
	var out []Loc
	for _, e := range g.Out(l) {
		if e.Type == Ver || e.Type == VerStar {
			out = append(out, e.To)
		}
	}
	return out
}

// LookupResult is the outcome of ĝ[l, p]: the found value locations and
// the oldest chain version (where a lazy property must be created when
// nothing was found).
type LookupResult struct {
	Values []Loc
	// Oldest is the oldest version reached without finding P(p); NoLoc
	// when the property was found statically on every chain path.
	Oldest []Loc
}

// Lookup computes ĝ[l, p] (§3.1): the abstract locations associated with
// the object represented by l via property p, walking the version chain
// backwards. Dynamic P(*) properties encountered along the way may
// shadow p, so their values are included. When a chain path reaches its
// oldest version without a static definition of p, that version is
// reported in Oldest so the caller can lazily extend it (AP).
func (g *Graph) Lookup(l Loc, p string) LookupResult {
	var res LookupResult
	g.visit.Reset()
	res.Values, res.Oldest = g.lookup(l, p, nil, nil)
	res.Values = Dedupe(res.Values)
	res.Oldest = Dedupe(res.Oldest)
	return res
}

// lookup is Lookup's depth-first walk from v, appending found values to
// vals and chain-oldest versions to oldest (both undeduplicated) and
// marking visited versions in g.visit.
func (g *Graph) lookup(v Loc, p string, vals, oldest []Loc) ([]Loc, []Loc) {
	if !g.visit.Mark(v) {
		return vals, oldest
	}
	out := g.Out(v)
	// A dynamic property on this version may hold (or shadow) p.
	for _, e := range out {
		if e.Type == PropStar {
			vals = append(vals, e.To)
		}
	}
	found := false
	for _, e := range out {
		if e.Type == Prop && e.Prop == p {
			vals = append(vals, e.To)
			found = true
		}
	}
	if found {
		return vals, oldest // defined here; older versions are shadowed
	}
	hasPred := false
	for _, e := range g.In(v) {
		if e.Type == Ver || e.Type == VerStar {
			hasPred = true
			vals, oldest = g.lookup(e.From, p, vals, oldest)
		}
	}
	if !hasPred {
		oldest = append(oldest, v)
	}
	return vals, oldest
}

// AllPropValues returns the values of every property (static and
// dynamic) reachable along l's version chain; used for dynamic lookups
// x := e1[e2] where any property may be read.
func (g *Graph) AllPropValues(l Loc) []Loc {
	g.visit.Reset()
	return Dedupe(g.allPropValues(l, nil))
}

func (g *Graph) allPropValues(v Loc, out []Loc) []Loc {
	if !g.visit.Mark(v) {
		return out
	}
	for _, e := range g.Out(v) {
		if e.Type == Prop || e.Type == PropStar {
			out = append(out, e.To)
		}
	}
	for _, e := range g.In(v) {
		if e.Type == Ver || e.Type == VerStar {
			out = g.allPropValues(e.From, out)
		}
	}
	return out
}

// AP implements AP_i(ĝ, L, p) (§3.2): extends each object in L with
// property p unless already defined along its chain, allocating the
// property node at site i. It returns the value locations of p for
// every object in L after the extension.
func (g *Graph) AP(site int, L []Loc, p string, line int) []Loc {
	var values []Loc
	for _, l := range L {
		// Appending the undeduplicated walk straight into values is
		// safe: the final Dedupe keeps first occurrences, so earlier
		// duplicates change nothing.
		g.visit.Reset()
		values, g.oldest = g.lookup(l, p, values, g.oldest[:0])
		for _, oldest := range g.oldest {
			// Site-keyed: all chains extended at this site share the
			// node (the paper's cyclic summary representation).
			nl := g.Alloc("prop", site, 0, p, KindObject, p, line)
			if nl != oldest {
				g.AddEdge(Edge{From: oldest, To: nl, Type: Prop, Prop: p})
			}
			values = append(values, nl)
		}
	}
	return Dedupe(values)
}

// APStar implements AP*_i(ĝ, L1, Lp): extends each object in L1 with an
// unknown property whose name depends on the locations in Lp. If an
// object already has a P(*) edge, the dependencies are added to the
// existing property node. Returns the dynamic property value locations.
func (g *Graph) APStar(site int, L1, Lp []Loc, line int) []Loc {
	var values []Loc
	for _, l := range L1 {
		stars := g.StarTargets(l)
		if len(stars) == 0 {
			nl := g.Alloc("prop*", site, 0, "*", KindObject, "*", line)
			if nl == l {
				continue
			}
			g.AddEdge(Edge{From: l, To: nl, Type: PropStar})
			stars = []Loc{nl}
		}
		for _, s := range stars {
			for _, lp := range Lp {
				g.AddDep(lp, s)
			}
			values = append(values, s)
		}
	}
	return Dedupe(values)
}

// Version pairs an object location with the new version a property
// update created for it (NV, NV*).
type Version struct {
	Old, New Loc
}

// NV implements NV_i(ĝ, ρ̂, L1, p): creates a new version of every
// object in L1 due to an assignment of property p at site i, linking
// old → new with V(p). It returns one old→new pair per element of L1,
// in L1's order; the caller rewrites the store.
func (g *Graph) NV(site int, L1 []Loc, p string, line int) []Version {
	repl := make([]Version, 0, len(L1))
	for _, l := range L1 {
		// Site-keyed (no origin): every object updated at this site
		// maps to the same new-version node, giving the finite cyclic
		// representation of loops (§5.5).
		nl := g.Alloc("ver", site, 0, p, KindObject, g.labelOf(l), line)
		if nl != l {
			g.AddEdge(Edge{From: l, To: nl, Type: Ver, Prop: p})
		}
		repl = append(repl, Version{Old: l, New: nl})
	}
	return repl
}

// NVStar implements NV*_i(ĝ, ρ̂, L1, Lp): like NV for a dynamically
// named property; each new version depends on all locations in Lp.
func (g *Graph) NVStar(site int, L1, Lp []Loc, line int) []Version {
	repl := make([]Version, 0, len(L1))
	for _, l := range L1 {
		nl := g.Alloc("ver*", site, 0, "*", KindObject, g.labelOf(l), line)
		if nl != l {
			g.AddEdge(Edge{From: l, To: nl, Type: VerStar})
		}
		for _, lp := range Lp {
			g.AddDep(lp, nl)
		}
		repl = append(repl, Version{Old: l, New: nl})
	}
	return repl
}

func (g *Graph) labelOf(l Loc) string {
	if n := g.Node(l); n != nil {
		return n.Label
	}
	return ""
}

// ---------------------------------------------------------------------------
// Lattice structure (§3.1): MDGs ordered by edge-set inclusion.
// ---------------------------------------------------------------------------

// Leq reports ĝ1 ⊑ ĝ2: every edge of g is an edge of h.
func Leq(g, h *Graph) bool {
	for _, es := range g.out {
		for _, e := range es {
			if !h.HasEdge(e) {
				return false
			}
		}
	}
	return true
}

// Snapshot captures the graph size; two equal snapshots on a monotone
// graph mean no change happened in between (used by fixpoints).
type Snapshot struct {
	Nodes, Edges int
}

// Snap returns the current size snapshot.
func (g *Graph) Snap() Snapshot { return Snapshot{Nodes: g.numNodes, Edges: g.numEdges} }

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

// String renders the graph compactly: one edge per line, sorted.
func (g *Graph) String() string {
	lines := make([]string, 0, g.numEdges)
	for _, es := range g.out {
		for _, e := range es {
			lines = append(lines, fmt.Sprintf("o%d -%s-> o%d", e.From, e.Label(), e.To))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// DOT renders the graph in Graphviz format.
func (g *Graph) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph MDG {\n  rankdir=LR;\n")
	for _, n := range g.Nodes() {
		shape := "ellipse"
		if n.Kind == KindCall {
			shape = "box"
		}
		extra := ""
		if n.Source {
			extra = ", color=red"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q, shape=%s%s];\n", n.Loc,
			fmt.Sprintf("o%d %s", n.Loc, n.Label), shape, extra)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  n%d -> n%d [label=%q];\n", e.From, e.To, e.Label())
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Dedupe removes repeated locations from ls in place, keeping first
// occurrences in order. Short slices (the common case) are checked by
// linear scan without allocating; long ones go through a set.
func Dedupe(ls []Loc) []Loc {
	if len(ls) < 2 {
		return ls
	}
	out := ls[:0]
	if len(ls) <= dedupeLinearMax {
	next:
		for _, l := range ls {
			for _, m := range out {
				if l == m {
					continue next
				}
			}
			out = append(out, l)
		}
		return out
	}
	seen := make(map[Loc]struct{}, len(ls))
	for _, l := range ls {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			out = append(out, l)
		}
	}
	return out
}

// dedupeLinearMax is the longest slice Dedupe checks by linear scan.
const dedupeLinearMax = 32

// Marks is a reusable set of locations backed by a Loc-indexed stamp
// slice: Reset empties it in O(1) by advancing the stamp, so a graph
// walk can track visited nodes without allocating a map per call. The
// zero value is an empty set.
type Marks struct {
	stamp []uint32
	epoch uint32
}

// Reset empties the set.
func (m *Marks) Reset() {
	m.epoch++
	if m.epoch == ^uint32(0) { // stamps would wrap: clear them
		clear(m.stamp)
		m.epoch = 0
	}
}

// Mark adds l to the set and reports whether it was absent.
func (m *Marks) Mark(l Loc) bool {
	if int(l) >= len(m.stamp) {
		grown := make([]uint32, max(64, int(l)+1+len(m.stamp)/2))
		copy(grown, m.stamp)
		m.stamp = grown
	}
	cur := m.epoch + 1
	if m.stamp[l] == cur {
		return false
	}
	m.stamp[l] = cur
	return true
}

// Has reports whether l is in the set.
func (m *Marks) Has(l Loc) bool {
	return int(l) < len(m.stamp) && m.stamp[l] == m.epoch+1
}
