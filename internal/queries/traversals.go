package queries

import (
	"strings"

	"repro/internal/graphdb"
)

// This file implements the base graph traversals of Table 1:
//
//	BasicPath     — any-edge path between two nodes
//	UntaintedPath — paths containing V(p) followed by P(p): the tainted
//	                property was overwritten along the way
//	TaintPath     — BasicPath \ UntaintedPath
//	Arg(f, n)     — the n-th argument of a call node
//	ObjLookup*    — object lookup via dynamic property
//	ObjAssignment*— object assignment via dynamic property
//
// TaintPath is evaluated with a dedicated search: a depth-first
// traversal that tracks which properties have been written (version
// edges) along the current path and prunes any extension that reads a
// written property (property edge with the same name) — such paths are
// untainted by definition. This matches the filtering semantics of the
// Cypher query used by Graph.js while remaining polynomial in practice.

// TaintPathExists reports whether a tainted path exists from src to dst
// (Table 1's TaintPath with dst specified). maxHops bounds the search.
func (lg *LoadedGraph) TaintPathExists(src, dst graphdb.NodeID, maxHops int) bool {
	return lg.taintSearch(src, func(id graphdb.NodeID) bool { return id == dst }, maxHops) != nil
}

// TaintPathWitness returns a witness tainted path from src to dst, or
// nil when none exists.
func (lg *LoadedGraph) TaintPathWitness(src, dst graphdb.NodeID, maxHops int) []graphdb.NodeID {
	return lg.taintSearch(src, func(id graphdb.NodeID) bool { return id == dst }, maxHops)
}

// TaintReach returns all nodes reachable from src via tainted paths.
func (lg *LoadedGraph) TaintReach(src graphdb.NodeID, maxHops int) map[graphdb.NodeID]bool {
	out := make(map[graphdb.NodeID]bool)
	lg.taintSearch(src, func(id graphdb.NodeID) bool {
		out[id] = true
		return false // keep exploring
	}, maxHops)
	return out
}

// searchState is a taint-search memoization key: a node plus the
// interned set of version-written properties still "open" along the
// path that reached it.
type searchState struct {
	node    graphdb.NodeID
	written setID
}

// taintSearch runs the TaintPath DFS from src; accept is called on every
// reached node and a non-nil path is returned when it reports true.
func (lg *LoadedGraph) taintSearch(src graphdb.NodeID, accept func(graphdb.NodeID) bool, maxHops int) []graphdb.NodeID {
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	if lg.seen == nil {
		lg.seen = make(map[searchState]int)
	} else {
		clear(lg.seen)
	}
	lg.path = lg.path[:0]
	s := searcher{lg: lg, accept: accept, maxHops: maxHops}
	return s.dfs(src, 0, 0)
}

// searcher is one taint search. Its memo and path stack are the
// LoadedGraph's scratch space, reused by later searches.
type searcher struct {
	lg      *LoadedGraph
	accept  func(graphdb.NodeID) bool
	maxHops int
}

func (s *searcher) dfs(id graphdb.NodeID, written setID, depth int) []graphdb.NodeID {
	lg := s.lg
	if lg.Budget.Step() != nil {
		// Budget hit mid-search: abandon the search (the sticky
		// failure makes every outer frame bail out immediately);
		// Detect reports the findings established before the trip.
		return nil
	}
	// A state already expanded at this depth or shallower has nothing
	// new to offer; reached now by a shorter path, it must be expanded
	// again, since the hop bound cut its first expansion shorter.
	key := searchState{node: id, written: written}
	if d, ok := lg.seen[key]; ok && d <= depth {
		return nil
	}
	lg.seen[key] = depth
	lg.path = append(lg.path, id)
	got := s.expand(id, written, depth)
	lg.path = lg.path[:len(lg.path)-1]
	return got
}

func (s *searcher) expand(id graphdb.NodeID, written setID, depth int) []graphdb.NodeID {
	lg := s.lg
	if s.accept(id) {
		return append([]graphdb.NodeID(nil), lg.path...)
	}
	if depth >= s.maxHops {
		// The hop bound silently under-approximates; count the
		// truncation so it is observable in reports.
		if len(lg.DB.Out(id)) > 0 {
			lg.Truncated++
		}
		return nil
	}
	for _, r := range lg.DB.Out(id) {
		if lg.sanitized[r.To] {
			// Sanitizer call: its result is clean (§6).
			continue
		}
		nw := written
		switch r.Type {
		case RelVer:
			// A version edge writes its property: remember it.
			p, _ := r.Props["prop"].(string)
			nw = lg.sets.with(written, p)
		case RelProp:
			// Reading a property that was overwritten along this
			// path yields the untainted (new) value: prune
			// (UntaintedPath pattern V(p) … P(p)).
			p, _ := r.Props["prop"].(string)
			if lg.sets.has(written, p) {
				continue
			}
		}
		if got := s.dfs(r.To, nw, depth+1); got != nil {
			return got
		}
	}
	return nil
}

// setID names an interned set of written property names; 0 is the
// empty set.
type setID int32

// writtenSets interns the written-property sets taint searches track,
// so a search state is a (node, set id) pair and extending a set is a
// table lookup rather than a map copy. Sets only grow along a path and
// stay tiny, so members are kept as sorted slices.
type writtenSets struct {
	members [][]string        // members[id], sorted
	next    map[setStep]setID // id + newly written property → id
	byKey   map[string]setID  // canonical member list → id
}

type setStep struct {
	from setID
	prop string
}

// has reports whether set id contains p.
func (w *writtenSets) has(id setID, p string) bool {
	if id == 0 {
		return false
	}
	for _, m := range w.members[id] {
		if m == p {
			return true
		}
	}
	return false
}

// with returns the id of set id ∪ {p}.
func (w *writtenSets) with(id setID, p string) setID {
	if w.has(id, p) {
		return id
	}
	step := setStep{from: id, prop: p}
	if n, ok := w.next[step]; ok {
		return n
	}
	if w.members == nil {
		w.members = [][]string{nil}
		w.next = make(map[setStep]setID)
		w.byKey = make(map[string]setID)
	}
	var ms []string
	if id != 0 {
		ms = w.members[id]
	}
	ms = append(append(make([]string, 0, len(ms)+1), ms...), p)
	for j := len(ms) - 1; j > 0 && ms[j] < ms[j-1]; j-- {
		ms[j], ms[j-1] = ms[j-1], ms[j]
	}
	var key strings.Builder
	for _, m := range ms {
		key.WriteString(m)
		key.WriteByte(0)
	}
	n, ok := w.byKey[key.String()]
	if !ok {
		n = setID(len(w.members))
		w.members = append(w.members, ms)
		w.byKey[key.String()] = n
	}
	w.next[step] = n
	return n
}

// BasicPathExists reports whether any path of at most maxHops edges
// connects src to dst (Table 1's BasicPath). It is evaluated through
// the query engine.
func (lg *LoadedGraph) BasicPathExists(src, dst graphdb.NodeID, maxHops int) bool {
	seen := map[graphdb.NodeID]bool{}
	var walk func(id graphdb.NodeID, depth int) bool
	walk = func(id graphdb.NodeID, depth int) bool {
		if id == dst {
			return true
		}
		if depth >= maxHops || seen[id] {
			return false
		}
		seen[id] = true
		for _, r := range lg.DB.Out(id) {
			if walk(r.To, depth+1) {
				return true
			}
		}
		return false
	}
	return walk(src, 0)
}

// CallArg is one (call, argument position) pair with the locations that
// flow into the argument — Table 1's Arg(f, n).
type CallArg struct {
	Call *graphdb.Node
	N    int
	Args []graphdb.NodeID
}

// ObjLookupStar finds all dynamic-property lookups: pairs (o, sub) with
// o -P(*)-> sub. Table 1's ObjLookup*.
func (lg *LoadedGraph) ObjLookupStar() ([][2]*graphdb.Node, error) {
	res, err := lg.run(qObjLookupStar, nil)
	if err != nil {
		return nil, err
	}
	var out [][2]*graphdb.Node
	for _, row := range res.Rows {
		o := row["o"].(*graphdb.Node)
		sub := row["sub"].(*graphdb.Node)
		out = append(out, [2]*graphdb.Node{o, sub})
	}
	return out, nil
}

// ObjAssignmentStar finds, for a given sub-object, the dynamic
// assignments over it: (ver, val) pairs where some object reachable
// from sub (via version edges or dependency edges — the latter covers
// the recursive-merge idiom where the sub-object flows into a callee
// parameter before being assigned) has mid -V(*)-> ver -P(*)-> val.
// Table 1's ObjAssignment* composed with the chaining of Table 2.
func (lg *LoadedGraph) ObjAssignmentStar(sub *graphdb.Node, maxHops int) ([][2]*graphdb.Node, error) {
	assigns, err := lg.dynAssignments()
	if err != nil || len(assigns) == 0 {
		return nil, err
	}
	reach := lg.TaintReach(sub.ID, maxHops)
	reach[sub.ID] = true
	var out [][2]*graphdb.Node
	for _, a := range assigns {
		if !reach[a[0].ID] {
			continue
		}
		out = append(out, [2]*graphdb.Node{a[1], a[2]})
	}
	return out, nil
}

// dynAssignments returns every dynamic assignment (mid, ver, val) in
// the graph. The query does not depend on the sub-object, so it runs
// once per graph.
func (lg *LoadedGraph) dynAssignments() ([][3]*graphdb.Node, error) {
	if lg.assignsDone {
		return lg.assigns, nil
	}
	res, err := lg.run(qObjAssignmentStar, nil)
	if err != nil {
		return nil, err
	}
	out := make([][3]*graphdb.Node, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, [3]*graphdb.Node{row["mid"].(*graphdb.Node), row["ver"].(*graphdb.Node), row["val"].(*graphdb.Node)})
	}
	lg.assigns, lg.assignsDone = out, true
	return out, nil
}
