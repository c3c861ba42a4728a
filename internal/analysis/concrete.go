// Instrumented concrete semantics of Core JavaScript (paper §3.3).
//
// The concrete interpreter executes a program with real values while
// building a concrete MDG whose nodes are concrete locations. Each
// concrete location remembers the allocation key of the statement that
// created it, which defines the abstraction function α used by the
// soundness tests: α maps a concrete location to the abstract location
// the analyzer allocated for the same (role, site, prop) key.

package analysis

import (
	"strconv"

	"repro/internal/core"
)

// CLoc is a concrete location.
type CLoc int

// CEdgeType mirrors mdg.EdgeType for the concrete graph; all property
// and version edges carry resolved property names.
type CEdgeType int

// Concrete edge types.
const (
	CDep CEdgeType = iota
	CProp
	CVer
)

// CEdge is one edge of a concrete MDG.
type CEdge struct {
	From, To CLoc
	Type     CEdgeType
	Prop     string
}

// AllocKey identifies the statement-role that created a location; it is
// shared with the abstract analyzer's allocation keys.
type AllocKey struct {
	Role string
	Site int
	Prop string
	// N is the key's integer component (a literal's kind), matching
	// mdg.Graph.AllocN; 0 for keys without one.
	N int
}

// CNode is one node of the concrete graph.
type CNode struct {
	Loc CLoc
	Key AllocKey
	// Origin is the object location a lazily created property node was
	// attached to (NoLoc otherwise); the soundness checker uses it to
	// resolve the abstraction function when allocation keys diverge.
	Origin CLoc
}

// ConcreteState is the result of a concrete execution: the concrete
// MDG, final store, and heap.
type ConcreteState struct {
	Nodes []*CNode
	Edges []CEdge
	Store map[string]CLoc
	// Heap maps object locations to their property tables; primitive
	// locations map to nil.
	Heap map[CLoc]map[string]CLoc
	// Values maps primitive locations to their string rendering.
	Values map[CLoc]string
	// Truncated reports that the step budget expired mid-execution
	// (the trace is still a valid prefix).
	Truncated bool
}

type concreteInterp struct {
	st     *ConcreteState
	next   CLoc
	steps  int
	budget int
	// pred maps each object version to the version it was created from.
	pred map[CLoc]CLoc
	node map[CLoc]*CNode
}

// RunConcrete executes a call-free Core JavaScript program concretely
// for at most budget steps, returning the instrumented state. Function
// definitions and calls are skipped (the paper formalizes the analysis
// rules for the call-free fragment).
func RunConcrete(prog *core.Program, budget int) *ConcreteState {
	ci := &concreteInterp{
		st: &ConcreteState{
			Store:  make(map[string]CLoc),
			Heap:   make(map[CLoc]map[string]CLoc),
			Values: make(map[CLoc]string),
		},
		budget: budget,
		pred:   make(map[CLoc]CLoc),
		node:   make(map[CLoc]*CNode),
	}
	ci.stmts(prog.Body)
	return ci.st
}

func (ci *concreteInterp) tick() bool {
	ci.steps++
	if ci.steps > ci.budget {
		ci.st.Truncated = true
		return false
	}
	return true
}

func (ci *concreteInterp) alloc(key AllocKey, obj bool) CLoc {
	ci.next++
	n := &CNode{Loc: ci.next, Key: key}
	ci.st.Nodes = append(ci.st.Nodes, n)
	ci.node[n.Loc] = n
	if obj {
		ci.st.Heap[n.Loc] = make(map[string]CLoc)
	}
	return n.Loc
}

// oldest walks the version-predecessor chain of l to its origin.
func (ci *concreteInterp) oldest(l CLoc) CLoc {
	for {
		p, ok := ci.pred[l]
		if !ok {
			return l
		}
		l = p
	}
}

func (ci *concreteInterp) addEdge(e CEdge) {
	for _, x := range ci.st.Edges {
		if x == e {
			return
		}
	}
	ci.st.Edges = append(ci.st.Edges, e)
}

// eval returns the concrete location of e, allocating literal nodes with
// the same keys the abstract analyzer uses.
func (ci *concreteInterp) eval(e core.Expr, site int) CLoc {
	switch x := e.(type) {
	case core.Var:
		if l, ok := ci.st.Store[x.Name]; ok {
			return l
		}
		l := ci.alloc(AllocKey{Role: "global", Site: 0, Prop: x.Name}, true)
		ci.st.Store[x.Name] = l
		return l
	case core.Lit:
		l := ci.alloc(AllocKey{Role: "lit", Site: site, Prop: x.Value, N: int(x.Kind)}, false)
		ci.st.Values[l] = x.Value
		return l
	}
	panic("unreachable expression form") //lint:allow nakedpanic -- interpreter invariant; recovered at the scanner's phase guard
}

// valueOf renders the primitive behind l ("" for objects).
func (ci *concreteInterp) valueOf(l CLoc) string { return ci.st.Values[l] }

func (ci *concreteInterp) truthy(l CLoc) bool {
	if _, isObj := ci.st.Heap[l]; isObj {
		return true
	}
	switch ci.st.Values[l] {
	case "", "0", "false", "null", "undefined", "NaN":
		return false
	}
	return true
}

func (ci *concreteInterp) stmts(ss []core.Stmt) {
	for _, s := range ss {
		if !ci.tick() {
			return
		}
		ci.stmt(s)
	}
}

func (ci *concreteInterp) stmt(s core.Stmt) {
	switch x := s.(type) {
	case *core.Assign:
		ci.st.Store[x.X] = ci.eval(x.E, x.Idx)

	case *core.BinOp:
		l1 := ci.eval(x.L, x.Idx)
		l2 := ci.eval(x.R, x.Idx)
		res := ci.alloc(AllocKey{Role: "bin", Site: x.Idx}, false)
		ci.st.Values[res] = evalBinOp(x.Op, ci.valueOf(l1), ci.valueOf(l2))
		ci.addEdge(CEdge{From: l1, To: res, Type: CDep})
		ci.addEdge(CEdge{From: l2, To: res, Type: CDep})
		ci.st.Store[x.X] = res

	case *core.UnOp:
		l := ci.eval(x.E, x.Idx)
		res := ci.alloc(AllocKey{Role: "un", Site: x.Idx}, false)
		ci.st.Values[res] = evalUnOp(x.Op, ci.valueOf(l))
		ci.addEdge(CEdge{From: l, To: res, Type: CDep})
		ci.st.Store[x.X] = res

	case *core.NewObj:
		ci.st.Store[x.X] = ci.alloc(AllocKey{Role: "obj", Site: x.Idx}, true)

	case *core.Lookup: // [Static Property Lookup]
		obj := ci.eval(x.Obj, x.Idx)
		ci.st.Store[x.X] = ci.lookup(obj, x.Prop, x.Idx, "prop")

	case *core.DynLookup: // [Dynamic Property Lookup]
		obj := ci.eval(x.Obj, x.Idx)
		pl := ci.eval(x.Prop, x.Idx)
		p := ci.valueOf(pl)
		v := ci.lookup(obj, p, x.Idx, "prop*")
		// The looked-up value depends on the dynamic property name.
		ci.addEdge(CEdge{From: pl, To: v, Type: CDep})
		ci.st.Store[x.X] = v

	case *core.Update: // [Static Property Update]
		obj := ci.eval(x.Obj, x.Idx)
		val := ci.eval(x.Val, x.Idx)
		ci.update(obj, x.Prop, val, x.Idx, "ver", nil)

	case *core.DynUpdate: // [Dynamic Property Update]
		obj := ci.eval(x.Obj, x.Idx)
		pl := ci.eval(x.Prop, x.Idx)
		val := ci.eval(x.Val, x.Idx)
		ci.update(obj, ci.valueOf(pl), val, x.Idx, "ver*", &pl)

	case *core.If:
		c := ci.eval(x.Cond, 0)
		if ci.truthy(c) {
			ci.stmts(x.Then)
		} else {
			ci.stmts(x.Else)
		}

	case *core.While:
		for {
			if !ci.tick() {
				return
			}
			c := ci.eval(x.Cond, 0)
			if !ci.truthy(c) {
				return
			}
			ci.stmts(x.Body)
		}

	case *core.ForIn:
		obj := ci.eval(x.Obj, x.Idx)
		props := ci.st.Heap[obj]
		for p, v := range props {
			if !ci.tick() {
				return
			}
			kl := ci.alloc(AllocKey{Role: "forin", Site: x.Idx, Prop: x.Key}, false)
			if x.Of {
				ci.st.Store[x.Key] = v
				ci.addEdge(CEdge{From: v, To: kl, Type: CDep})
			} else {
				ci.st.Values[kl] = p
				ci.st.Store[x.Key] = kl
			}
			ci.addEdge(CEdge{From: obj, To: kl, Type: CDep})
			ci.stmts(x.Body)
		}

	case *core.Break, *core.Continue, *core.Return:
		// Call-free fragment: treated as no-ops (prefix-trace soundness
		// is unaffected by executing more statements than the real
		// control flow would — the abstract side over-approximates).

	case *core.FuncDef, *core.Call:
		// Outside the formalized fragment; skipped.
	}
}

// lookup reads property p of obj, lazily materializing an undefined
// property node with the same allocation key the abstract AP/AP* would
// use. Static lookups attach the lazy property to the oldest version of
// the object ("it existed from the beginning", §2.2 line 7); dynamic
// lookups attach it to the current version, mirroring AP*.
func (ci *concreteInterp) lookup(obj CLoc, p string, site int, role string) CLoc {
	props := ci.st.Heap[obj]
	if props == nil {
		// Primitive receiver: produce a fresh undefined node. Origin is
		// recorded so the soundness abstraction can resolve it against
		// the abstract property the analyzer created on α(obj).
		l := ci.alloc(AllocKey{Role: role, Site: site, Prop: propKeyFor(role, p)}, false)
		ci.node[l].Origin = obj
		ci.st.Values[l] = "undefined"
		return l
	}
	if v, ok := props[p]; ok {
		return v
	}
	l := ci.alloc(AllocKey{Role: role, Site: site, Prop: propKeyFor(role, p)}, false)
	ci.st.Values[l] = "undefined"
	attach := obj
	if role == "prop" {
		attach = ci.oldest(obj)
	}
	ci.node[l].Origin = attach
	props[p] = l
	if oprops := ci.st.Heap[attach]; oprops != nil {
		oprops[p] = l
	}
	ci.addEdge(CEdge{From: attach, To: l, Type: CProp, Prop: p})
	return l
}

func propKeyFor(role, p string) string {
	if role == "prop*" {
		return "*"
	}
	return p
}

// update implements NV_c: it creates a new version of obj, copies the
// property table, writes p, and adds the version and property edges.
func (ci *concreteInterp) update(obj CLoc, p string, val CLoc, site int, role string, dynProp *CLoc) {
	props := ci.st.Heap[obj]
	if props == nil {
		return // writing a property of a primitive is a no-op
	}
	nv := ci.alloc(AllocKey{Role: role, Site: site, Prop: verKeyFor(role, p)}, true)
	nprops := ci.st.Heap[nv]
	for k, v := range props {
		nprops[k] = v
	}
	nprops[p] = val
	ci.pred[nv] = obj
	ci.addEdge(CEdge{From: obj, To: nv, Type: CVer, Prop: p})
	ci.addEdge(CEdge{From: nv, To: val, Type: CProp, Prop: p})
	if dynProp != nil {
		ci.addEdge(CEdge{From: *dynProp, To: nv, Type: CDep})
	}
	// All variables referring to the old version now refer to the new.
	for x, l := range ci.st.Store {
		if l == obj {
			ci.st.Store[x] = nv
		}
	}
}

func verKeyFor(role, p string) string {
	if role == "ver*" {
		return "*"
	}
	return p
}

// ---------------------------------------------------------------------------
// Primitive operator semantics (enough for test programs).
// ---------------------------------------------------------------------------

func evalBinOp(op, a, b string) string {
	switch op {
	case "+":
		if na, ea := strconv.ParseFloat(a, 64); ea == nil {
			if nb, eb := strconv.ParseFloat(b, 64); eb == nil {
				return trimFloat(na + nb)
			}
		}
		return a + b
	case "-", "*", "/", "%":
		na, ea := strconv.ParseFloat(a, 64)
		nb, eb := strconv.ParseFloat(b, 64)
		if ea != nil || eb != nil {
			return "NaN"
		}
		switch op {
		case "-":
			return trimFloat(na - nb)
		case "*":
			return trimFloat(na * nb)
		case "/":
			if nb == 0 {
				return "NaN"
			}
			return trimFloat(na / nb)
		case "%":
			if nb == 0 {
				return "NaN"
			}
			return trimFloat(float64(int64(na) % int64(nb)))
		}
	case "<", ">", "<=", ">=":
		na, ea := strconv.ParseFloat(a, 64)
		nb, eb := strconv.ParseFloat(b, 64)
		if ea != nil || eb != nil {
			return boolStr(compareStr(op, a, b))
		}
		return boolStr(compareNum(op, na, nb))
	case "==", "===":
		return boolStr(a == b)
	case "!=", "!==":
		return boolStr(a != b)
	case "&&":
		if a == "" || a == "false" || a == "0" {
			return a
		}
		return b
	case "||":
		if a != "" && a != "false" && a != "0" {
			return a
		}
		return b
	}
	return "undefined"
}

func evalUnOp(op, a string) string {
	switch op {
	case "!":
		if a == "" || a == "false" || a == "0" || a == "undefined" || a == "null" {
			return "true"
		}
		return "false"
	case "-":
		if n, err := strconv.ParseFloat(a, 64); err == nil {
			return trimFloat(-n)
		}
		return "NaN"
	case "typeof":
		return "string"
	}
	return "undefined"
}

func compareNum(op string, a, b float64) bool {
	switch op {
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	default:
		return a >= b
	}
}

func compareStr(op, a, b string) bool {
	switch op {
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	default:
		return a >= b
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func trimFloat(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
