package graphdb

import (
	"fmt"
	"sort"
	"strings"
)

// Row is one result row: projected values keyed by alias (or rendered
// expression text).
type Row map[string]Value

// Result is the outcome of a query.
type Result struct {
	Columns []string
	Rows    []Row
}

// Binding values can be *Node, []*Rel (relationship variable), Path, or
// a plain Value.

type binding map[string]any

// ExecError is a query-evaluation error.
type ExecError struct{ Msg string }

func (e *ExecError) Error() string { return "graphdb: " + e.Msg }

func execErrf(format string, args ...any) error {
	return &ExecError{Msg: fmt.Sprintf(format, args...)}
}

// Query parses and executes src against the database.
func (db *DB) Query(src string) (*Result, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return db.Exec(q)
}

// Exec executes a parsed query. Execution never writes to q, so one
// parsed query may be shared by concurrent Exec calls on different
// databases.
func (db *DB) Exec(q *Query) (*Result, error) { return db.ExecBound(q, nil) }

// ExecBound executes a parsed query with node variables already bound:
// a pattern node named in bound matches only that node, so a match
// starts from it instead of scanning every node. It returns the same
// rows, in the same order, as the query with `WHERE id(v) = …` filters
// on the bound variables.
func (db *DB) ExecBound(q *Query, bound map[string]*Node) (*Result, error) {
	x := &execState{db: db, q: q, b: make(binding, len(bound))}
	for v, n := range bound {
		x.b[v] = n
	}
	if len(q.Matches) == 1 {
		x.pats = q.Matches[0].Patterns
	} else {
		for _, m := range q.Matches {
			x.pats = append(x.pats, m.Patterns...)
		}
	}
	x.bases = make([]stackBase, len(x.pats))

	res := &Result{}
	x.res = res
	for i, item := range q.Return.Items {
		name := item.Alias
		if name == "" {
			name = renderExpr(item.Expr)
		}
		if name == "" {
			name = fmt.Sprintf("col%d", i)
		}
		res.Columns = append(res.Columns, name)
	}

	// Aggregation: when every return item is a count(...), the query
	// collapses to a single row of counters over all matches.
	x.aggregate = len(q.Return.Items) > 0
	for _, item := range q.Return.Items {
		call, ok := item.Expr.(CallExpr)
		if !ok || call.Fn != "count" {
			x.aggregate = false
			break
		}
	}
	if x.aggregate {
		x.counts = make([]int64, len(q.Return.Items))
	}
	if q.Return.Distinct {
		x.seen = map[string]bool{}
	}

	if err := x.match(0); err != nil {
		return nil, err
	}

	if x.aggregate {
		row := Row{}
		for i := range q.Return.Items {
			row[res.Columns[i]] = x.counts[i]
		}
		res.Rows = append(res.Rows, row)
		return res, nil
	}

	if q.Return.OrderBy != nil {
		sortable := x.sortable
		sort.SliceStable(sortable, func(i, j int) bool {
			less := lessValues(sortable[i].key, sortable[j].key)
			if q.Return.OrderDesc {
				return !less && !valueEq(sortable[i].key, sortable[j].key)
			}
			return less
		})
		for _, sr := range sortable {
			res.Rows = append(res.Rows, sr.row)
		}
	}
	if q.Return.Skip > 0 {
		if q.Return.Skip >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Return.Skip:]
		}
	}
	if q.Return.Limit > 0 && len(res.Rows) > q.Return.Limit {
		res.Rows = res.Rows[:q.Return.Limit]
	}
	return res, nil
}

// execState is one execution of a query. The matcher binds variables
// in b in place, recurses, and undoes the binding on the way back, so
// no binding outlives the continuation that saw it: emit copies what a
// row needs. The node and relationship stacks hold the pattern path
// matched so far; a path or relationship variable copies its slice of
// them only when it is bound.
type execState struct {
	db  *DB
	q   *Query
	res *Result

	pats  []Pattern
	bases []stackBase // per pattern: stack heights where its path starts
	b     binding
	nodes []*Node
	rels  []*Rel

	aggregate bool
	counts    []int64
	seen      map[string]bool // DISTINCT row keys
	sortable  []sortedRow     // rows awaiting ORDER BY
	// limitReached stops the search once LIMIT rows are in (without
	// ORDER BY, which needs every row before truncation): no new
	// pattern, candidate or expansion starts after it is set, so a
	// LIMIT query costs budget steps in proportion to the rows it
	// returns, not to the graph.
	limitReached bool
}

type stackBase struct{ nodes, rels int }

type sortedRow struct {
	row Row
	key Value
}

// undo restores one variable to what it was before a bind.
type undo struct {
	name string // "" when nothing was bound
	old  any
	had  bool
}

func (x *execState) bind(name string, v any) undo {
	if name == "" {
		return undo{}
	}
	old, had := x.b[name]
	x.b[name] = v
	return undo{name: name, old: old, had: had}
}

func (x *execState) restore(u undo) {
	switch {
	case u.name == "":
	case u.had:
		x.b[u.name] = u.old
	default:
		delete(x.b, u.name)
	}
}

// emit filters the current binding through WHERE and projects it.
func (x *execState) emit() error {
	q, b, db := x.q, x.b, x.db
	if q.Where != nil {
		ok, err := evalBool(q.Where, b, db)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	if x.aggregate {
		for i, item := range q.Return.Items {
			call := item.Expr.(CallExpr)
			if len(call.Args) == 0 {
				x.counts[i]++
				continue
			}
			v, err := evalExpr(call.Args[0], b, db)
			if err != nil {
				return err
			}
			if v != nil {
				x.counts[i]++
			}
		}
		return nil
	}
	row := make(Row, len(q.Return.Items))
	for i, item := range q.Return.Items {
		v, err := evalExpr(item.Expr, b, db)
		if err != nil {
			return err
		}
		row[x.res.Columns[i]] = v
	}
	if q.Return.Distinct {
		key := rowKey(x.res.Columns, row)
		if x.seen[key] {
			return nil
		}
		x.seen[key] = true
	}
	if q.Return.OrderBy != nil {
		k, err := evalExpr(q.Return.OrderBy, b, db)
		if err != nil {
			return err
		}
		x.sortable = append(x.sortable, sortedRow{row: row, key: k})
		return nil
	}
	x.res.Rows = append(x.res.Rows, row)
	if q.Return.Limit > 0 && q.Return.Skip == 0 && len(x.res.Rows) >= q.Return.Limit {
		x.limitReached = true
	}
	return nil
}

// match enumerates the bindings of patterns pi.. under the current
// binding, emitting a row for each complete match.
func (x *execState) match(pi int) error {
	if x.limitReached {
		return nil
	}
	if pi == len(x.pats) {
		return x.emit()
	}
	p := &x.pats[pi]
	first := &p.Nodes[0]
	if first.Var != "" {
		if v, ok := x.b[first.Var]; ok {
			n, isNode := v.(*Node)
			if !isNode {
				return execErrf("variable %q is not a node", first.Var)
			}
			if !nodeMatches(first, n) {
				return nil
			}
			return x.start(pi, n)
		}
	}
	// Candidates for the first node: a label index scan, or all nodes.
	pool := x.db.nodes
	if len(first.Labels) > 0 {
		pool = x.db.byLabel[first.Labels[0]]
	}
	for _, n := range pool {
		if x.limitReached {
			break
		}
		if !nodeMatches(first, n) {
			continue
		}
		if err := x.start(pi, n); err != nil {
			return err
		}
	}
	return nil
}

// start matches pattern pi from candidate first node n.
func (x *execState) start(pi int, n *Node) error {
	if err := x.db.bud.Step(); err != nil {
		return err
	}
	x.bases[pi] = stackBase{nodes: len(x.nodes), rels: len(x.rels)}
	u := x.bind(x.pats[pi].Nodes[0].Var, n)
	x.nodes = append(x.nodes, n)
	err := x.chain(pi, 0, n)
	x.nodes = x.nodes[:len(x.nodes)-1]
	x.restore(u)
	return err
}

// chain extends pattern pi's match from node index i (bound to cur)
// along relationship i.
func (x *execState) chain(pi, i int, cur *Node) error {
	p := &x.pats[pi]
	if i == len(p.Rels) {
		if p.PathVar == "" {
			return x.match(pi + 1)
		}
		base := x.bases[pi]
		u := x.bind(p.PathVar, Path{
			Nodes: append([]*Node(nil), x.nodes[base.nodes:]...),
			Rels:  append([]*Rel(nil), x.rels[base.rels:]...),
		})
		err := x.match(pi + 1)
		x.restore(u)
		return err
	}
	trail := len(x.rels)
	if p.Rels[i].MinHops == 0 {
		// Zero-length match allowed: the target is cur itself.
		if err := x.arrive(pi, i, cur, trail); err != nil {
			return err
		}
		if x.limitReached {
			return nil
		}
	}
	return x.expand(pi, i, cur, 0, trail)
}

// expand enumerates matches of relationship pattern i of pattern pi
// from n, at depth hops into the expansion, following trail semantics:
// no relationship repeats within one variable-length expansion, whose
// relationships are x.rels[trail:].
func (x *execState) expand(pi, i int, n *Node, depth, trail int) error {
	if err := x.db.bud.Step(); err != nil {
		return err
	}
	rp := &x.pats[pi].Rels[i]
	// depth 0 (zero-length) is handled by chain.
	if depth > 0 && depth >= rp.MinHops {
		if err := x.arrive(pi, i, n, trail); err != nil {
			return err
		}
	}
	if depth == rp.MaxHops {
		return nil
	}
	adj := x.db.out[n.ID-1]
	if rp.Reverse {
		adj = x.db.in[n.ID-1]
	}
	for _, r := range adj {
		if x.limitReached {
			return nil
		}
		if onTrail(x.rels[trail:], r) || !relMatches(rp, r) {
			continue
		}
		t := r.To
		if rp.Reverse {
			t = r.From
		}
		tn := x.db.nodes[t-1]
		x.rels = append(x.rels, r)
		x.nodes = append(x.nodes, tn)
		err := x.expand(pi, i, tn, depth+1, trail)
		x.rels = x.rels[:len(x.rels)-1]
		x.nodes = x.nodes[:len(x.nodes)-1]
		if err != nil {
			return err
		}
	}
	return nil
}

// arrive binds the end of relationship pattern i (node index i+1) to
// target, reached through x.rels[trail:], and continues the chain.
func (x *execState) arrive(pi, i int, target *Node, trail int) error {
	p := &x.pats[pi]
	np := &p.Nodes[i+1]
	if !nodeMatches(np, target) {
		return nil
	}
	var un undo
	if np.Var != "" {
		if existing, ok := x.b[np.Var]; ok {
			en, isNode := existing.(*Node)
			if !isNode || en.ID != target.ID {
				return nil
			}
		} else {
			un = x.bind(np.Var, target)
		}
	}
	var ur undo
	if rv := p.Rels[i].Var; rv != "" {
		var rels []*Rel // nil for a zero-length match
		if len(x.rels) > trail {
			rels = append(rels, x.rels[trail:]...)
		}
		ur = x.bind(rv, rels)
	}
	err := x.chain(pi, i+1, target)
	x.restore(ur)
	x.restore(un)
	return err
}

func onTrail(trail []*Rel, r *Rel) bool {
	for _, t := range trail {
		if t == r {
			return true
		}
	}
	return false
}

func relMatches(rp *RelPattern, r *Rel) bool {
	if len(rp.Types) > 0 {
		ok := false
		for _, t := range rp.Types {
			if r.Type == t {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for name, want := range rp.Props {
		if !valueEq(r.Props[name], want) {
			return false
		}
	}
	return true
}

func nodeMatches(np *NodePattern, n *Node) bool {
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false
		}
	}
	for name, want := range np.Props {
		if !valueEq(n.Props[name], want) {
			return false
		}
	}
	return true
}

// lessValues orders values for ORDER BY: numbers before strings, both
// ascending; other types compare by rendering.
func lessValues(a, b Value) bool {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		return af < bf
	}
	as, aok2 := a.(string)
	bs, bok2 := b.(string)
	if aok2 && bok2 {
		return as < bs
	}
	if aok != bok {
		return aok // numbers sort first
	}
	return fmt.Sprint(a) < fmt.Sprint(b)
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

func evalExpr(e Expr, b binding, db *DB) (Value, error) {
	switch x := e.(type) {
	case LitExpr:
		return x.Val, nil
	case VarExpr:
		v, ok := b[x.Name]
		if !ok {
			return nil, execErrf("unbound variable %q", x.Name)
		}
		return v, nil
	case PropExpr:
		v, ok := b[x.Var]
		if !ok {
			return nil, execErrf("unbound variable %q", x.Var)
		}
		switch tv := v.(type) {
		case *Node:
			return tv.Props[x.Prop], nil
		case []*Rel:
			if len(tv) == 1 {
				return tv[0].Props[x.Prop], nil
			}
			return nil, execErrf("property access on multi-hop relationship %q", x.Var)
		default:
			return nil, execErrf("property access on non-entity %q", x.Var)
		}
	case NotExpr:
		ok, err := evalBool(x.X, b, db)
		if err != nil {
			return nil, err
		}
		return !ok, nil
	case BinExpr:
		return evalBin(x, b, db)
	case CallExpr:
		return evalCall(x, b, db)
	case ListExpr:
		out := make([]Value, 0, len(x.Elems))
		for _, el := range x.Elems {
			v, err := evalExpr(el, b, db)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return nil, execErrf("unknown expression")
}

func evalBool(e Expr, b binding, db *DB) (bool, error) {
	v, err := evalExpr(e, b, db)
	if err != nil {
		return false, err
	}
	bv, ok := v.(bool)
	if !ok {
		return v != nil, nil
	}
	return bv, nil
}

func evalBin(x BinExpr, b binding, db *DB) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := evalBool(x.L, b, db)
		if err != nil || !l {
			return false, err
		}
		return evalBool(x.R, b, db)
	case "OR":
		l, err := evalBool(x.L, b, db)
		if err != nil {
			return nil, err
		}
		if l {
			return true, nil
		}
		return evalBool(x.R, b, db)
	}
	l, err := evalExpr(x.L, b, db)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(x.R, b, db)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=":
		return valueEq(l, r), nil
	case "<>":
		return !valueEq(l, r), nil
	case "<", ">", "<=", ">=":
		return compareValues(x.Op, l, r)
	case "IN":
		list, ok := r.([]Value)
		if !ok {
			return nil, execErrf("IN requires a list")
		}
		for _, v := range list {
			if valueEq(l, v) {
				return true, nil
			}
		}
		return false, nil
	}
	return nil, execErrf("unknown operator %q", x.Op)
}

func evalCall(x CallExpr, b binding, db *DB) (Value, error) {
	argVal := func(i int) (Value, error) {
		if i >= len(x.Args) {
			return nil, execErrf("%s: missing argument", x.Fn)
		}
		return evalExpr(x.Args[i], b, db)
	}
	switch x.Fn {
	case "id":
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		if n, ok := v.(*Node); ok {
			return int64(n.ID), nil
		}
		return nil, execErrf("id: argument is not a node")
	case "labels":
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		n, ok := v.(*Node)
		if !ok {
			return nil, execErrf("labels: argument is not a node")
		}
		out := make([]Value, len(n.Labels))
		for i, l := range n.Labels {
			out[i] = l
		}
		return out, nil
	case "length":
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		switch tv := v.(type) {
		case Path:
			return int64(tv.Len()), nil
		case []*Rel:
			return int64(len(tv)), nil
		case []Value:
			return int64(len(tv)), nil
		}
		return nil, execErrf("length: unsupported argument")
	case "type":
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		if rels, ok := v.([]*Rel); ok && len(rels) == 1 {
			return rels[0].Type, nil
		}
		return nil, execErrf("type: argument is not a single relationship")
	case "count":
		// count(x) in our subset counts non-null per row: 0 or 1.
		v, err := argVal(0)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return int64(0), nil
		}
		return int64(1), nil
	}
	return nil, execErrf("unknown function %q", x.Fn)
}

func valueEq(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	// Numeric comparison across int64/float64.
	af, aNum := toFloat(a)
	bf, bNum := toFloat(b)
	if aNum && bNum {
		return af == bf
	}
	return a == b
}

func toFloat(v Value) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	case int:
		return float64(n), true
	}
	return 0, false
}

func compareValues(op string, l, r Value) (Value, error) {
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		switch op {
		case "<":
			return lf < rf, nil
		case ">":
			return lf > rf, nil
		case "<=":
			return lf <= rf, nil
		default:
			return lf >= rf, nil
		}
	}
	ls, lok2 := l.(string)
	rs, rok2 := r.(string)
	if lok2 && rok2 {
		switch op {
		case "<":
			return ls < rs, nil
		case ">":
			return ls > rs, nil
		case "<=":
			return ls <= rs, nil
		default:
			return ls >= rs, nil
		}
	}
	return nil, execErrf("cannot compare %T and %T", l, r)
}

func renderExpr(e Expr) string {
	switch x := e.(type) {
	case VarExpr:
		return x.Name
	case PropExpr:
		return x.Var + "." + x.Prop
	case CallExpr:
		var args []string
		for _, a := range x.Args {
			args = append(args, renderExpr(a))
		}
		return x.Fn + "(" + strings.Join(args, ",") + ")"
	case LitExpr:
		return fmt.Sprint(x.Val)
	}
	return ""
}

func rowKey(cols []string, row Row) string {
	var sb strings.Builder
	sorted := append([]string(nil), cols...)
	sort.Strings(sorted)
	for _, c := range sorted {
		fmt.Fprintf(&sb, "%s=%v;", c, keyOf(row[c]))
	}
	return sb.String()
}

func keyOf(v Value) string {
	switch tv := v.(type) {
	case *Node:
		return fmt.Sprintf("n%d", tv.ID)
	case Path:
		var sb strings.Builder
		for _, r := range tv.Rels {
			fmt.Fprintf(&sb, "r%d,", r.ID)
		}
		return sb.String()
	case []*Rel:
		var sb strings.Builder
		for _, r := range tv {
			fmt.Fprintf(&sb, "r%d,", r.ID)
		}
		return sb.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}
