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

func (b binding) clone() binding {
	c := make(binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

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
	start := make(binding, len(bound))
	for v, n := range bound {
		start[v] = n
	}
	var patterns []Pattern
	for _, m := range q.Matches {
		patterns = append(patterns, m.Patterns...)
	}

	res := &Result{}
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
	aggregate := len(q.Return.Items) > 0
	for _, item := range q.Return.Items {
		call, ok := item.Expr.(CallExpr)
		if !ok || call.Fn != "count" {
			aggregate = false
			break
		}
	}
	counts := make([]int64, len(q.Return.Items))

	seen := map[string]bool{}
	limitReached := false
	// ORDER BY needs every row before truncation.
	earlyStop := q.Return.OrderBy == nil

	type sortedRow struct {
		row Row
		key Value
	}
	var sortable []sortedRow

	var emit func(b binding) error
	emit = func(b binding) error {
		if q.Where != nil {
			ok, err := evalBool(q.Where, b, db)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		if aggregate {
			for i, item := range q.Return.Items {
				call := item.Expr.(CallExpr)
				if len(call.Args) == 0 {
					counts[i]++
					continue
				}
				v, err := evalExpr(call.Args[0], b, db)
				if err != nil {
					return err
				}
				if v != nil {
					counts[i]++
				}
			}
			return nil
		}
		row := Row{}
		for i, item := range q.Return.Items {
			v, err := evalExpr(item.Expr, b, db)
			if err != nil {
				return err
			}
			row[res.Columns[i]] = v
		}
		if q.Return.Distinct {
			key := rowKey(res.Columns, row)
			if seen[key] {
				return nil
			}
			seen[key] = true
		}
		if q.Return.OrderBy != nil {
			k, err := evalExpr(q.Return.OrderBy, b, db)
			if err != nil {
				return err
			}
			sortable = append(sortable, sortedRow{row: row, key: k})
			return nil
		}
		res.Rows = append(res.Rows, row)
		if q.Return.Limit > 0 && q.Return.Skip == 0 && len(res.Rows) >= q.Return.Limit && earlyStop {
			limitReached = true
		}
		return nil
	}

	var match func(pi int, b binding) error
	match = func(pi int, b binding) error {
		if limitReached {
			return nil
		}
		if pi == len(patterns) {
			return emit(b)
		}
		return db.matchPattern(&patterns[pi], b, func(nb binding) error {
			return match(pi+1, nb)
		})
	}
	if err := match(0, start); err != nil {
		return nil, err
	}

	if aggregate {
		row := Row{}
		for i := range q.Return.Items {
			row[res.Columns[i]] = counts[i]
		}
		res.Rows = append(res.Rows, row)
		return res, nil
	}

	if q.Return.OrderBy != nil {
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

// matchPattern enumerates all bindings of one pattern, invoking k for
// each. Bound variables already present in b constrain the match.
func (db *DB) matchPattern(p *Pattern, b binding, k func(binding) error) error {
	// Enumerate candidates for the first node.
	first := p.Nodes[0]
	cands, err := db.nodeCandidates(first, b)
	if err != nil {
		return err
	}
	for _, n := range cands {
		if err := db.bud.Step(); err != nil {
			return err
		}
		nb := b.clone()
		if first.Var != "" {
			nb[first.Var] = n
		}
		path := Path{Nodes: []*Node{n}}
		if err := db.matchChain(p, 0, n, nb, path, k); err != nil {
			return err
		}
	}
	return nil
}

// matchChain extends the match from node index i along relationship i.
func (db *DB) matchChain(p *Pattern, i int, cur *Node, b binding, path Path, k func(binding) error) error {
	if i == len(p.Rels) {
		if p.PathVar != "" {
			b = b.clone()
			b[p.PathVar] = path
		}
		return k(b)
	}
	rp := &p.Rels[i]
	np := &p.Nodes[i+1]
	return db.expandRel(rp, cur, path, func(target *Node, rels []*Rel, npath Path) error {
		if !db.nodeMatches(np, target, b) {
			return nil
		}
		nb := b.clone()
		if np.Var != "" {
			if existing, ok := nb[np.Var]; ok {
				en, isNode := existing.(*Node)
				if !isNode || en.ID != target.ID {
					return nil
				}
			} else {
				nb[np.Var] = target
			}
		}
		if rp.Var != "" {
			nb[rp.Var] = rels
		}
		return db.matchChain(p, i+1, target, nb, npath, k)
	})
}

// expandRel enumerates matches of one relationship pattern from cur,
// following trail semantics (no relationship repeated within one
// variable-length expansion).
func (db *DB) expandRel(rp *RelPattern, cur *Node, path Path, k func(*Node, []*Rel, Path) error) error {
	typeOK := func(r *Rel) bool {
		if len(rp.Types) == 0 {
			return true
		}
		for _, t := range rp.Types {
			if r.Type == t {
				return true
			}
		}
		return false
	}
	propsOK := func(r *Rel) bool {
		for name, want := range rp.Props {
			if !valueEq(r.Props[name], want) {
				return false
			}
		}
		return true
	}
	step := func(n *Node) []*Rel {
		if rp.Reverse {
			return db.in[n.ID]
		}
		return db.out[n.ID]
	}
	other := func(r *Rel) *Node {
		if rp.Reverse {
			return db.nodes[r.From]
		}
		return db.nodes[r.To]
	}

	used := map[int64]bool{}
	var rec func(n *Node, depth int, rels []*Rel, pth Path) error
	rec = func(n *Node, depth int, rels []*Rel, pth Path) error {
		if err := db.bud.Step(); err != nil {
			return err
		}
		// depth 0 (zero-length) is handled by the caller below.
		if depth > 0 && depth >= rp.MinHops {
			if err := k(n, append([]*Rel(nil), rels...), pth); err != nil {
				return err
			}
		}
		if depth == rp.MaxHops {
			return nil
		}
		for _, r := range step(n) {
			if used[r.ID] || !typeOK(r) || !propsOK(r) {
				continue
			}
			used[r.ID] = true
			t := other(r)
			np := Path{
				Nodes: append(append([]*Node(nil), pth.Nodes...), t),
				Rels:  append(append([]*Rel(nil), pth.Rels...), r),
			}
			if err := rec(t, depth+1, append(rels, r), np); err != nil {
				return err
			}
			used[r.ID] = false
		}
		return nil
	}
	if rp.MinHops == 0 {
		// Zero-length match allowed: target is cur itself.
		if err := k(cur, nil, path); err != nil {
			return err
		}
	}
	return rec(cur, 0, nil, path)
}

// nodeCandidates returns the candidate nodes for a node pattern: the
// already-bound node, a label index scan, or all nodes.
func (db *DB) nodeCandidates(np NodePattern, b binding) ([]*Node, error) {
	if np.Var != "" {
		if v, ok := b[np.Var]; ok {
			n, isNode := v.(*Node)
			if !isNode {
				return nil, execErrf("variable %q is not a node", np.Var)
			}
			if db.nodeMatches(&np, n, b) {
				return []*Node{n}, nil
			}
			return nil, nil
		}
	}
	var pool []*Node
	if len(np.Labels) > 0 {
		pool = db.NodesByLabel(np.Labels[0])
	} else {
		pool = db.AllNodes()
	}
	var out []*Node
	for _, n := range pool {
		if db.nodeMatches(&np, n, b) {
			out = append(out, n)
		}
	}
	return out, nil
}

func (db *DB) nodeMatches(np *NodePattern, n *Node, _ binding) bool {
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
