package graphdb

import (
	"fmt"
	"sort"
)

// refBinding is the reference matcher's binding: copied (clone) at
// every extension instead of bound and undone in place.
type refBinding map[string]any

func (b refBinding) clone() refBinding {
	c := make(refBinding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// refExecBound is the clone-per-binding matcher that ExecBound
// replaced: every candidate node and every relationship step copies the
// whole binding map, and every expansion copies its path. It is kept
// as the equivalence oracle for the bind-and-undo matcher.
func (db *DB) refExecBound(q *Query, bound map[string]*Node) (*Result, error) {
	start := make(refBinding, len(bound))
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

	var emit func(b refBinding) error
	emit = func(b refBinding) error {
		if q.Where != nil {
			ok, err := evalBool(q.Where, binding(b), db)
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
				v, err := evalExpr(call.Args[0], binding(b), db)
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
			v, err := evalExpr(item.Expr, binding(b), db)
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
			k, err := evalExpr(q.Return.OrderBy, binding(b), db)
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

	// stop reports a reached LIMIT: no candidate or expansion starts
	// after it, matching ExecBound's early exit step for step.
	stop := func() bool { return limitReached }
	var match func(pi int, b refBinding) error
	match = func(pi int, b refBinding) error {
		if limitReached {
			return nil
		}
		if pi == len(patterns) {
			return emit(b)
		}
		return db.refMatchPattern(&patterns[pi], b, stop, func(nb refBinding) error {
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

// refMatchPattern enumerates all bindings of one pattern, invoking k for
// each. Bound variables already present in b constrain the match.
func (db *DB) refMatchPattern(p *Pattern, b refBinding, stop func() bool, k func(refBinding) error) error {
	// Enumerate candidates for the first node.
	first := p.Nodes[0]
	cands, err := db.refNodeCandidates(first, b)
	if err != nil {
		return err
	}
	for _, n := range cands {
		if stop() {
			return nil
		}
		if err := db.bud.Step(); err != nil {
			return err
		}
		nb := b.clone()
		if first.Var != "" {
			nb[first.Var] = n
		}
		path := Path{Nodes: []*Node{n}}
		if err := db.refMatchChain(p, 0, n, nb, path, stop, k); err != nil {
			return err
		}
	}
	return nil
}

// refMatchChain extends the match from node index i along relationship i.
func (db *DB) refMatchChain(p *Pattern, i int, cur *Node, b refBinding, path Path, stop func() bool, k func(refBinding) error) error {
	if i == len(p.Rels) {
		if p.PathVar != "" {
			b = b.clone()
			b[p.PathVar] = path
		}
		return k(b)
	}
	rp := &p.Rels[i]
	np := &p.Nodes[i+1]
	return db.refExpandRel(rp, cur, path, stop, func(target *Node, rels []*Rel, npath Path) error {
		if !db.refNodeMatches(np, target, b) {
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
		return db.refMatchChain(p, i+1, target, nb, npath, stop, k)
	})
}

// refExpandRel enumerates matches of one relationship pattern from cur,
// following trail semantics (no relationship repeated within one
// variable-length expansion).
func (db *DB) refExpandRel(rp *RelPattern, cur *Node, path Path, stop func() bool, k func(*Node, []*Rel, Path) error) error {
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
			return db.In(n.ID)
		}
		return db.Out(n.ID)
	}
	other := func(r *Rel) *Node {
		if rp.Reverse {
			return db.NodeByID(r.From)
		}
		return db.NodeByID(r.To)
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
			if stop() {
				return nil
			}
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
		if stop() {
			return nil
		}
	}
	return rec(cur, 0, nil, path)
}

// refNodeCandidates returns the candidate nodes for a node pattern: the
// already-bound node, a label index scan, or all nodes.
func (db *DB) refNodeCandidates(np NodePattern, b refBinding) ([]*Node, error) {
	if np.Var != "" {
		if v, ok := b[np.Var]; ok {
			n, isNode := v.(*Node)
			if !isNode {
				return nil, execErrf("variable %q is not a node", np.Var)
			}
			if db.refNodeMatches(&np, n, b) {
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
		if db.refNodeMatches(&np, n, b) {
			out = append(out, n)
		}
	}
	return out, nil
}

func (db *DB) refNodeMatches(np *NodePattern, n *Node, _ refBinding) bool {
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
