package graphdb

import (
	"fmt"
	"testing"
	"testing/quick"
)

// buildSample creates a small graph:
//
//	(p1:Param {source:true, name:"a"}) -D-> (o1:Object) -D-> (c1:Call {name:"exec"})
//	(o1) -P {prop:"cmd"}-> (o2:Object)
//	(o2) -V {prop:"cmd"}-> (o3:Object)
//	(p2:Param {source:false}) -D-> (c2:Call {name:"log"})
func buildSample(t *testing.T) (*DB, map[string]*Node) {
	t.Helper()
	db := NewDB()
	ns := map[string]*Node{}
	ns["p1"] = db.CreateNode([]string{"Param"}, map[string]Value{"source": true, "name": "a"})
	ns["p2"] = db.CreateNode([]string{"Param"}, map[string]Value{"source": false, "name": "b"})
	ns["o1"] = db.CreateNode([]string{"Object"}, map[string]Value{"name": "o1"})
	ns["o2"] = db.CreateNode([]string{"Object"}, map[string]Value{"name": "o2"})
	ns["o3"] = db.CreateNode([]string{"Object"}, map[string]Value{"name": "o3"})
	ns["c1"] = db.CreateNode([]string{"Call"}, map[string]Value{"name": "exec", "line": int64(7)})
	ns["c2"] = db.CreateNode([]string{"Call"}, map[string]Value{"name": "log", "line": int64(9)})
	mk := func(a, b string, typ string, props map[string]Value) {
		if _, err := db.CreateRel(ns[a].ID, ns[b].ID, typ, props); err != nil {
			t.Fatal(err)
		}
	}
	mk("p1", "o1", "D", nil)
	mk("o1", "c1", "D", nil)
	mk("o1", "o2", "P", map[string]Value{"prop": "cmd"})
	mk("o2", "o3", "V", map[string]Value{"prop": "cmd"})
	mk("p2", "c2", "D", nil)
	return db, ns
}

func mustQuery(t *testing.T, db *DB, q string) *Result {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func TestCreateAndIndex(t *testing.T) {
	db, _ := buildSample(t)
	if db.NumNodes() != 7 || db.NumRels() != 5 {
		t.Fatalf("nodes=%d rels=%d", db.NumNodes(), db.NumRels())
	}
	if len(db.NodesByLabel("Param")) != 2 {
		t.Fatal("label index broken")
	}
	// Ids outside 1..N name no node and have no relationships.
	for _, id := range []NodeID{-1, 0, 8} {
		if db.NodeByID(id) != nil || db.Out(id) != nil || db.In(id) != nil {
			t.Errorf("id %d: NodeByID/Out/In must be nil", id)
		}
	}
	// A node or relationship created without properties keeps nil.
	n := db.CreateNode(nil, nil)
	r, err := db.CreateRel(n.ID, n.ID, "D", nil)
	if err != nil || n.Props != nil || r.Props != nil || n.Prop("x") != nil || r.Prop("x") != nil {
		t.Errorf("nil props: node %v, rel %v, err %v", n.Props, r, err)
	}
}

func TestRelRequiresEndpoints(t *testing.T) {
	db := NewDB()
	n := db.CreateNode([]string{"X"}, nil)
	if _, err := db.CreateRel(n.ID, NodeID(99), "D", nil); err == nil {
		t.Fatal("expected error for missing endpoint")
	}
}

func TestMatchByLabelAndProp(t *testing.T) {
	db, ns := buildSample(t)
	res := mustQuery(t, db, `MATCH (c:Call {name: 'exec'}) RETURN id(c)`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0]["id(c)"] != int64(ns["c1"].ID) {
		t.Fatalf("got %v", res.Rows[0])
	}
}

func TestMatchSingleHop(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (a:Param)-[:D]->(b) RETURN a.name, b.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMatchReverse(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (c:Call {name:'exec'})<-[:D]-(src) RETURN src.name`)
	if len(res.Rows) != 1 || res.Rows[0]["src.name"] != "o1" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestVarLengthPath(t *testing.T) {
	db, _ := buildSample(t)
	// p1 reaches c1 in two D hops.
	res := mustQuery(t, db, `MATCH (s:Param {source: true})-[:D*1..5]->(c:Call) RETURN c.name`)
	if len(res.Rows) != 1 || res.Rows[0]["c.name"] != "exec" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Exact hop count.
	res = mustQuery(t, db, `MATCH (s:Param {source: true})-[:D*2]->(c) RETURN c.name`)
	if len(res.Rows) != 1 || res.Rows[0]["c.name"] != "exec" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Min hops too high: no match.
	res = mustQuery(t, db, `MATCH (s:Param {source: true})-[:D*3..4]->(c) RETURN c.name`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestTypeAlternatives(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (o {name:'o1'})-[:P|V*1..3]->(x) RETURN x.name`)
	if len(res.Rows) != 2 { // o2 and o3
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestRelPropertyFilter(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (a)-[r:P {prop: 'cmd'}]->(b) RETURN b.name`)
	if len(res.Rows) != 1 || res.Rows[0]["b.name"] != "o2" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestWhereClause(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (c:Call) WHERE c.line > 7 RETURN c.name`)
	if len(res.Rows) != 1 || res.Rows[0]["c.name"] != "log" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, `MATCH (c:Call) WHERE c.name = 'exec' OR c.name = 'log' RETURN c.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, `MATCH (p:Param) WHERE NOT p.source = true RETURN p.name`)
	if len(res.Rows) != 1 || res.Rows[0]["p.name"] != "b" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMultiplePatternsJoin(t *testing.T) {
	db, _ := buildSample(t)
	// Shared variable o joins the two patterns.
	res := mustQuery(t, db, `MATCH (s:Param)-[:D]->(o), (o)-[:D]->(c:Call) RETURN s.name, c.name`)
	if len(res.Rows) != 1 || res.Rows[0]["c.name"] != "exec" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestPathBinding(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH p = (s:Param {source:true})-[:D*1..4]->(c:Call) RETURN length(p)`)
	if len(res.Rows) != 1 || res.Rows[0]["length(p)"] != int64(2) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDistinctAndLimit(t *testing.T) {
	db := NewDB()
	hub := db.CreateNode([]string{"Hub"}, nil)
	for i := 0; i < 5; i++ {
		n := db.CreateNode([]string{"Leaf"}, map[string]Value{"v": int64(i % 2)})
		if _, err := db.CreateRel(hub.ID, n.ID, "E", nil); err != nil {
			t.Fatal(err)
		}
	}
	res := mustQuery(t, db, `MATCH (h:Hub)-[:E]->(l) RETURN DISTINCT l.v`)
	if len(res.Rows) != 2 {
		t.Fatalf("distinct rows = %v", res.Rows)
	}
	res = mustQuery(t, db, `MATCH (h:Hub)-[:E]->(l) RETURN l.v LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("limit rows = %v", res.Rows)
	}
}

func TestAlias(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (c:Call {name:'exec'}) RETURN c.line AS line`)
	if res.Columns[0] != "line" || res.Rows[0]["line"] != int64(7) {
		t.Fatalf("res = %+v", res)
	}
}

func TestTrailSemanticsNoCycles(t *testing.T) {
	// a <-> b cycle must not loop forever.
	db := NewDB()
	a := db.CreateNode([]string{"N"}, map[string]Value{"name": "a"})
	bn := db.CreateNode([]string{"N"}, map[string]Value{"name": "b"})
	if _, err := db.CreateRel(a.ID, bn.ID, "D", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRel(bn.ID, a.ID, "D", nil); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, `MATCH (x {name:'a'})-[:D*1..10]->(y) RETURN y.name`)
	// Paths: a->b (y=b), a->b->a (y=a). No longer paths exist without
	// repeating a relationship.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestZeroLengthPath(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (o {name:'o1'})-[:P*0..2]->(x) RETURN x.name`)
	// Zero hops: o1 itself; one hop: o2.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestBareArrowRelationship(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (s:Param {source:true})-->(o) RETURN o.name`)
	if len(res.Rows) != 1 || res.Rows[0]["o.name"] != "o1" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	db := NewDB()
	for _, q := range []string{
		``,
		`RETURN 1`,
		`MATCH (a`,
		`MATCH (a) RETURN`,
		`MATCH (a) WHERE RETURN a`,
		`MATCH (a) RETURN a LIMIT x`,
		`MATCH (a:) RETURN a`,
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db, _ := buildSample(t)
	if _, err := db.Query(`MATCH (a:Param) RETURN b.name`); err == nil {
		t.Error("unbound variable must error")
	}
	if _, err := db.Query(`MATCH (a:Param) RETURN id(a.name)`); err == nil {
		t.Error("id() of non-node must error")
	}
}

func TestNumericCoercion(t *testing.T) {
	db := NewDB()
	db.CreateNode([]string{"N"}, map[string]Value{"x": int64(3)})
	db.CreateNode([]string{"N"}, map[string]Value{"x": float64(3.5)})
	res := mustQuery(t, db, `MATCH (n:N) WHERE n.x >= 3.0 RETURN n.x`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLabelsFunction(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (c:Call {name:'exec'}) RETURN labels(c)`)
	ls, ok := res.Rows[0]["labels(c)"].([]Value)
	if !ok || len(ls) != 1 || ls[0] != "Call" {
		t.Fatalf("labels = %v", res.Rows[0])
	}
}

func TestBoundVariableAcrossMatches(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `
MATCH (s:Param {source: true})
MATCH (s)-[:D*1..5]->(c:Call)
RETURN c.name`)
	if len(res.Rows) != 1 || res.Rows[0]["c.name"] != "exec" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// Property: query results are deterministic — same query twice gives the
// same row multiset.
func TestDeterministicQuick(t *testing.T) {
	db, _ := buildSample(t)
	f := func(seed uint8) bool {
		q := `MATCH (a)-[:D|P|V*1..4]->(b) RETURN a.name, b.name`
		r1, err1 := db.Query(q)
		r2, err2 := db.Query(q)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(r1.Rows) != len(r2.Rows) {
			return false
		}
		for i := range r1.Rows {
			if rowKey(r1.Columns, r1.Rows[i]) != rowKey(r2.Columns, r2.Rows[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: on random DAGs, the number of (s)-[*1..k]->(t) matches
// equals a reference DFS path count with trail semantics.
func TestVarLenMatchesReferenceQuick(t *testing.T) {
	f := func(edges []uint8) bool {
		db := NewDB()
		const n = 6
		var nodes []*Node
		for i := 0; i < n; i++ {
			nodes = append(nodes, db.CreateNode([]string{"N"}, map[string]Value{"i": int64(i)}))
		}
		type edge struct{ from, to int }
		var es []edge
		for _, e := range edges {
			from := int(e) % n
			to := int(e>>3) % n
			if from < to { // DAG: edges go up only
				if _, err := db.CreateRel(nodes[from].ID, nodes[to].ID, "E", nil); err != nil {
					return false
				}
				es = append(es, edge{from, to})
			}
		}
		// Reference count of paths 0 -> 5 with <= 5 hops.
		adj := map[int][]int{}
		for _, e := range es {
			adj[e.from] = append(adj[e.from], e.to)
		}
		var count func(at, depth int) int
		count = func(at, depth int) int {
			if depth > 5 {
				return 0
			}
			c := 0
			if at == n-1 && depth > 0 {
				c++
			}
			for _, nx := range adj[at] {
				c += count(nx, depth+1)
			}
			return c
		}
		want := count(0, 0)
		res, err := db.Query(`MATCH (a {i: 0})-[:E*1..5]->(b {i: 5}) RETURN b`)
		if err != nil {
			return false
		}
		return len(res.Rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRelVariableSingleHopProps(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (a)-[r:P]->(b) RETURN r.prop, type(r)`)
	if len(res.Rows) != 1 || res.Rows[0]["r.prop"] != "cmd" || res.Rows[0]["type(r)"] != "P" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestRelVariableMultiHopPropertyError(t *testing.T) {
	db, _ := buildSample(t)
	if _, err := db.Query(`MATCH (s:Param {source:true})-[r:D*1..5]->(c:Call) RETURN r.prop`); err == nil {
		t.Fatal("property access on multi-hop rel var must error")
	}
}

func TestLengthOfRelVar(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (s:Param {source:true})-[r:D*1..5]->(c:Call) RETURN length(r)`)
	if len(res.Rows) != 1 || res.Rows[0]["length(r)"] != int64(2) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLengthOfList(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (c:Call {name:'exec'}) RETURN length(labels(c))`)
	if res.Rows[0]["length(labels(c))"] != int64(1) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestWhereOnMissingPropIsNull(t *testing.T) {
	db, _ := buildSample(t)
	// Comparisons against a missing property: <> nil is true-ish via
	// valueEq(nil, x) = false; ensure no crash and sane filtering.
	res := mustQuery(t, db, `MATCH (c:Call) WHERE c.missing = null RETURN c.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestParenthesizedWhere(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (c:Call) WHERE (c.name = 'exec' OR c.name = 'log') AND NOT c.line = 7 RETURN c.name`)
	if len(res.Rows) != 1 || res.Rows[0]["c.name"] != "log" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCountStar(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `MATCH (n:Object) RETURN count() AS n`)
	if res.Rows[0]["n"] != int64(3) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMixedAggregateRejected(t *testing.T) {
	db, _ := buildSample(t)
	// Mixed count + plain projections fall back to per-row evaluation;
	// count(x) per row is 0/1, which must not crash.
	res := mustQuery(t, db, `MATCH (p:Param) RETURN count(p), p.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestQueryComments(t *testing.T) {
	db, _ := buildSample(t)
	res := mustQuery(t, db, `
// find the exec call
MATCH (c:Call {name: 'exec'}) // inline too
RETURN c.line`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestNegativeNumberLiteral(t *testing.T) {
	db := NewDB()
	db.CreateNode([]string{"N"}, map[string]Value{"v": int64(-5)})
	res := mustQuery(t, db, `MATCH (n:N {v: -5}) RETURN n.v`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// Property: on random graphs of V and P edges, running the proto-write
// scan with sub pre-bound returns the same rows, in the same order, as
// filtering every start node with WHERE id(sub) = N.
func TestExecBoundMatchesWhereIDQuick(t *testing.T) {
	const pattern = `MATCH (sub)-[:V*0..6]->(mid)-[v:V]->(ver)-[p:P]->(val)`
	const ret = `RETURN DISTINCT ver, val`
	q, err := ParseQuery(pattern + "\n" + ret)
	if err != nil {
		t.Fatal(err)
	}
	f := func(edges []uint16) bool {
		db := NewDB()
		const n = 8
		var nodes []*Node
		for i := 0; i < n; i++ {
			nodes = append(nodes, db.CreateNode([]string{"Object"}, nil))
		}
		if len(edges) > 14 {
			edges = edges[:14] // bounds the cyclic V*0..6 expansion
		}
		for _, e := range edges {
			typ := "V"
			if e&1 == 1 {
				typ = "P"
			}
			from, to := int(e>>1)%n, int(e>>4)%n
			if _, err := db.CreateRel(nodes[from].ID, nodes[to].ID, typ, map[string]Value{"prop": "*"}); err != nil {
				return false
			}
		}
		for _, sub := range nodes {
			want, err := db.Query(fmt.Sprintf("%s\nWHERE id(sub) = %d\n%s", pattern, sub.ID, ret))
			if err != nil {
				return false
			}
			got, err := db.ExecBound(q, map[string]*Node{"sub": sub})
			if err != nil || len(got.Rows) != len(want.Rows) {
				return false
			}
			for i := range want.Rows {
				if rowKey(want.Columns, want.Rows[i]) != rowKey(got.Columns, got.Rows[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
