//go:build !race

package graphdb

import "testing"

// allocChain builds n Object nodes chained by P edges on property "x",
// so no relationship matches a `__proto__` lookup.
func allocChain(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	for i := 0; i < n; i++ {
		db.CreateNode([]string{"Object"}, map[string]Value{"line": int64(i)})
	}
	for i := 1; i < n; i++ {
		if _, err := db.CreateRel(NodeID(i), NodeID(i+1), "P", map[string]Value{"prop": "x"}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// An unlabeled pattern that matches nothing visits every node, but the
// matcher binds in place and builds no path, so its allocations are a
// small per-query constant that does not grow with the graph. (The
// race detector changes allocation counts, hence the build tag.)
func TestNoMatchScanAllocsIndependentOfNodes(t *testing.T) {
	q, err := ParseQuery(`MATCH (o)-[:P {prop: '__proto__'}]->(sub) RETURN DISTINCT sub`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		db := allocChain(t, n)
		return testing.AllocsPerRun(20, func() {
			res, err := db.Exec(q)
			if err != nil || len(res.Rows) != 0 {
				t.Fatalf("rows %v, err %v", res, err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	if large != small {
		t.Errorf("allocations grow with the graph: %v at 200 nodes, %v at 2000", small, large)
	}
	const bound = 16
	if large > bound {
		t.Errorf("no-match scan over 2000 nodes: %v allocations, want <= %d", large, bound)
	}
}
