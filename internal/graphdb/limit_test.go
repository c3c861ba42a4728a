package graphdb

import (
	"fmt"
	"testing"

	"repro/internal/budget"
)

// limitChain builds n Object nodes chained by P edges on property "x".
// Node i carries line i and k "even"/"odd", except the last, whose k is
// "last".
func limitChain(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	for i := 0; i < n; i++ {
		k := []string{"even", "odd"}[i%2]
		if i == n-1 {
			k = "last"
		}
		db.CreateNode([]string{"Object"}, map[string]Value{"line": int64(i), "k": k})
	}
	for i := 1; i < n; i++ {
		if _, err := db.CreateRel(NodeID(i), NodeID(i+1), "P", map[string]Value{"prop": "x"}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// runSteps executes src over db under a fresh budget and returns the
// result and the budget steps it charged.
func runSteps(t *testing.T, db *DB, src string) (*Result, int) {
	t.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	b := budget.New(budget.Limits{})
	db.SetBudget(b)
	defer db.SetBudget(nil)
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res, b.Steps()
}

func rowStrings(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		out = append(out, rowKey(res.Columns, row))
	}
	return out
}

// A LIMIT query without ORDER BY or SKIP stops starting candidates and
// expansions once its rows are in: its budget steps do not grow with
// the graph, and its rows are the first rows of the unlimited query.
// ORDER BY, SKIP and DISTINCT combinations that need later rows still
// see them.
func TestLimitStopsScan(t *testing.T) {
	cases := []struct {
		query   string // with LIMIT
		full    string // the same match without LIMIT (and SKIP)
		skip    int
		limit   int
		bounded bool // steps independent of graph size
	}{
		{`MATCH (a) RETURN a LIMIT 1`, `MATCH (a) RETURN a`, 0, 1, true},
		{`MATCH (a:Object) RETURN a.line LIMIT 3`, `MATCH (a:Object) RETURN a.line`, 0, 3, true},
		{`MATCH (a)-[:P*1..3]->(b) RETURN a, b LIMIT 2`, `MATCH (a)-[:P*1..3]->(b) RETURN a, b`, 0, 2, true},
		{`MATCH (a)-[:P*0..2]->(b) RETURN b LIMIT 1`, `MATCH (a)-[:P*0..2]->(b) RETURN b`, 0, 1, true},
		{`MATCH (a), (b {line: 0}) RETURN a, b LIMIT 1`, `MATCH (a), (b {line: 0}) RETURN a, b`, 0, 1, true},
		{`MATCH (a) RETURN DISTINCT a.k LIMIT 2`, `MATCH (a) RETURN DISTINCT a.k`, 0, 2, true},
		// DISTINCT needs the last node for its third row.
		{`MATCH (a) RETURN DISTINCT a.k LIMIT 3`, `MATCH (a) RETURN DISTINCT a.k`, 0, 3, false},
		{`MATCH (a) RETURN a.line ORDER BY a.line DESC LIMIT 1`, `MATCH (a) RETURN a.line ORDER BY a.line DESC`, 0, 1, false},
		{`MATCH (a) RETURN a.line SKIP 5 LIMIT 2`, `MATCH (a) RETURN a.line`, 5, 2, false},
	}
	for _, c := range cases {
		steps := map[int]int{}
		for _, n := range []int{100, 1000} {
			db := limitChain(t, n)
			got, s := runSteps(t, db, c.query)
			full, fullSteps := runSteps(t, db, c.full)
			want := rowStrings(full)
			if c.skip < len(want) {
				want = want[c.skip:]
			} else {
				want = nil
			}
			if len(want) > c.limit {
				want = want[:c.limit]
			}
			if fmt.Sprint(rowStrings(got)) != fmt.Sprint(want) {
				t.Errorf("%s over %d nodes: rows %v, want %v", c.query, n, rowStrings(got), want)
			}
			if s > fullSteps {
				t.Errorf("%s over %d nodes: %d steps, more than the unlimited query's %d", c.query, n, s, fullSteps)
			}
			steps[n] = s
		}
		if c.bounded && steps[100] != steps[1000] {
			t.Errorf("%s: steps grow with the graph: %d at 100 nodes, %d at 1000", c.query, steps[100], steps[1000])
		}
		if !c.bounded && steps[1000] <= steps[100] {
			t.Errorf("%s: must see every row, but charged %d steps at 100 nodes and %d at 1000", c.query, steps[100], steps[1000])
		}
	}
}
