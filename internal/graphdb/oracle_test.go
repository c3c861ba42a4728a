package graphdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/budget"
)

// oracleQueries are the query shapes the bind-and-undo matcher is
// checked on against refExecBound. bound names the variable pre-bound
// to each node in turn ("" runs the query unbound).
var oracleQueries = []struct {
	src   string
	bound string
}{
	// The prepared Table 1/2 queries of package queries.
	{src: `MATCH (p:Param {source: true}) RETURN p`},
	{src: `MATCH (o)-[:P {prop: '__proto__'}]->(sub) RETURN DISTINCT sub`},
	{src: `MATCH (o)-[:P {prop: 'constructor'}]->(c)-[:P {prop: 'prototype'}]->(sub) RETURN DISTINCT sub`},
	{src: `MATCH (sub)-[:V*0..6]->(mid)-[v:V]->(ver)-[p:P]->(val) RETURN DISTINCT ver, val`, bound: "sub"},
	{src: `MATCH (sub)-[:V*0..6]->(mid)-[v:V]->(ver)-[p:P]->(val) RETURN DISTINCT ver, val`},
	{src: `MATCH (o)-[:P {prop: '*'}]->(sub) RETURN o, sub`},
	{src: `MATCH (mid)-[:V {prop: '*'}]->(ver)-[:P {prop: '*'}]->(val) RETURN DISTINCT mid, ver, val`},
	{src: `MATCH p = (s:Param {source: true})-[:D|P|V*1..24]->(t) RETURN p, id(s) AS src, id(t) AS dst`},
	// Unlabeled and labeled starts.
	{src: `MATCH (a) RETURN a`},
	{src: `MATCH (a:Object)-[:P]->(b) RETURN a, b`},
	{src: `MATCH (a:Call {k: 1})-->(b:Object) RETURN a.k, b`},
	// Reverse relationships and variable-length ranges.
	{src: `MATCH (a)<-[:V]-(b) RETURN a, b`},
	{src: `MATCH (a)<-[r:D|P*1..3]-(b) RETURN r, b`},
	{src: `MATCH (a)-[:V*0..3]->(b) RETURN a, b`},
	{src: `MATCH (a)-[r*0..2]->(b) RETURN length(r), r, a, b`},
	{src: `MATCH (a)-[*2]->(b) RETURN a, b`},
	{src: `MATCH (a)-[:D*..]->(b:Call) RETURN DISTINCT a, b`},
	// Relationship and path variables.
	{src: `MATCH p = (a:Param)-[*0..2]->(b) RETURN p, length(p)`},
	{src: `MATCH p = (a)-[r:P]->(b)-[s*1..2]->(c) RETURN p, r, s, type(r), r.prop`},
	{src: `MATCH p = (a)-[:P]->(b), q = (b)<-[:V*0..2]-(c) RETURN p, q, length(q)`},
	{src: `MATCH p = (a) RETURN p`},
	// Pre-bound variables, repeated node variables and joins.
	{src: `MATCH (a)-[:D]->(b) RETURN b`, bound: "a"},
	{src: `MATCH (x)<-[r*1..3]-(y) RETURN r, y`, bound: "x"},
	{src: `MATCH (a)-[:D]->(b)-[:D]->(a) RETURN a, b`},
	{src: `MATCH (a:Param)-[:D]->(b) MATCH (b)-[:P]->(c) RETURN a, c`},
	{src: `MATCH (a), (b)-[:V]->(c) WHERE a.k = c.k RETURN a, c LIMIT 4`},
	{src: `MATCH (a)-[*1..2]->(b) WHERE id(a) < id(b) AND NOT b.k = 2 RETURN id(a), id(b)`},
	// DISTINCT, ORDER BY, SKIP/LIMIT and count.
	{src: `MATCH (a)-[:D|P|V*1..3]->(b) RETURN DISTINCT b ORDER BY b.k DESC SKIP 1 LIMIT 3`},
	{src: `MATCH (a)-[:D|P|V*1..3]->(b) RETURN a, b ORDER BY id(b)`},
	{src: `MATCH (a)-->(b) RETURN count() AS n, count(b.k) AS m`},
	{src: `MATCH (a)-[:P]->(b) RETURN a LIMIT 2`},
	{src: `MATCH (a)-[:P|V]->(b) RETURN DISTINCT a SKIP 2`},
	// Evaluation errors must surface identically.
	{src: `MATCH (a)-[r:P]->(b), (r)-->(c) RETURN c`},
	{src: `MATCH (a)-[r:D*2..3]->(b) RETURN r.prop`},
}

// oracleGraph builds a small random property graph from seed: up to 8
// nodes with random labels and properties, and up to 16 D/P/V
// relationships (cycles and self-loops included).
func oracleGraph(seed int64) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := NewDB()
	labels := []string{"Object", "Call", "Param"}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		var ls []string
		for _, l := range labels {
			if rng.Intn(3) == 0 {
				ls = append(ls, l)
			}
		}
		var props map[string]Value
		if rng.Intn(4) > 0 {
			props = map[string]Value{"k": int64(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				props["source"] = true
			}
		}
		db.CreateNode(ls, props)
	}
	types := []string{"D", "P", "V"}
	propNames := []string{"*", "__proto__", "constructor", "prototype", "x"}
	m := rng.Intn(17)
	for i := 0; i < m; i++ {
		from, to := NodeID(1+rng.Intn(n)), NodeID(1+rng.Intn(n))
		typ := types[rng.Intn(len(types))]
		var props map[string]Value
		if typ != "D" {
			props = map[string]Value{"prop": propNames[rng.Intn(len(propNames))]}
		}
		if _, err := db.CreateRel(from, to, typ, props); err != nil {
			panic(err) // endpoints are in range by construction
		}
	}
	return db
}

// oracleRun executes q under a fresh budget capped at maxSteps and
// returns the result, the error text and the steps charged.
func oracleRun(db *DB, maxSteps int, exec func() (*Result, error)) (*Result, string, int) {
	b := budget.New(budget.Limits{MaxSteps: maxSteps})
	db.SetBudget(b)
	defer db.SetBudget(nil)
	res, err := exec()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return res, msg, b.Steps()
}

// Property: on random small graphs, the bind-and-undo matcher returns
// the same columns and the same rows in the same order as the
// clone-per-binding reference, fails with the same error, and charges
// the same number of budget steps — with and without a step cap that
// trips mid-query.
func TestExecMatchesReferenceQuick(t *testing.T) {
	parsed := make([]*Query, len(oracleQueries))
	for i, oq := range oracleQueries {
		q, err := ParseQuery(oq.src)
		if err != nil {
			t.Fatalf("%s: %v", oq.src, err)
		}
		parsed[i] = q
	}
	check := func(seed int64) bool {
		db := oracleGraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i, oq := range oracleQueries {
			q := parsed[i]
			bounds := []map[string]*Node{nil}
			if oq.bound != "" {
				bounds = bounds[:0]
				for _, n := range db.AllNodes() {
					bounds = append(bounds, map[string]*Node{oq.bound: n})
				}
			}
			for _, bound := range bounds {
				// A generous cap bounds cyclic expansions; a tight
				// random one checks the trip point.
				for _, maxSteps := range []int{20000, 1 + rng.Intn(60)} {
					got, gotErr, gotSteps := oracleRun(db, maxSteps, func() (*Result, error) { return db.ExecBound(q, bound) })
					want, wantErr, wantSteps := oracleRun(db, maxSteps, func() (*Result, error) { return db.refExecBound(q, bound) })
					where := fmt.Sprintf("seed %d, %q, bound %v, MaxSteps %d", seed, oq.src, bound, maxSteps)
					if gotErr != wantErr || gotSteps != wantSteps {
						t.Logf("%s: err %q steps %d, reference err %q steps %d", where, gotErr, gotSteps, wantErr, wantSteps)
						return false
					}
					if !reflect.DeepEqual(got, want) {
						t.Logf("%s:\n got  %v\n want %v", where, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
