package queries

import (
	"testing"

	"repro/internal/graphdb"
)

// TestTaintReachRevisitsAtShallowerDepth: a node first reached by a
// long path must be expanded again when a shorter path reaches it, or
// the hop bound hides everything beyond it. Graph: src → a1 → … → a7 →
// x, then src → x directly, then x → y → z. At 9 hops z is 3 hops away
// via the direct edge, but the long path reaches x at depth 8 first.
func TestTaintReachRevisitsAtShallowerDepth(t *testing.T) {
	db := graphdb.NewDB()
	node := func() graphdb.NodeID { return db.CreateNode([]string{"Object"}, nil).ID }
	rel := func(from, to graphdb.NodeID) {
		if _, err := db.CreateRel(from, to, RelDep, nil); err != nil {
			t.Fatal(err)
		}
	}
	src := node()
	prev := src
	for i := 0; i < 7; i++ {
		a := node()
		rel(prev, a)
		prev = a
	}
	x, y, z := node(), node(), node()
	rel(prev, x)
	rel(src, x)
	rel(x, y)
	rel(y, z)

	lg := &LoadedGraph{DB: db}
	reach := lg.TaintReach(src, 9)
	for _, id := range []graphdb.NodeID{x, y, z} {
		if !reach[id] {
			t.Errorf("node %d (within 3 hops of src) not in TaintReach(src, 9) = %v", id, reach)
		}
	}
	if w := lg.TaintPathWitness(src, z, 9); len(w) != 4 || w[0] != src || w[1] != x || w[3] != z {
		t.Errorf("witness src→z = %v, want [src x y z]", w)
	}
	// One hop short of z along the direct path: z is out of reach.
	if lg.TaintPathExists(src, z, 2) {
		t.Error("z reported within 2 hops")
	}
}
