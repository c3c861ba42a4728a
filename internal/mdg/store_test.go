package mdg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStoreGetSet(t *testing.T) {
	s := NewStore(nil)
	if s.Get("x") != nil {
		t.Fatal("unbound variable should be nil")
	}
	s.Set("x", []Loc{1, 2})
	if got := s.Get("x"); len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	s.Set("x", []Loc{3})
	if got := s.Get("x"); len(got) != 1 || got[0] != 3 {
		t.Fatalf("strong update failed: %v", got)
	}
}

func TestStoreDedup(t *testing.T) {
	s := NewStore(nil)
	s.Set("x", []Loc{1, 1, 2, 2})
	if got := s.Get("x"); len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestStoreScopeChain(t *testing.T) {
	outer := NewStore(nil)
	outer.SetLocal("a", []Loc{1})
	inner := NewStore(outer)
	if got := inner.Get("a"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("inner should read outer: %v", got)
	}
	// Assignment updates the binding scope, not the inner one.
	inner.Set("a", []Loc{2})
	if got := outer.Get("a"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("outer should be updated: %v", got)
	}
	// SetLocal shadows.
	inner.SetLocal("a", []Loc{3})
	if got := inner.Get("a"); got[0] != 3 {
		t.Fatalf("inner = %v", got)
	}
	if got := outer.Get("a"); got[0] != 2 {
		t.Fatalf("outer must keep its own binding: %v", got)
	}
}

func TestStoreReplaceAll(t *testing.T) {
	outer := NewStore(nil)
	outer.SetLocal("a", []Loc{1})
	inner := NewStore(outer)
	inner.SetLocal("b", []Loc{1, 5})
	inner.ReplaceAll(map[Loc]Loc{1: 9})
	if got := inner.Get("b"); !hasLoc(got, 9) || hasLoc(got, 1) {
		t.Fatalf("b = %v", got)
	}
	if got := outer.Get("a"); !hasLoc(got, 9) {
		t.Fatalf("replace must traverse the scope chain: a = %v", got)
	}
}

func TestStoreJoinAndLeq(t *testing.T) {
	a := NewStore(nil)
	a.SetLocal("x", []Loc{1})
	b := NewStore(nil)
	b.SetLocal("x", []Loc{2})
	b.SetLocal("y", []Loc{3})
	a.Join(b)
	if got := a.Get("x"); len(got) != 2 {
		t.Fatalf("x = %v", got)
	}
	if got := a.Get("y"); len(got) != 1 {
		t.Fatalf("y = %v", got)
	}
	if !b.Leq(a) {
		t.Fatal("b ⊑ a must hold after join")
	}
	if a.Leq(b) {
		t.Fatal("a ⋢ b (a has x=1 that b lacks)")
	}
}

func TestStoreCopyIsolation(t *testing.T) {
	s := NewStore(nil)
	s.SetLocal("x", []Loc{1})
	c := s.Copy()
	c.Set("x", []Loc{2})
	if got := s.Get("x"); got[0] != 1 {
		t.Fatalf("copy should not alias: %v", got)
	}
}

func TestStoreWeaken(t *testing.T) {
	s := NewStore(nil)
	s.SetLocal("x", []Loc{1})
	s.Weaken("x", []Loc{2})
	if got := s.Get("x"); len(got) != 2 {
		t.Fatalf("x = %v", got)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	a := NewStore(nil)
	a.SetLocal("x", []Loc{2, 1})
	a.SetLocal("y", []Loc{3})
	b := NewStore(nil)
	b.SetLocal("y", []Loc{3})
	b.SetLocal("x", []Loc{1, 2})
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("snapshots differ: %q vs %q", a.Snapshot(), b.Snapshot())
	}
}

// Property: Join is an upper bound — after a.Join(b), both original
// stores are ⊑ the result.
func TestJoinUpperBoundQuick(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := NewStore(nil)
		b := NewStore(nil)
		for i, x := range xs {
			a.SetLocal(varName(i), []Loc{Loc(x%8) + 1})
		}
		for i, y := range ys {
			b.SetLocal(varName(i), []Loc{Loc(y%8) + 1})
		}
		aOrig := a.Copy()
		a.Join(b)
		return aOrig.Leq(a) && b.Leq(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Join is idempotent on equal stores.
func TestJoinIdempotentQuick(t *testing.T) {
	f := func(xs []uint8) bool {
		a := NewStore(nil)
		for i, x := range xs {
			a.SetLocal(varName(i), []Loc{Loc(x%8) + 1})
		}
		snap := a.Snapshot()
		a.Join(a.Copy())
		return a.Snapshot() == snap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LocalEqual agrees with Snapshot equality on random
// deduplicated stores. The second store is a permuted copy of the first
// (so about half the pairs are equal) with one random edit applied in
// the other half; bindings range up to 40 locations so both the scan
// and the set path of the comparison are exercised.
func TestLocalEqualMatchesSnapshotQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewStore(nil)
		for i, n := 0, r.Intn(6); i < n; i++ {
			ls := make([]Loc, r.Intn(40))
			for j := range ls {
				ls[j] = Loc(r.Intn(48))
			}
			a.SetLocal(varName(i), ls)
		}
		b := NewStore(nil)
		for x, ls := range a.m {
			p := append([]Loc(nil), ls...)
			r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			b.SetLocal(x, p)
		}
		if r.Intn(2) == 0 {
			vars := b.Vars()
			switch k := r.Intn(5); {
			case k == 0 || len(vars) == 0:
				b.SetLocal("z", []Loc{Loc(r.Intn(48))})
			case k == 1:
				delete(b.m, vars[r.Intn(len(vars))])
			case k == 2:
				x := vars[r.Intn(len(vars))]
				b.Weaken(x, []Loc{Loc(r.Intn(48))})
			case k == 3:
				x := vars[r.Intn(len(vars))]
				if ls := b.m[x]; len(ls) > 0 {
					b.SetLocal(x, ls[1:])
				}
			default: // same length, one location swapped for a fresh one
				x := vars[r.Intn(len(vars))]
				if ls := b.m[x]; len(ls) > 0 {
					ls[r.Intn(len(ls))] = 48
				}
			}
		}
		want := a.Snapshot() == b.Snapshot()
		return a.LocalEqual(b) == want && b.LocalEqual(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func varName(i int) string {
	return string(rune('a' + i%20))
}
