package mdg

import (
	"fmt"
	"math/rand"
	"strings"
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
	inner.ReplaceAll([]Version{{Old: 1, New: 9}})
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

// storeProg is a random program over a store: straight-line writes,
// loops (a fixpoint iteration: Mark … JoinMark) and branches (Mark,
// then, Undo, else, JoinUndone), nested.
type storeProg struct {
	op        int // 0 Set, 1 SetLocal, 2 Weaken, 3 ReplaceAll, 4 WeakReplace, 5 loop, 6 branch
	x         string
	ls        []Loc
	repl      []Version
	body, els []storeProg
}

func genStoreProg(r *rand.Rand, depth int) []storeProg {
	var out []storeProg
	for i, n := 0, 1+r.Intn(5); i < n; i++ {
		p := storeProg{op: r.Intn(7), x: varName(r.Intn(7))}
		if depth >= 3 && p.op >= 5 {
			p.op = r.Intn(5)
		}
		for j, k := 0, r.Intn(4); j < k; j++ {
			p.ls = append(p.ls, Loc(1+r.Intn(12)))
		}
		for j, k := 0, 1+r.Intn(2); j < k; j++ {
			p.repl = append(p.repl, Version{Old: Loc(1 + r.Intn(12)), New: Loc(1 + r.Intn(12))})
		}
		switch p.op {
		case 5:
			p.body = genStoreProg(r, depth+1)
		case 6:
			p.body = genStoreProg(r, depth+1)
			p.els = genStoreProg(r, depth+1)
		}
		out = append(out, p)
	}
	return out
}

// runMarked runs prog the way the analyzer does, in place with marks;
// runCopied runs it the way it did before marks, with Copy and Join.
// Both record every loop's "grew" answer.
func runMarked(st *Store, prog []storeProg, grew *[]bool) {
	for _, p := range prog {
		switch p.op {
		case 5:
			m := st.Mark()
			runMarked(st, p.body, grew)
			*grew = append(*grew, st.JoinMark(m))
		case 6:
			m := st.Mark()
			runMarked(st, p.body, grew)
			br := st.Undo(m)
			runMarked(st, p.els, grew)
			st.JoinUndone(m, br)
		default:
			applyStoreOp(st, p)
		}
	}
}

func runCopied(st *Store, prog []storeProg, grew *[]bool) {
	for _, p := range prog {
		switch p.op {
		case 5:
			before := st.Copy()
			runCopied(st, p.body, grew)
			st.Join(before)
			*grew = append(*grew, st.Snapshot() != before.Snapshot())
		case 6:
			thenSt := st.Copy()
			runCopied(thenSt, p.body, grew)
			runCopied(st, p.els, grew)
			thenSt.Join(st)
			*st = *thenSt
		default:
			applyStoreOp(st, p)
		}
	}
}

func applyStoreOp(st *Store, p storeProg) {
	switch p.op {
	case 0:
		st.Set(p.x, p.ls)
	case 1:
		st.SetLocal(p.x, p.ls)
	case 2:
		st.Weaken(p.x, p.ls)
	case 3:
		st.ReplaceAll(p.repl)
	case 4:
		st.WeakReplace(p.repl)
	}
}

// ordered renders a scope's bindings with their location order, which
// later edge insertion order depends on.
func ordered(s *Store) string {
	var sb strings.Builder
	for _, x := range s.Vars() {
		fmt.Fprintf(&sb, "%s=%v;", x, s.m[x])
	}
	return sb.String()
}

// Property: running loops and branches in place with marks leaves the
// same bindings, in the same order, in the scope and its parent as the
// copy-and-join formulation, and reports a loop as converged exactly
// when the copied store's join left its snapshot unchanged.
func TestMarkJoinMatchesCopyJoinQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := genStoreProg(r, 0)
		mk := func() *Store {
			parent := NewStore(nil)
			parent.SetLocal("e", []Loc{1, 2})
			parent.SetLocal("f", []Loc{3})
			st := NewStore(parent)
			st.SetLocal("a", []Loc{4, 5})
			st.SetLocal("b", []Loc{1})
			return st
		}
		marked, copied := mk(), mk()
		var g1, g2 []bool
		runMarked(marked, prog, &g1)
		runCopied(copied, prog, &g2)
		if ordered(marked) != ordered(copied) || ordered(marked.parent) != ordered(copied.parent) ||
			fmt.Sprint(g1) != fmt.Sprint(g2) {
			t.Logf("seed %d:\n marked %s | %s %v\n copied %s | %s %v", seed,
				ordered(marked), ordered(marked.parent), g1, ordered(copied), ordered(copied.parent), g2)
			return false
		}
		return marked.depth == 0 && len(marked.log) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func varName(i int) string {
	return string(rune('a' + i%20))
}
