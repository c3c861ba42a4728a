package mdg

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// Store is the abstract variable store ρ̂ : X → ℘(L̂) (§3.2), mapping
// program variables to the sets of abstract locations they may denote.
// Stores form a lattice under pointwise subset inclusion.
//
// Bindings are immutable: every operation that changes a binding stores
// a fresh deduplicated slice and never writes into a stored one. That
// invariant is what lets Copy share binding slices between stores (it
// clones only the map) and the change log keep replaced bindings by
// reference, and it binds callers too — the slices Get returns must not
// be modified.
//
// Mark opens a change log on the local scope, so a loop fixpoint or a
// branch can compare against, join with or roll back to the bindings
// at the mark without copying the store (see JoinMark, Undo and
// JoinUndone).
type Store struct {
	m      map[string][]Loc
	parent *Store // lexical parent scope (closures); reads fall through

	// While depth marks are open, every write to m appends the binding
	// it replaced to log.
	log     []change
	depth   int
	scratch []int // firsts' result buffer
}

// change records one local write: the binding x had before it.
type change struct {
	x   string
	old []Loc
	had bool
}

// put binds x in this scope, logging the replaced binding while a mark
// is open. Every write to m goes through put.
func (s *Store) put(x string, ls []Loc) {
	if s.depth > 0 {
		old, had := s.m[x]
		s.log = append(s.log, change{x: x, old: old, had: had})
	}
	s.m[x] = ls
}

// NewStore returns an empty store with an optional parent scope.
func NewStore(parent *Store) *Store {
	return &Store{m: make(map[string][]Loc), parent: parent}
}

// Get returns the locations bound to x, consulting parent scopes. The
// slice is shared with the store and must not be modified.
func (s *Store) Get(x string) []Loc {
	for sc := s; sc != nil; sc = sc.parent {
		if ls, ok := sc.m[x]; ok {
			return ls
		}
	}
	return nil
}

// Has reports whether x is bound in this scope or any parent.
func (s *Store) Has(x string) bool {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.m[x]; ok {
			return true
		}
	}
	return false
}

// Set strongly updates x in the innermost scope that already binds it
// (assignment semantics), defaulting to this scope.
func (s *Store) Set(x string, ls []Loc) {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.m[x]; ok {
			sc.put(x, owned(ls))
			return
		}
	}
	s.put(x, owned(ls))
}

// SetLocal binds x in this scope regardless of outer bindings
// (declaration semantics).
func (s *Store) SetLocal(x string, ls []Loc) {
	s.put(x, owned(ls))
}

// owned returns ls as a binding the store owns: a fresh deduplicated
// copy, or for a single location the shared Single view.
func owned(ls []Loc) []Loc {
	if len(ls) == 1 {
		return Single(ls[0])
	}
	return Dedupe(append([]Loc(nil), ls...))
}

// singles backs Single: singles[i] == Loc(i).
var singles = func() []Loc {
	s := make([]Loc, 4096)
	for i := range s {
		s[i] = Loc(i)
	}
	return s
}()

// Single returns the one-element slice {l}. For all but very large
// locations it is a view of a shared read-only table and costs no
// allocation; like a store binding, it must never be modified.
func Single(l Loc) []Loc {
	if l >= 0 && int(l) < len(singles) {
		return singles[l : l+1 : l+1]
	}
	return []Loc{l}
}

// Weaken adds locations to x's binding without removing existing ones
// (weak update; used at control-flow joins).
func (s *Store) Weaken(x string, ls []Loc) {
	cur := s.Get(x)
	s.Set(x, append(append([]Loc(nil), cur...), ls...))
}

// ReplaceAll substitutes old-version locations with their new versions
// in every binding of this scope chain; used by NV/NV* (§3.2: "the
// updated store with occurrences of older version locations replaced by
// their corresponding newer versions"). Only bindings that change are
// reallocated.
func (s *Store) ReplaceAll(repl []Version) {
	for sc := s; sc != nil; sc = sc.parent {
		for x, ls := range sc.m {
			var out []Loc
			for i, l := range ls {
				nl, ok := newVersion(repl, l)
				if !ok {
					if out != nil {
						out[i] = l
					}
					continue
				}
				if out == nil {
					out = make([]Loc, len(ls))
					copy(out, ls[:i])
				}
				out[i] = nl
			}
			if out != nil {
				sc.put(x, Dedupe(out))
			}
		}
	}
}

// WeakReplace adds the new versions alongside the old ones in every
// binding; used when a property update targets several abstract objects
// and it is unknown which one a given variable denotes (weak update).
func (s *Store) WeakReplace(repl []Version) {
	for sc := s; sc != nil; sc = sc.parent {
		for x, ls := range sc.m {
			var add []Loc
			for _, l := range ls {
				if nl, ok := newVersion(repl, l); ok {
					add = append(add, nl)
				}
			}
			if add != nil {
				sc.put(x, Dedupe(append(append([]Loc(nil), ls...), add...)))
			}
		}
	}
}

// newVersion returns the new version repl assigns to l (the first pair
// for l), reporting false when l has none or maps to itself.
func newVersion(repl []Version, l Loc) (Loc, bool) {
	for _, v := range repl {
		if v.Old == l {
			return v.New, v.New != l
		}
	}
	return NoLoc, false
}

// Copy returns a copy of this scope (sharing the parent chain), for
// branch-local analysis. Binding slices are shared: bindings are never
// modified in place, so only the map is cloned.
func (s *Store) Copy() *Store {
	return &Store{m: maps.Clone(s.m), parent: s.parent}
}

// Join merges o into s pointwise (s ⊔ o). Bindings present in only one
// store are kept as-is. A binding o shares with s, or whose locations s
// already holds, leaves s's binding untouched.
func (s *Store) Join(o *Store) {
	for x, ls := range o.m {
		cur, ok := s.m[x]
		switch {
		case !ok:
			s.put(x, ls)
		case sameSlice(cur, ls) || len(cur) <= 16 && subset(ls, cur):
		default:
			s.put(x, union(cur, ls))
		}
	}
}

// union returns a ⊔ b as a fresh slice: a's locations, then b's new
// ones.
func union(a, b []Loc) []Loc {
	return Dedupe(append(append(make([]Loc, 0, len(a)+len(b)), a...), b...))
}

// Mark opens a change log on this scope's local bindings and returns
// the mark. Marks nest; each is closed by exactly one JoinMark or
// JoinUndone, innermost first.
func (s *Store) Mark() int {
	s.depth++
	return len(s.log)
}

// JoinMark closes mark m, joining the bindings the scope had at m into
// the current ones (s ⊔ s_m: a loop body may run zero times). It
// reports whether the result differs from the bindings at m — a
// variable added or a location set grown — which is when a loop
// fixpoint must iterate again.
func (s *Store) JoinMark(m int) bool {
	grew := false
	for _, i := range s.firsts(m) {
		c := s.log[i]
		if !c.had {
			grew = true
			continue
		}
		cur := s.m[c.x]
		switch {
		case sameSlice(cur, c.old):
		case subset(c.old, cur):
			grew = grew || len(cur) != len(c.old)
		default:
			j := union(cur, c.old)
			s.put(c.x, j)
			grew = grew || len(j) != len(c.old)
		}
	}
	s.close(m)
	return grew
}

// Branch is the local bindings one branch of a conditional changed, as
// returned by Undo.
type Branch []binding

type binding struct {
	x  string
	ls []Loc
}

func (br Branch) has(x string) bool {
	for _, b := range br {
		if b.x == x {
			return true
		}
	}
	return false
}

// Undo restores the local bindings to their state at mark m, which
// stays open, and returns what the code run since m bound: the first
// branch's result, for JoinUndone once the second branch has run.
func (s *Store) Undo(m int) Branch {
	fs := s.firsts(m)
	br := make(Branch, 0, len(fs))
	for _, i := range fs {
		c := s.log[i]
		br = append(br, binding{x: c.x, ls: s.m[c.x]})
		if c.had {
			s.m[c.x] = c.old
		} else {
			delete(s.m, c.x)
		}
	}
	clear(s.log[m:])
	s.log = s.log[:m]
	return br
}

// JoinUndone closes mark m, binding every variable either branch
// changed to first ⊔ second: first is the branch Undo returned, second
// the code run since. A variable only the second branch changed had its
// binding at m in the first branch.
func (s *Store) JoinUndone(m int, first Branch) {
	for _, i := range s.firsts(m) {
		if c := s.log[i]; c.had && !first.has(c.x) {
			s.joinFirst(c.x, c.old)
		}
	}
	for _, b := range first {
		s.joinFirst(b.x, b.ls)
	}
	s.close(m)
}

// joinFirst binds x to first ⊔ its current binding, first's locations
// first; an unbound x takes first as is.
func (s *Store) joinFirst(x string, first []Loc) {
	cur, ok := s.m[x]
	switch {
	case !ok:
		s.put(x, first)
	case sameSlice(first, cur):
	case len(first) <= 16 && subset(cur, first):
		s.put(x, first)
	default:
		s.put(x, union(first, cur))
	}
}

// firsts returns the log indices, from m on, of the first change to
// each variable: the entry holding its binding at m. The slice is
// reused by the next call.
func (s *Store) firsts(m int) []int {
	out := s.scratch[:0]
	seg := s.log[m:]
	if len(seg) <= 64 {
	next:
		for i, c := range seg {
			for _, j := range out {
				if s.log[j].x == c.x {
					continue next
				}
			}
			out = append(out, m+i)
		}
	} else {
		seen := make(map[string]struct{}, len(seg))
		for i, c := range seg {
			if _, ok := seen[c.x]; !ok {
				seen[c.x] = struct{}{}
				out = append(out, m+i)
			}
		}
	}
	s.scratch = out
	return out
}

// close ends the innermost mark m. With no mark left the log is
// dropped; otherwise the entries from m on shrink to the first change
// to each variable, the only entry an enclosing mark can read.
func (s *Store) close(m int) {
	s.depth--
	if s.depth == 0 {
		clear(s.log)
		s.log = s.log[:0]
		return
	}
	n := m
	for _, i := range s.firsts(m) {
		s.log[n] = s.log[i]
		n++
	}
	clear(s.log[n:])
	s.log = s.log[:n]
}

// sameSlice reports whether a and b are the same stored binding.
func sameSlice(a, b []Loc) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Leq reports s ⊑ o on the local scope: dom(s) ⊆ dom(o) and pointwise
// subset.
func (s *Store) Leq(o *Store) bool {
	for x, ls := range s.m {
		os, ok := o.m[x]
		if !ok {
			return false
		}
		set := make(map[Loc]struct{}, len(os))
		for _, l := range os {
			set[l] = struct{}{}
		}
		for _, l := range ls {
			if _, ok := set[l]; !ok {
				return false
			}
		}
	}
	return true
}

// subset reports whether every location of a occurs in b. Short
// bindings (the common case) are compared by linear scan without
// allocating; long ones go through a set.
func subset(a, b []Loc) bool {
	if len(b) <= 16 {
	next:
		for _, l := range a {
			for _, m := range b {
				if l == m {
					continue next
				}
			}
			return false
		}
		return true
	}
	set := make(map[Loc]struct{}, len(b))
	for _, l := range b {
		set[l] = struct{}{}
	}
	for _, l := range a {
		if _, ok := set[l]; !ok {
			return false
		}
	}
	return true
}

// Vars returns the variables bound in the local scope, sorted.
func (s *Store) Vars() []string {
	out := make([]string, 0, len(s.m))
	for x := range s.m {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a canonical rendering of the local bindings; equal
// snapshots mean equal local stores (diagnostics and tests; loop
// fixpoints use LocalEqual).
func (s *Store) Snapshot() string {
	var sb strings.Builder
	for _, x := range s.Vars() {
		ls := append([]Loc(nil), s.m[x]...)
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		fmt.Fprintf(&sb, "%s=%v;", x, ls)
	}
	return sb.String()
}

// String renders the store for diagnostics.
func (s *Store) String() string { return s.Snapshot() }
