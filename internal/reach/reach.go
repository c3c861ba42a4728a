// Package reach is the scanner's reachability gate over Core
// JavaScript, in the spirit of SōjiTantei's reachability analysis for
// npm packages: it computes which functions are reachable from the
// package's exported API surface so the scanner can skip MDG
// construction and detection entirely for packages whose reachable
// code cannot produce a finding, and report pruned-function counts
// otherwise.
//
// Roots come from the alias-aware export graph (internal/exports):
// the functions property-reachable from `module.exports` / `exports`
// (through local aliases, object-literal methods and require
// re-export chains), plus top-level code and callbacks escaping to
// unresolvable callees. Only when that pass finds no export evidence
// at all — or could not converge within its budget — does the gate
// fall back to the analyzer's script attack model and treat every
// function as a root. Function names are uniformly file-qualified as
// "file:name" for single- and multi-file packages alike ("file:" is
// top-level code).
package reach

import (
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/exports"
	"repro/internal/queries"
)

// Result summarizes the reachability gate for one package.
type Result struct {
	// TotalFuncs and PrunedFuncs count the package's functions and how
	// many of them are unreachable from the exported API surface.
	TotalFuncs  int
	PrunedFuncs int
	// Reachable holds the reachable function names, uniformly
	// qualified as "file:name".
	Reachable map[string]bool
	// Fallback records that no export evidence was found, so every
	// function was treated as a root (the analyzer's attack model for
	// plain scripts).
	Fallback bool

	// HasSources reports that reachable code can carry taint sources:
	// a function whose parameters the analyzer would mark (exported,
	// escaped to a callback position, or any function under Fallback)
	// has at least one parameter.
	HasSources bool
	// SinkReachable reports that reachable code calls a configured
	// sink.
	SinkReachable bool
	// PollutionPossible reports that reachable code contains a dynamic
	// property write or a literal prototype access — the shapes the
	// pollution queries match.
	PollutionPossible bool

	// ExportCount counts resolved API-surface entries; EscapedFuncs
	// counts callback-escaped root functions. Converged is false when
	// the export fixpoint was cut short (forcing Fallback).
	ExportCount  int
	EscapedFuncs int
	Converged    bool

	// Exports is the underlying export graph, kept for call-path
	// provenance resolution.
	Exports *exports.Result
}

// CanSkipDetection reports that no detection query can produce a
// finding for this package, so graph construction and the query phase
// can be skipped outright.
func (r *Result) CanSkipDetection() bool {
	return !r.HasSources || (!r.SinkReachable && !r.PollutionPossible)
}

// Analyze runs the gate over the (normalized) programs of one
// package. cfg supplies the sink configuration; nil means
// DefaultConfig.
func Analyze(progs []*core.Program, cfg *queries.Config) *Result {
	return AnalyzeBudget(progs, cfg, nil)
}

// AnalyzeBudget is Analyze with a cooperative budget: the export
// fixpoint charges steps, and a tripped budget degrades the result to
// the keep-everything fallback instead of guessing.
func AnalyzeBudget(progs []*core.Program, cfg *queries.Config, b *budget.Budget) *Result {
	cfg = queries.OrDefault(cfg)
	exp := exports.Analyze(progs, b)
	r := &Result{
		TotalFuncs:   len(exp.Order),
		Reachable:    map[string]bool{},
		Fallback:     exp.Fallback,
		ExportCount:  len(exp.Exports),
		EscapedFuncs: len(exp.Escaped),
		Converged:    exp.Converged,
		Exports:      exp,
	}
	//lint:allow budgetloop -- O(#functions) map fill, no nested work
	for _, q := range exp.Order {
		if exp.Reachable(q) {
			r.Reachable[q] = true
		} else {
			r.PrunedFuncs++
		}
	}

	// Source shape: the analyzer marks parameters of exported
	// functions as sources (every function under fallback), and its
	// callback heuristic can wire tainted values into escaped
	// callbacks' parameters.
	//lint:allow budgetloop -- early-exit flag computation over function list
	for _, q := range exp.Order {
		f := exp.Funcs[q]
		if len(f.Def.Params) == 0 {
			continue
		}
		if r.Fallback || exp.Exported[q] || exp.Escaped[q] {
			r.HasSources = true
			break
		}
	}

	// Dangerous-operation scan over reachable shallow bodies plus all
	// top-level code. Deliberately not budget-interruptible: the skip
	// decision (CanSkipDetection) is only sound when computed from a
	// complete scan, and an exhausted budget is observed at the next
	// phase guard anyway.
	sc := &dangerScanner{cfg: cfg}
	//lint:allow budgetloop -- must complete or the gate's skip decision is unsound
	for _, q := range exp.Order {
		if r.Reachable[q] {
			sc.scan(exp.Funcs[q].Def.Body, r)
		}
	}
	//lint:allow budgetloop -- must complete or the gate's skip decision is unsound
	for _, p := range progs {
		sc.scan(p.Body, r)
	}
	return r
}

// dangerScanner marks sink calls and pollution-shaped statements in
// shallow bodies (nested functions are scanned when they are
// themselves reachable).
type dangerScanner struct {
	cfg *queries.Config
}

func (a *dangerScanner) scan(stmts []core.Stmt, r *Result) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *core.Call:
			if a.isSinkCall(st.CalleeName) {
				r.SinkReachable = true
			}
		case *core.DynUpdate:
			// Creates a V(*) write — the ObjAssignment* shape.
			r.PollutionPossible = true
		case *core.DynLookup:
			if lit, ok := st.Prop.(core.Lit); ok && protoProp(lit.Value) {
				r.PollutionPossible = true
			}
		case *core.Lookup:
			if protoProp(st.Prop) {
				r.PollutionPossible = true
			}
		case *core.Update:
			if protoProp(st.Prop) {
				r.PollutionPossible = true
			}
		case *core.If:
			a.scan(st.Then, r)
			a.scan(st.Else, r)
		case *core.While:
			a.scan(st.Body, r)
		case *core.ForIn:
			a.scan(st.Body, r)
		}
	}
}

func protoProp(p string) bool {
	return p == "__proto__" || p == "constructor" || p == "prototype"
}

// isSinkCall reports whether the callee matches any configured sink,
// including the optional require-as-code-injection sink.
func (a *dangerScanner) isSinkCall(calleeName string) bool {
	for _, s := range a.cfg.Sinks {
		if queries.MatchSink(calleeName, s.Name) {
			return true
		}
	}
	if a.cfg.RequireAsCodeInjection && queries.MatchSink(calleeName, "require") {
		return true
	}
	return false
}
