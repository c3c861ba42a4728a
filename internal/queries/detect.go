package queries

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/budget"
	"repro/internal/graphdb"
	"repro/internal/mdg"
)

// Provenance records how a finding's sink is reachable from the
// package's API surface: the entry point (an export API name like
// "exports.run", or one of the markers "(module)" for top-level code,
// "(callback)" for escaped callbacks, "(fallback)" when the gate ran
// the every-function attack model, "(unresolved)" when no path was
// found) and the call-hop chain of file-qualified function names from
// the entry function down to the function owning the sink.
//
// Provenance is diagnostic metadata: it is excluded from finding
// identity (sorting, differential comparison, deduplication).
type Provenance struct {
	Entry    string
	Hops     []string
	Fallback bool
	// DepPath is the dependency-tree package chain the call path
	// crosses, root package first ("name@version (dir)" labels). Only
	// tree-mode scans fill it; like the rest of Provenance it is
	// excluded from finding identity.
	DepPath []string
}

// String renders the provenance as "entry → hop → … → hop".
func (p Provenance) String() string {
	out := p.Entry
	for _, h := range p.Hops {
		out += " → " + h
	}
	return out
}

// Finding is one reported potential vulnerability.
type Finding struct {
	CWE      CWE
	SinkName string // callee path of the sink call ("" for pollution)
	SinkLine int    // line of the sink call / polluting assignment
	SinkFile string // file of the sink (multi-file packages)
	Source   string // name of the tainted source parameter
	// Path is a witness node sequence from the source to the sink.
	Path []graphdb.NodeID
	// Provenance says how the sink is reachable from the exported API
	// (filled by the scanner's reach gate; zero when the gate did not
	// run, e.g. direct engine use in tests).
	Provenance Provenance
}

// String renders the finding for reports.
func (f Finding) String() string {
	if f.CWE == CWEPrototypePollution {
		return fmt.Sprintf("[%s] prototype pollution at line %d (source %s)", f.CWE, f.SinkLine, f.Source)
	}
	return fmt.Sprintf("[%s] tainted call to %s at line %d (source %s)", f.CWE, f.SinkName, f.SinkLine, f.Source)
}

// isBudgetErr reports whether err is (or wraps) a classified budget
// failure — a cooperative abort, not a query malfunction.
func isBudgetErr(err error) bool {
	var be *budget.Error
	return errors.As(err, &be)
}

// Detect runs all Table 2 vulnerability queries against a loaded MDG.
// A non-nil error means an internal query failed; partial findings are
// not returned in that case. Budget exhaustion (lg.Budget) is NOT an
// error: detection stops between query stages and the findings
// established so far are returned — the caller reads the budget to
// flag the result incomplete.
func Detect(lg *LoadedGraph, cfg *Config) ([]Finding, error) {
	if lg.LoadErr != nil {
		return nil, lg.LoadErr
	}
	lg.ApplySanitizers(cfg)
	var out []Finding
	for _, cwe := range []CWE{CWEPathTraversal, CWECommandInjection, CWECodeInjection} {
		if lg.Budget.Exceeded() {
			return sortFindings(out), nil
		}
		fs, err := DetectTaintStyle(lg, cfg, cwe)
		if err != nil {
			if isBudgetErr(err) {
				return sortFindings(out), nil
			}
			return nil, err
		}
		out = append(out, fs...)
	}
	if lg.Budget.Exceeded() {
		return sortFindings(out), nil
	}
	fs, err := DetectPrototypePollution(lg, cfg)
	if err != nil {
		if isBudgetErr(err) {
			return sortFindings(out), nil
		}
		return nil, err
	}
	out = append(out, fs...)
	return sortFindings(out), nil
}

func sortFindings(out []Finding) []Finding {
	sort.Slice(out, func(i, j int) bool { return findingLess(out[i], out[j]) })
	return out
}

// findingLess is the total report order over findings: primarily by
// sink line, then CWE, then file/name/source so ties order identically
// however the findings were produced (one combined scan or a stitched
// union of per-component scans).
func findingLess(a, b Finding) bool {
	if a.SinkLine != b.SinkLine {
		return a.SinkLine < b.SinkLine
	}
	if a.CWE != b.CWE {
		return a.CWE < b.CWE
	}
	if a.SinkFile != b.SinkFile {
		return a.SinkFile < b.SinkFile
	}
	if a.SinkName != b.SinkName {
		return a.SinkName < b.SinkName
	}
	return a.Source < b.Source
}

// SortFindings orders a finding slice in the canonical report order.
// The scanner's incremental path uses it to merge per-component
// finding sets into the same order a combined scan produces.
func SortFindings(out []Finding) []Finding { return sortFindings(out) }

// sources returns the taint-source nodes (parameters of exported
// functions), found via the query engine once per graph.
func (lg *LoadedGraph) sources() ([]*graphdb.Node, error) {
	if lg.srcsDone {
		return lg.srcs, nil
	}
	res, err := lg.run(qSources, nil)
	if err != nil {
		return nil, err
	}
	var out []*graphdb.Node
	for _, row := range res.Rows {
		out = append(out, row["p"].(*graphdb.Node))
	}
	lg.srcs, lg.srcsDone = out, true
	return out, nil
}

// sourceReach returns the taint sources and each one's taint reach
// (amortizes the searches over all sinks). The four Table 2 queries
// share one set of searches per hop bound: a repeat call adds back the
// truncations the searches counted, so Truncated reads as if they ran
// again. Reach computed while the budget tripped is partial and is not
// kept. Callers must not modify the returned maps.
func (lg *LoadedGraph) sourceReach(maxHops int) ([]*graphdb.Node, []map[graphdb.NodeID]bool, error) {
	srcs, err := lg.sources()
	if err != nil || len(srcs) == 0 {
		return nil, nil, err
	}
	if m, ok := lg.reach[maxHops]; ok {
		lg.Truncated += m.truncated
		return srcs, m.reach, nil
	}
	before := lg.Truncated
	reach := make([]map[graphdb.NodeID]bool, len(srcs))
	for i, s := range srcs {
		reach[i] = lg.TaintReach(s.ID, maxHops)
	}
	if !lg.Budget.Exceeded() {
		if lg.reach == nil {
			lg.reach = make(map[int]reachMemo)
		}
		lg.reach[maxHops] = reachMemo{reach: reach, truncated: lg.Truncated - before}
	}
	return srcs, reach, nil
}

// sinkKey identifies a taint-style finding for deduplication: one
// finding per sink call site, whichever source and argument reach it.
type sinkKey struct {
	cwe  CWE
	file string
	line int
	name string
}

// pollutionKey identifies a prototype-pollution finding for
// deduplication: one finding per polluting assignment.
type pollutionKey struct {
	file string
	line int
}

// DetectTaintStyle implements the Table 2 taint-style query
// TaintPath_{o_s} ∘ Arg_{f,n} for the sinks of one class: a tainted
// path must connect a source to a sensitive argument of a sink call.
func DetectTaintStyle(lg *LoadedGraph, cfg *Config, cwe CWE) ([]Finding, error) {
	if !cfg.hasSinks(cwe) {
		return nil, nil
	}
	srcs, reach, err := lg.sourceReach(cfg.MaxHops)
	if err != nil || len(srcs) == 0 {
		return nil, err
	}

	var out []Finding
	seen := map[sinkKey]bool{}
	for _, call := range lg.DB.NodesByLabel("Call") {
		name, _ := call.Props["name"].(string)
		sink := cfg.sinkFor(cwe, name)
		if sink == nil {
			continue
		}
		callLoc := mdg.Loc(call.Props["loc"].(int64))
		cn := lg.Result.Graph.Node(callLoc)
		if cn == nil {
			continue
		}
		for _, argPos := range sink.Args {
			if argPos >= len(cn.CallArgs) {
				continue
			}
			for _, argLoc := range cn.CallArgs[argPos] {
				argID := lg.ByLoc[argLoc]
				for i, src := range srcs {
					if !reach[i][argID] {
						continue
					}
					file, _ := call.Props["file"].(string)
					line := int(call.Props["line"].(int64))
					key := sinkKey{cwe: cwe, file: file, line: line, name: name}
					if seen[key] {
						continue
					}
					seen[key] = true
					srcName, _ := src.Props["name"].(string)
					out = append(out, Finding{
						CWE:      cwe,
						SinkName: name,
						SinkLine: line,
						SinkFile: file,
						Source:   srcName,
						Path:     lg.TaintPathWitness(src.ID, argID, cfg.MaxHops),
					})
				}
			}
		}
	}
	return out, nil
}

// DetectPrototypePollution implements the Table 2 pollution query
// (ObjLookup* ∘ ObjAssignment*) filtered by three taint paths: an
// attacker must control the lookup property, the assigned property, and
// the assigned value (§4).
func DetectPrototypePollution(lg *LoadedGraph, cfg *Config) ([]Finding, error) {
	srcs, reach, err := lg.sourceReach(cfg.MaxHops)
	if err != nil || len(srcs) == 0 {
		return nil, err
	}
	tainted := func(id graphdb.NodeID) (int, bool) {
		for i := range srcs {
			if reach[i][id] {
				return i, true
			}
		}
		return 0, false
	}

	var out []Finding
	seen := map[pollutionKey]bool{}

	// Static-key variant: an explicit `obj['__proto__']` /
	// `obj.constructor.prototype` lookup followed by a write of an
	// attacker-controlled value pollutes Object.prototype even when the
	// property names are literals — only the value needs tainting.
	lits, err := detectLiteralProtoPollution(lg, reach, srcs, seen, cfg.MaxHops)
	if err != nil {
		return nil, err
	}
	out = append(out, lits...)

	pairs, err := lg.ObjLookupStar()
	if err != nil {
		return nil, err
	}
	for _, pair := range pairs {
		sub := pair[1]
		// The lookup property must be attacker-controlled: sub is
		// tainted via its dynamic-property dependency.
		si, ok := tainted(sub.ID)
		if !ok {
			continue
		}
		avs, err := lg.ObjAssignmentStar(sub, cfg.MaxHops)
		if err != nil {
			return nil, err
		}
		for _, av := range avs {
			ver, val := av[0], av[1]
			if _, ok := tainted(ver.ID); !ok {
				continue // assigned property name not controlled
			}
			if _, ok := tainted(val.ID); !ok {
				continue // assigned value not controlled
			}
			line := int(ver.Props["line"].(int64))
			file, _ := ver.Props["file"].(string)
			key := pollutionKey{file: file, line: line}
			if seen[key] {
				continue
			}
			seen[key] = true
			srcName, _ := srcs[si].Props["name"].(string)
			out = append(out, Finding{
				CWE:      CWEPrototypePollution,
				SinkName: "prototype pollution",
				SinkLine: line,
				SinkFile: file,
				Source:   srcName,
				Path:     lg.TaintPathWitness(srcs[si].ID, sub.ID, cfg.MaxHops),
			})
		}
	}
	return out, nil
}

// detectLiteralProtoPollution finds the static `__proto__` pattern:
// (o)-[:P {prop:'__proto__'}]->(sub) with any later write on sub whose
// value is tainted, or the constructor.prototype two-step equivalent.
func detectLiteralProtoPollution(lg *LoadedGraph, reach []map[graphdb.NodeID]bool,
	srcs []*graphdb.Node, seen map[pollutionKey]bool, maxHops int) ([]Finding, error) {
	tainted := func(id graphdb.NodeID) (int, bool) {
		for i := range srcs {
			if reach[i][id] {
				return i, true
			}
		}
		return 0, false
	}

	// Both `__proto__` lookups and `constructor` → `prototype` chains.
	res, err := lg.run(qProtoLookup, nil)
	if err != nil {
		return nil, err
	}
	subs := map[graphdb.NodeID]*graphdb.Node{}
	for _, row := range res.Rows {
		sub := row["sub"].(*graphdb.Node)
		subs[sub.ID] = sub
	}
	res, err = lg.run(qCtorProtoLookup, nil)
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		sub := row["sub"].(*graphdb.Node)
		subs[sub.ID] = sub
	}

	// Deterministic sub order (database ids follow MDG location order);
	// map iteration order must not leak into dedup or witness choice.
	ids := make([]graphdb.NodeID, 0, len(subs))
	for id := range subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var out []Finding
	for _, id := range ids {
		sub := subs[id]
		// Any write on (a version of) the prototype object whose value
		// is attacker-controlled.
		vres, err := lg.run(qProtoWrites, map[string]*graphdb.Node{"sub": sub})
		if err != nil {
			return nil, err
		}
		for _, row := range vres.Rows {
			ver := row["ver"].(*graphdb.Node)
			val := row["val"].(*graphdb.Node)
			si, ok := tainted(val.ID)
			if !ok {
				continue
			}
			line := int(ver.Props["line"].(int64))
			file, _ := ver.Props["file"].(string)
			key := pollutionKey{file: file, line: line}
			if seen[key] {
				continue
			}
			seen[key] = true
			srcName, _ := srcs[si].Props["name"].(string)
			out = append(out, Finding{
				CWE:      CWEPrototypePollution,
				SinkName: "prototype pollution",
				SinkLine: line,
				SinkFile: file,
				Source:   srcName,
				Path:     lg.TaintPathWitness(srcs[si].ID, val.ID, maxHops),
			})
		}
	}
	return out, nil
}
