package queries

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graphdb"
	"repro/internal/mdg"
)

// This file expresses the taint-style detection as a declarative query
// over the graph database — the counterpart of the artifact's two
// Cypher queries (§4: "we wrote two Cypher queries with 80 lines of
// code"). The query enumerates candidate source→argument paths with a
// variable-length pattern; the UntaintedPath exclusion (a V(p) edge
// followed by a P(p) edge, Table 1) is applied to each returned path,
// mirroring how the Cypher query post-filters with path predicates.
//
// DetectTaintStyleCypher is observably equivalent to DetectTaintStyle
// — same sinks, sources (lowest node id first) and witness paths; see
// TestCypherNativeEquivalence — and the native traversal is the
// default because it memoizes, while the declarative version
// re-enumerates paths.

// cypherMaxHops bounds the declarative path enumeration; deep graphs
// fall back to the native search.
const cypherMaxHops = 24

// cypherTaintQuery enumerates every candidate path from a taint source.
var cypherTaintQuery = fmt.Sprintf(`
MATCH p = (s:Param {source: true})-[:D|P|V*1..%d]->(t)
RETURN p, id(s) AS src, id(t) AS dst`, cypherMaxHops)

// DetectTaintStyleCypher runs the taint-style query for one class
// through the query engine.
func DetectTaintStyleCypher(lg *LoadedGraph, cfg *Config, cwe CWE) ([]Finding, error) {
	lg.ApplySanitizers(cfg)
	if !cfg.hasSinks(cwe) {
		return nil, nil
	}

	// Step 1 (declarative): all candidate paths from taint sources.
	res, err := lg.run(qCypherTaint, nil)
	if err != nil {
		return nil, err
	}

	// Tainted destinations per source, after the UntaintedPath filter.
	tainted := map[graphdb.NodeID]map[graphdb.NodeID][]graphdb.NodeID{}
	for _, row := range res.Rows {
		path := row["p"].(graphdb.Path)
		if pathUntainted(path) || pathSanitized(lg, path) {
			continue
		}
		src := graphdb.NodeID(row["src"].(int64))
		dst := graphdb.NodeID(row["dst"].(int64))
		if tainted[src] == nil {
			tainted[src] = map[graphdb.NodeID][]graphdb.NodeID{}
		}
		if tainted[src][dst] == nil {
			ids := make([]graphdb.NodeID, 0, len(path.Nodes))
			for _, n := range path.Nodes {
				ids = append(ids, n.ID)
			}
			tainted[src][dst] = ids
		}
	}

	// Sources in ascending node-id order, as DetectTaintStyle visits
	// them: when several sources reach one sink, the reported source
	// and witness must not depend on map iteration order.
	srcs := make([]graphdb.NodeID, 0, len(tainted))
	for src := range tainted {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)

	// Step 2: chain with Arg(f, n) — sink calls and their sensitive
	// argument nodes.
	var out []Finding
	seen := map[sinkKey]bool{}
	for _, call := range lg.DB.NodesByLabel("Call") {
		name, _ := call.Props["name"].(string)
		sink := cfg.sinkFor(cwe, name)
		if sink == nil {
			continue
		}
		cn := lg.Result.Graph.Node(mdg.Loc(call.Props["loc"].(int64)))
		if cn == nil {
			continue
		}
		for _, argPos := range sink.Args {
			if argPos >= len(cn.CallArgs) {
				continue
			}
			for _, argLoc := range cn.CallArgs[argPos] {
				argID := lg.ByLoc[argLoc]
				for _, src := range srcs {
					path, ok := tainted[src][argID]
					if !ok && argID != src {
						continue
					}
					file, _ := call.Props["file"].(string)
					line := int(call.Props["line"].(int64))
					key := sinkKey{cwe: cwe, file: file, line: line, name: name}
					if seen[key] {
						continue
					}
					seen[key] = true
					srcNode := lg.DB.NodeByID(src)
					srcName, _ := srcNode.Props["name"].(string)
					// The query decides the finding; its witness is the
					// one the native search reports, so both detectors
					// agree on it. An enumerated path (which may revisit
					// nodes) stands in if the search finds none within
					// its hop bound.
					if w := lg.TaintPathWitness(src, argID, cfg.MaxHops); w != nil {
						path = w
					}
					out = append(out, Finding{
						CWE:      cwe,
						SinkName: name,
						SinkLine: line,
						SinkFile: file,
						Source:   srcName,
						Path:     path,
					})
				}
			}
		}
	}
	return out, nil
}

// pathUntainted applies the Table 1 UntaintedPath pattern: a version
// edge writing property prop followed later by a property edge reading
// the same prop means the tainted value was overwritten along the way.
func pathUntainted(p graphdb.Path) bool {
	written := map[string]bool{}
	for _, r := range p.Rels {
		prop, _ := r.Props["prop"].(string)
		switch r.Type {
		case RelVer:
			written[prop] = true
		case RelProp:
			if written[prop] {
				return true
			}
		}
	}
	return false
}

// pathSanitized reports whether the path passes through a sanitizer
// call node (§6 extension).
func pathSanitized(lg *LoadedGraph, p graphdb.Path) bool {
	if lg.sanitized == nil {
		return false
	}
	for _, n := range p.Nodes[1:] {
		if lg.sanitized[n.ID] {
			return true
		}
	}
	return false
}

// RenderTaintQuery returns the declarative query text for
// documentation and the CLI's -show-query flag.
func RenderTaintQuery() string {
	return strings.TrimSpace(cypherTaintQuery) + `
// post-filter: drop paths matching UntaintedPath — a V(prop) edge
// followed by a P(prop) edge on the same property (Table 1) — then
// chain with Arg(f, n) for every configured sink f.`
}
