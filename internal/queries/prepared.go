package queries

import (
	"fmt"
	"sync"

	"repro/internal/graphdb"
)

// prepared is a constant query, parsed on first use and then shared by
// every scan in the process. graphdb.DB.Exec never writes to a parsed
// query, so concurrent scans may run the same one.
type prepared struct {
	name  string // operation named in errors ("queries: <name>: …")
	parse func() (*graphdb.Query, error)
}

func prepare(name, src string) prepared {
	return prepared{name: name, parse: sync.OnceValues(func() (*graphdb.Query, error) {
		return graphdb.ParseQuery(src)
	})}
}

// The constant queries of Tables 1 and 2.
var (
	qSources = prepare("sources", `MATCH (p:Param {source: true}) RETURN p`)

	qProtoLookup = prepare("proto lookup", `
MATCH (o)-[:P {prop: '__proto__'}]->(sub)
RETURN DISTINCT sub`)

	qCtorProtoLookup = prepare("constructor.prototype lookup", `
MATCH (o)-[:P {prop: 'constructor'}]->(c)-[:P {prop: 'prototype'}]->(sub)
RETURN DISTINCT sub`)

	// qProtoWrites runs with sub bound to one prototype object.
	qProtoWrites = prepare("proto write scan", `
MATCH (sub)-[:V*0..6]->(mid)-[v:V]->(ver)-[p:P]->(val)
RETURN DISTINCT ver, val`)

	qObjLookupStar = prepare("ObjLookupStar", `MATCH (o)-[:P {prop: '*'}]->(sub) RETURN o, sub`)

	qObjAssignmentStar = prepare("ObjAssignmentStar", `
MATCH (mid)-[:V {prop: '*'}]->(ver)-[:P {prop: '*'}]->(val)
RETURN DISTINCT mid, ver, val`)

	qCypherTaint = prepare("cypher taint query", cypherTaintQuery)
)

// run executes p against the graph with the given node variables
// pre-bound (nil for none).
func (lg *LoadedGraph) run(p prepared, bound map[string]*graphdb.Node) (*graphdb.Result, error) {
	q, err := p.parse()
	if err == nil {
		var res *graphdb.Result
		if res, err = lg.DB.ExecBound(q, bound); err == nil {
			return res, nil
		}
	}
	return nil, fmt.Errorf("queries: %s: %w", p.name, err)
}
