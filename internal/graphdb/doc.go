// Package graphdb implements an embedded in-memory property-graph
// database with a Cypher-like query language. It stands in for the
// Neo4j + Cypher pipeline of the paper's artifact: the scanner loads
// the program's MDG into a DB instance and runs pattern queries
// against it.
//
// The data model is the property-graph model: nodes carry labels and a
// property map (nil when empty); directed relationships carry a type
// and a property map (likewise). Node ids are dense, 1..N in creation
// order, and the store indexes nodes and adjacency lists by id; the
// slices AllNodes, NodesByLabel, Out and In return are the store's own
// and must not be modified. The query language (see query.go /
// exec.go) supports MATCH patterns with variable-length relationships,
// WHERE filters, and RETURN projections with DISTINCT, ORDER BY,
// SKIP and LIMIT; the matcher backtracks, binding variables in place
// and undoing them, so a failed candidate allocates nothing.
//
// A DB instance is not internally synchronized: concurrent scans each
// load their own instance (see queries.Load), which is what makes the
// parallel corpus sweeps in internal/metrics safe without locking.
package graphdb
