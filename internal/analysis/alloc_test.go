//go:build !race

package analysis

import (
	"testing"

	"repro/internal/js/normalize"
)

// allocProgram mixes the constructs whose store and graph bookkeeping
// dominate MDG construction: a loop fixpoint, a branch join, static and
// dynamic property updates, and calls.
const allocProgram = `
const { exec } = require('child_process');
function run(cfg, items) {
	var out = {};
	var seen = [];
	for (var i = 0; i < items.length; i++) {
		var it = items[i];
		if (it.kind === 'cmd') {
			out[it.name] = cfg.prefix + it.value;
			seen.push(it.name);
		} else {
			out.last = it;
			out.count = out.count + 1;
		}
	}
	exec(out.cmd + ' ' + seen.join(','));
	return out;
}
module.exports = run;
`

// Analyzing a fixed loop-and-branch program stays within a fixed
// allocation bound: 417 allocations with Loc-indexed graph storage,
// marked (copy-free) loop and branch stores and string-free allocation
// keys, against 1,762 with map-backed graphs and copied stores. (The
// race detector changes allocation counts, hence the build tag.)
func TestAnalyzeAllocsBounded(t *testing.T) {
	prog, err := normalize.File(allocProgram, "alloc.js")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		res := Analyze(prog, DefaultOptions())
		if res.Graph.NumNodes() == 0 {
			t.Fatal("empty graph")
		}
	})
	const bound = 500
	if allocs > bound {
		t.Errorf("analyzing the loop-and-branch program: %v allocations, want <= %d", allocs, bound)
	}
}
