package queries

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/budget"
)

// TestTruncatedMatchesUnmemoizedSearches: the four Table 2 queries share
// one set of source-reach searches, yet Truncated after Detect equals
// the sum over the searches each query would run on its own.
func TestTruncatedMatchesUnmemoizedSearches(t *testing.T) {
	// Taint needs three hops to reach exec, so MaxHops 1 truncates every
	// search and reports nothing (no witness searches add to the count).
	src := `const { exec } = require('child_process');
function run(a) { var b = a + '1'; var c = b + '2'; exec(c); }
module.exports = run;`
	cfg := DefaultConfig()
	cfg.MaxHops = 1

	ref := loadSrc(t, src)
	srcs, err := ref.sources()
	if err != nil || len(srcs) == 0 {
		t.Fatalf("sources: %v %v", srcs, err)
	}
	for _, s := range srcs {
		ref.TaintReach(s.ID, cfg.MaxHops)
	}
	perQuery := ref.Truncated
	if perQuery == 0 {
		t.Fatal("fixture does not truncate")
	}
	queriesRun := 1 // prototype pollution
	for _, cwe := range []CWE{CWEPathTraversal, CWECommandInjection, CWECodeInjection} {
		if len(cfg.SinksFor(cwe)) > 0 {
			queriesRun++
		}
	}

	lg := loadSrc(t, src)
	if fs := mustDetect(t, lg, cfg); len(fs) != 0 {
		t.Fatalf("fixture must report nothing at MaxHops 1: %v", fs)
	}
	if want := queriesRun * perQuery; lg.Truncated != want {
		t.Errorf("Truncated = %d, want %d (%d queries × %d)", lg.Truncated, want, queriesRun, perQuery)
	}
}

// TestSanitizerChangeInvalidatesReachMemo: reach computed under one
// sanitizer set must not answer a query under another.
func TestSanitizerChangeInvalidatesReachMemo(t *testing.T) {
	lg := loadSrc(t, `const { exec } = require('child_process');
function run(x) { exec(clean(x)); }
module.exports = run;`)
	plain := DefaultConfig()
	sanitizing := DefaultConfig()
	sanitizing.Sanitizers = []string{"clean"}

	for i, step := range []struct {
		cfg  *Config
		want int
	}{{plain, 1}, {sanitizing, 0}, {plain, 1}} {
		lg.ApplySanitizers(step.cfg)
		fs, err := DetectTaintStyle(lg, step.cfg, CWECommandInjection)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != step.want {
			t.Errorf("step %d: %d findings, want %d: %v", i, len(fs), step.want, fs)
		}
	}
}

// TestBudgetTrippedReachNotMemoized: a reach search cut short by the
// budget is partial, so it is not kept for later queries.
func TestBudgetTrippedReachNotMemoized(t *testing.T) {
	lg := loadSrc(t, `const { exec } = require('child_process');
function run(a) { var b = a + '1'; exec(b); }
module.exports = run;`)
	cfg := DefaultConfig()
	lg.Budget = budget.New(budget.Limits{MaxSteps: 1})
	if fs, err := DetectTaintStyle(lg, cfg, CWECommandInjection); err != nil || len(fs) != 0 {
		t.Fatalf("budget-tripped query: %v %v", fs, err)
	}
	if !lg.Budget.Exceeded() {
		t.Fatal("fixture must trip the budget")
	}
	if _, ok := lg.reach[cfg.MaxHops]; ok {
		t.Fatal("partial reach was memoized")
	}
	lg.Budget = nil
	if fs, err := DetectTaintStyle(lg, cfg, CWECommandInjection); err != nil || len(fs) != 1 {
		t.Fatalf("unbudgeted query after a trip: %v %v", fs, err)
	}
}

// TestDetectConcurrentSharedQueries: scans on separate graphs share the
// prepared queries and the default configuration; run concurrently they
// report what they report one at a time (and `go test -race` checks
// that nothing shared is written).
func TestDetectConcurrentSharedQueries(t *testing.T) {
	srcs := []string{
		`const { exec } = require('child_process');
function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
	exec(options.cmd + options.commit);
}
module.exports = git_reset;`,
		`function setValue(obj, path, value) {
	var o = obj;
	for (var i = 0; i < path.length - 1; i++) { o = o[path[i]]; }
	o[path[path.length - 1]] = value;
}
module.exports = setValue;`,
		`function merge(a, b) { a.__proto__.polluted = b; }
module.exports = merge;`,
		`const fs = require('fs');
function read(p) { return fs.readFileSync('/srv/' + p); }
module.exports = read;`,
	}
	const n = 8
	render := func(fs []Finding) string { return fmt.Sprint(fs) }
	want := make([]string, n)
	for i := range want {
		want[i] = render(mustDetect(t, loadSrc(t, srcs[i%len(srcs)]), OrDefault(nil)))
	}
	graphs := make([]*LoadedGraph, n)
	for i := range graphs {
		graphs[i] = loadSrc(t, srcs[i%len(srcs)])
	}
	got := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs, err := Detect(graphs[i], OrDefault(nil))
			got[i], errs[i] = render(fs), err
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("graph %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("graph %d: concurrent %s, sequential %s", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(OrDefault(nil), DefaultConfig()) {
		t.Error("shared default configuration was modified")
	}
}
