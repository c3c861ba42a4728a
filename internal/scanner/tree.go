package scanner

// Dependency-tree scanning (Options.Tree): instead of treating every
// bare require('pkg') as an opaque external module, the scanner
// resolves the package's node_modules tree with internal/deptree,
// builds one MDG fragment per package exactly as the incremental
// scanner builds per-component fragments, stitches the fragments into
// one graph, and then *links* the cross-package boundaries: every
// placeholder module node left behind by an unresolved require is
// grafted onto the real dependency's exports, so taint flows through
// require('dep').f(x) into the dependency's real exported function.
//
// The linker only replays edges the combined whole-program analysis
// would have created itself (the tree-equivalence oracle in
// tree_oracle_test.go enforces byte-identical findings against a
// flattened single-package scan), and per-package fragments stay
// independently cacheable: a warm re-scan after editing one dependency
// rebuilds only that package's fragment.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/deptree"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/reach"
)

// ScanTreeDir scans a package directory *including* its node_modules
// dependencies as one dependency tree. Unlike ScanPackage's walker it
// descends into node_modules and collects package.json manifests (for
// the resolver), while still skipping test directories and VCS
// internals.
func ScanTreeDir(dir string, opts Options) *Report {
	var files []SourceFile
	var readErr error
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			base := filepath.Base(path)
			if base == "test" || base == "tests" || base == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		isJS := strings.HasSuffix(path, ".js") && !strings.HasSuffix(path, ".min.js")
		if !isJS && filepath.Base(path) != "package.json" {
			return nil
		}
		rel, relErr := filepath.Rel(dir, path)
		if relErr != nil {
			rel = path
		}
		data, rdErr := os.ReadFile(path)
		if rdErr != nil {
			if readErr == nil {
				readErr = fmt.Errorf("scanner: %w", rdErr)
			}
			return nil
		}
		files = append(files, SourceFile{Rel: filepath.ToSlash(rel), Src: string(data)})
		return nil
	})
	if err != nil {
		return &Report{Name: dir, Err: fmt.Errorf("scanner: %w", err)}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Rel < files[j].Rel })
	opts.Tree = true
	return scanFiles(files, dir, opts, readErr)
}

// treeKeyPrefix namespaces tree-mode fragment keys so they can share
// an IncrementalState (and its store) with per-component keys without
// either mode invalidating the other's entries.
const treeKeyPrefix = "tree|"

// scanTree is the Options.Tree entry point, reached via scanFiles. A
// dedicated (possibly throwaway) IncrementalState supplies the
// front-end cache, the per-package fragment cache, and the persistent
// store plumbing.
func scanTree(files []SourceFile, name string, opts Options, preErr error) *Report {
	st := opts.Incremental
	if st == nil {
		st = NewIncrementalState()
	}
	return st.scanTree(files, name, opts, preErr)
}

// treeLive is one package's fragment in this scan, in stitch order.
type treeLive struct {
	pkg    *deptree.Package
	fe     *fragEntry
	built  bool // analyzed this scan (fragment snapshotted either way)
	stored bool // fe lives in st.frags (cacheable)
}

func (st *IncrementalState) scanTree(files []SourceFile, name string, opts Options, preErr error) *Report {
	st.mu.Lock()
	defer st.mu.Unlock()

	cfgq := queries.OrDefault(opts.Config)
	rep := &Report{Name: name, Err: preErr}
	engine, err := ParseEngine(string(opts.Engine))
	if err != nil {
		rep.Err = err
		return rep
	}
	rep.Engine = engine
	b := newBudget(opts, name)
	defer func() { recordPhases(rep, b) }()
	start := time.Now()

	// Resolve the dependency tree first: a broken tree (missing or
	// unusable node_modules entry) is a deterministic, classified
	// failure — no rung of the retry ladder can fix the layout on
	// disk, so the supervisor treats ClassResolve like ClassParse.
	fmap := make(map[string]string, len(files))
	for _, f := range files {
		fmap[f.Rel] = f.Src
	}
	tree := deptree.Build(fmap)
	if probs := tree.Problems(); len(probs) > 0 {
		rep.Failure = budget.ClassResolve
		rep.Err = fmt.Errorf("scanner: dependency tree %s: %w", name, errors.Join(probs...))
		return rep
	}
	rep.TreePackages = len(tree.Packages)
	for _, p := range tree.Packages {
		if d := strings.Count(p.Dir, "node_modules"); d > rep.TreeDepth {
			rep.TreeDepth = d
		}
	}

	// Front end over every .js file in the tree, through the state's
	// cache (package.json manifests feed the resolver only).
	type feItem struct {
		rel   string
		entry *cacheEntry
	}
	var items []feItem
	keep := make(map[string]bool, len(files))
	b.BeginPhase("front-end")
	ferr := budget.Guard("front-end", func() error {
		for _, f := range files {
			if !strings.HasSuffix(f.Rel, ".js") {
				continue
			}
			keep[f.Rel] = true
			entry, feErr := st.cache.frontEnd(f.Rel, f.Src, b)
			if feErr != nil {
				switch budget.ClassOf(feErr) {
				case budget.ClassTimeout, budget.ClassBudget, budget.ClassCanceled:
					return feErr
				}
				if rep.Err == nil {
					rep.Err = fmt.Errorf("scanner: parse %s: %w", f.Rel, feErr)
					rep.Failure = budget.ClassParse
				}
				continue
			}
			rep.LoC += entry.loc
			rep.ASTNodes += entry.astNodes
			rep.CoreStmts += entry.coreStmts
			rep.CFGNodes += entry.cfgNodes
			rep.CFGEdges += entry.cfgEdges
			items = append(items, feItem{f.Rel, entry})
		}
		b.CheckDeadline()
		return b.Err()
	})
	st.stats.EvictedFiles += st.cache.EvictExcept(keep)
	if ferr != nil {
		frontEndFailure(rep, ferr, name)
		rep.GraphTime = time.Since(start)
		rep.IncrStats = st.statsPtr()
		return rep
	}
	if len(items) == 0 {
		rep.IncrStats = st.statsPtr()
		return rep
	}
	byRel := make(map[string]*cacheEntry, len(items))
	progs := make([]*core.Program, len(items))
	for i, it := range items {
		byRel[it.rel] = it.entry
		progs[i] = it.entry.prog
	}

	// Whole-tree reach gate: all packages' programs, all export roots.
	// Bare requires stay opaque to the gate's export interpreter, but
	// the gate remains sound — a dependency's reachable sink keeps the
	// tree un-skippable through the dependency's own export surface.
	skip := false
	var rr *reach.Result
	b.BeginPhase("reach-gate")
	if gerr := budget.Guard("reach-gate", func() error {
		rr, skip = gateSkips(rep, progs, cfgq, opts, b)
		return nil
	}); gerr != nil {
		setFailure(rep, gerr, budget.ClassPanic)
		rep.GraphTime = time.Since(start)
		rep.IncrStats = st.statsPtr()
		return rep
	}
	if gateCanceled(rep, b) {
		rep.GraphTime = time.Since(start)
		rep.IncrStats = st.statsPtr()
		return rep
	}
	if skip {
		rep.GraphTime = time.Since(start)
		rep.IncrStats = st.statsPtr()
		return rep
	}
	if opts.ReachGateOnly {
		rep.Incomplete = true
		rep.GraphTime = time.Since(start)
		rep.IncrStats = st.statsPtr()
		return rep
	}

	aopts := opts.Analysis
	if aopts.MaxLoopIter == 0 {
		aopts = analysis.DefaultOptions()
	}
	callerNoFallback := aopts.NoExportFallback
	aopts.NoExportFallback = true
	// Every package runs the full cross-module fixpoint, matching the
	// pass count a combined whole-tree analysis would use.
	aopts.ForceMultiPass = true
	aoptsKey := fmt.Sprintf("%sv1|%d|%d|%t", treeKeyPrefix, aopts.MaxLoopIter,
		aopts.StepBudget, aopts.TreatAllFunctionsAsExported)
	aopts.Budget = b

	// Build or fetch each package's fragment, in stitch order (root
	// first, then dependencies sorted by directory — so relative
	// location order matches a flattened scan's file order).
	var lives []treeLive
	currentKeys := make(map[string]bool, len(tree.Packages))
	aborted := false
	b.BeginPhase("analysis")
	for _, pkg := range tree.Packages {
		var crels []string
		var hashes [][sha256.Size]byte
		var comprogs []*core.Program
		for _, rel := range pkg.Files {
			entry := byRel[rel]
			if entry == nil {
				continue // unparseable file, already classified
			}
			crels = append(crels, rel)
			hashes = append(hashes, entry.hash)
			comprogs = append(comprogs, entry.prog)
		}
		if len(comprogs) == 0 {
			continue
		}
		pkey := treePackageKey(pkg.Dir, crels, hashes, aoptsKey)
		currentKeys[pkey] = true
		if fe, ok := st.frags[pkey]; ok {
			st.stats.FragmentHits++
			lives = append(lives, treeLive{pkg: pkg, fe: fe, stored: true})
			continue
		}
		if fe, ok := st.loadFrag(pkey); ok {
			st.stats.FragmentHits++
			st.frags[pkey] = fe
			lives = append(lives, treeLive{pkg: pkg, fe: fe, stored: true})
			continue
		}
		if aborted {
			continue
		}
		st.stats.FragmentMisses++
		var res *analysis.Result
		if aerr := budget.Guard("analysis", func() error {
			res = analysis.AnalyzeModules(comprogs, aopts)
			return nil
		}); aerr != nil {
			setFailure(rep, aerr, budget.ClassPanic)
			rep.GraphTime = time.Since(start)
			rep.IncrStats = st.statsPtr()
			return rep
		}
		if res.TimedOut && b.Err() == nil {
			rep.TimedOut = true
			rep.Failure = budget.ClassBudget
			rep.GraphTime = time.Since(start)
			rep.IncrStats = st.statsPtr()
			return rep
		}
		b.CheckDeadline()
		if berr := b.Err(); berr != nil {
			if c := budget.ClassOf(berr); c == budget.ClassTimeout || c == budget.ClassCanceled {
				rep.Failure = c
				rep.TimedOut = c == budget.ClassTimeout
				rep.Incomplete = c == budget.ClassCanceled
				rep.GraphTime = time.Since(start)
				rep.IncrStats = st.statsPtr()
				return rep
			}
			// A step/node/edge cap: keep the partial fragment for this
			// scan's best-effort stitch but never cache it.
			rep.Incomplete = true
			rep.Failure = budget.ClassOf(berr)
			aborted = true
			fe := newFragEntry(pkey, crels, res)
			lives = append(lives, treeLive{pkg: pkg, fe: fe, built: true})
			continue
		}
		fe := newFragEntry(pkey, crels, res)
		st.frags[pkey] = fe
		st.saveFrag(fe)
		lives = append(lives, treeLive{pkg: pkg, fe: fe, built: true, stored: true})
	}
	if len(lives) == 0 {
		rep.GraphTime = time.Since(start)
		rep.IncrStats = st.statsPtr()
		return rep
	}

	// Package-tree-wide export decision, exactly the cold rule: the
	// script fallback applies only when no package has a real export.
	anyReal := false
	for _, lv := range lives {
		if lv.fe.hasReal {
			anyReal = true
		}
	}
	fb := !anyReal && !aopts.TreatAllFunctionsAsExported && !callerNoFallback

	// Stitch all package fragments into one graph and translate every
	// fragment-local side table through the stitch remap.
	frags := make([]*mdg.Fragment, len(lives))
	for i, lv := range lives {
		frags[i] = lv.fe.frag
	}
	var g *mdg.Graph
	var remaps []map[mdg.Loc]mdg.Loc
	var res *analysis.Result
	var ln *treeLinker
	if serr := budget.Guard("stitch-link", func() error {
		g, remaps = mdg.Stitch(frags...)
		res, ln = linkTree(g, remaps, lives, tree, anyReal)
		return nil
	}); serr != nil {
		setFailure(rep, serr, budget.ClassPanic)
		rep.GraphTime = time.Since(start)
		rep.IncrStats = st.statsPtr()
		return rep
	}
	if fb {
		analysis.ApplyExportFallback(res)
	}
	rep.MDGNodes = g.NumNodes()
	rep.MDGEdges = g.NumEdges()
	rep.GraphTime = time.Since(start)

	detb := b
	if aborted {
		detb = b.DeadlineOnly()
	}
	// One detection pass over the stitched, linked graph (per-fragment
	// detection caching does not apply: findings can span packages).
	detectInto(rep, res, cfgq, engine, detb)
	rep.Findings = queries.SortFindings(rep.Findings)
	annotateTreeProvenance(rep, rr, tree, ln)

	b.CheckDeadline()
	switch budget.ClassOf(b.Err()) {
	case budget.ClassTimeout:
		rep.TimedOut = true
		rep.Incomplete = true
		if rep.Failure == budget.ClassNone {
			rep.Failure = budget.ClassTimeout
		}
	case budget.ClassCanceled:
		rep.Incomplete = true
		if rep.Failure == budget.ClassNone {
			rep.Failure = budget.ClassCanceled
		}
	}

	// Stale-key invalidation within the tree namespace (mirrors the
	// per-component rule; other-mode keys are untouched).
	if !aborted {
		for k := range st.frags {
			if strings.HasPrefix(k, treeKeyPrefix) && !currentKeys[k] {
				delete(st.frags, k)
				st.stats.EvictedFragments++
			}
		}
	}
	rep.IncrStats = st.statsPtr()
	return rep
}

// treePackageKey identifies one package's fragment by its directory,
// its files' content hashes, and the analysis options shaping it.
func treePackageKey(dir string, rels []string, hashes [][sha256.Size]byte, aoptsKey string) string {
	h := sha256.New()
	h.Write([]byte(aoptsKey))
	h.Write([]byte{0})
	h.Write([]byte(dir))
	h.Write([]byte{0})
	for i, rel := range rels {
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(hashes[i][:])
	}
	return treeKeyPrefix + fmt.Sprintf("%x", h.Sum(nil))
}

// ---------------------------------------------------------------------------
// Cross-package linker
// ---------------------------------------------------------------------------

// treeLinker grafts cross-package flows onto a stitched graph. All
// lookups are read-only graph queries (never the lazy-extending AP),
// and every added edge replays one the combined whole-program analysis
// would have created: resolved-require value edges, placeholder
// property flows, and call-summary linking into dependency functions.
type treeLinker struct {
	g     *mdg.Graph
	tree  *deptree.Tree
	byLoc map[mdg.Loc]*analysis.FuncSummary
	// ph maps each stitched placeholder module node to the package
	// that required it and the (bare) specifier it used.
	ph map[mdg.Loc]phInfo
	// fileEnv maps each module file to its stitched CommonJS globals.
	fileEnv map[string]analysis.ModuleLocs
	// resolved maps placeholder-derived nodes (placeholders and their
	// lazy property nodes) to the real value set they stand for.
	resolved map[mdg.Loc][]mdg.Loc
	// fileVals memoizes moduleVals per target file; a nil entry marks
	// in-progress computation, cutting require cycles.
	fileVals map[string][]mdg.Loc
	phVals   map[mdg.Loc][]mdg.Loc
	phBusy   map[mdg.Loc]bool
}

type phInfo struct {
	pkg  *deptree.Package
	spec string
}

// linkTree builds the merged analysis result for a stitched tree and
// runs the cross-package linker over it.
func linkTree(g *mdg.Graph, remaps []map[mdg.Loc]mdg.Loc, lives []treeLive, tree *deptree.Tree, anyReal bool) (*analysis.Result, *treeLinker) {
	ln := &treeLinker{
		g:        g,
		tree:     tree,
		byLoc:    make(map[mdg.Loc]*analysis.FuncSummary),
		ph:       make(map[mdg.Loc]phInfo),
		fileEnv:  make(map[string]analysis.ModuleLocs),
		resolved: make(map[mdg.Loc][]mdg.Loc),
		fileVals: make(map[string][]mdg.Loc),
		phVals:   make(map[mdg.Loc][]mdg.Loc),
		phBusy:   make(map[mdg.Loc]bool),
	}

	// Merged result: per-scan summary copies with stitched locations
	// (cached fragment summaries are shared across scans and must not
	// be mutated), keyed by package dir so same-named functions in
	// different packages cannot collide.
	merged := make(map[string]*analysis.FuncSummary)
	res := &analysis.Result{Graph: g, Functions: merged, HasRealExports: anyReal}
	rm := func(remap map[mdg.Loc]mdg.Loc, l mdg.Loc) mdg.Loc {
		if l == mdg.NoLoc {
			return mdg.NoLoc
		}
		return remap[l]
	}
	for i, lv := range lives {
		remap := remaps[i]
		for fname, fn := range lv.fe.functions {
			nf := &analysis.FuncSummary{
				Loc:      rm(remap, fn.Loc),
				ThisLoc:  rm(remap, fn.ThisLoc),
				RetLoc:   rm(remap, fn.RetLoc),
				Exported: lv.fe.realExported[fname],
			}
			for _, p := range fn.Params {
				nf.Params = append(nf.Params, rm(remap, p))
			}
			merged[lv.pkg.Dir+"|"+fname] = nf
			ln.byLoc[nf.Loc] = nf
			if n := g.Node(nf.Loc); n != nil {
				n.Exported = nf.Exported
			}
		}
		for spec, ml := range lv.fe.externals {
			ln.ph[rm(remap, ml)] = phInfo{pkg: lv.pkg, spec: spec}
		}
		for file, me := range lv.fe.modEnv {
			ln.fileEnv[file] = analysis.ModuleLocs{
				Module:  rm(remap, me.Module),
				Exports: rm(remap, me.Exports),
			}
		}
	}

	ln.graft(lives, remaps)
	return res, ln
}

// graft runs the three linking passes in deterministic order.
func (ln *treeLinker) graft(lives []treeLive, remaps []map[mdg.Loc]mdg.Loc) {
	// Pass 1 — require grafting: every require('pkg') call node gains
	// value edges to the dependency's real exports, replaying the
	// resolved-require branch of the abstract interpreter.
	phs := make([]mdg.Loc, 0, len(ln.ph))
	for ml := range ln.ph {
		phs = append(phs, ml)
	}
	sort.Slice(phs, func(i, j int) bool { return phs[i] < phs[j] })
	for _, ml := range phs {
		vals := ln.resolvePlaceholder(ml)
		if len(vals) == 0 {
			continue
		}
		ln.resolved[ml] = vals
		ins := append([]mdg.Edge(nil), ln.g.In(ml)...)
		for _, e := range ins {
			if e.Type != mdg.Dep {
				continue
			}
			cn := ln.g.Node(e.From)
			if cn == nil || cn.Kind != mdg.KindCall || cn.CallName != "require" {
				continue
			}
			for _, v := range vals {
				ln.g.AddDep(e.From, v)
			}
		}
	}

	// Pass 2 — property grafting: lazy property nodes hanging off a
	// placeholder (require('dep').f reads) receive the dependency's
	// real property values, transitively through nested objects.
	type workItem struct {
		node mdg.Loc
		vals []mdg.Loc
	}
	queue := make([]workItem, 0, len(phs))
	for _, ml := range phs {
		if vals := ln.resolved[ml]; len(vals) > 0 {
			queue = append(queue, workItem{ml, vals})
		}
	}
	seen := map[mdg.Loc]bool{}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if seen[it.node] {
			continue
		}
		seen[it.node] = true
		outs := append([]mdg.Edge(nil), ln.g.Out(it.node)...)
		for _, e := range outs {
			if e.Type != mdg.Prop {
				continue
			}
			pn := e.To
			var tv []mdg.Loc
			for _, r := range it.vals {
				tv = append(tv, ln.g.Lookup(r, e.Prop).Values...)
			}
			tv = ln.expandLocs(tv)
			if len(tv) == 0 {
				continue
			}
			for _, v := range tv {
				ln.g.AddDep(v, pn)
			}
			ln.resolved[pn] = dedupeSortedLocs(append(ln.resolved[pn], tv...))
			if !seen[pn] {
				queue = append(queue, workItem{pn, ln.resolved[pn]})
			}
		}
	}

	// Pass 3 — call grafting: calls whose abstract callee set contains
	// a placeholder-derived node are linked to the real dependency
	// function summaries, replaying the interpreter's summary linking
	// (argument → parameter, this → ThisLoc, RetLoc → call).
	for i, lv := range lives {
		remap := remaps[i]
		cls := make([]mdg.Loc, 0, len(lv.fe.calleeLocs))
		for cl := range lv.fe.calleeLocs {
			cls = append(cls, cl)
		}
		sort.Slice(cls, func(a, b int) bool { return cls[a] < cls[b] })
		for _, cl := range cls {
			ncl := remap[cl]
			cn := ln.g.Node(ncl)
			if cn == nil {
				continue
			}
			var this []mdg.Loc
			for _, tl := range lv.fe.callThis[cl] {
				this = append(this, remap[tl])
			}
			for _, x := range lv.fe.calleeLocs[cl] {
				for _, t := range ln.resolved[remap[x]] {
					sum := ln.byLoc[t]
					if sum == nil {
						continue
					}
					for ai, als := range cn.CallArgs {
						if ai >= len(sum.Params) {
							break
						}
						for _, al := range als {
							ln.g.AddDep(al, sum.Params[ai])
						}
					}
					for _, tl := range this {
						ln.g.AddDep(tl, sum.ThisLoc)
					}
					ln.g.AddDep(sum.RetLoc, ncl)
				}
			}
		}
	}
}

// resolvePlaceholder resolves one placeholder module node to the real
// export values of its dependency ("expanded": nested placeholders in
// re-export chains are resolved recursively, cycle-safe). External or
// unusable targets yield nil — the placeholder stays opaque, exactly
// like an unresolved require in a single-package scan.
func (ln *treeLinker) resolvePlaceholder(ml mdg.Loc) []mdg.Loc {
	if v, ok := ln.phVals[ml]; ok {
		return v
	}
	if ln.phBusy[ml] {
		return nil
	}
	ln.phBusy[ml] = true
	defer delete(ln.phBusy, ml)
	info, ok := ln.ph[ml]
	var vals []mdg.Loc
	if ok {
		if target, err := ln.tree.Resolve(info.pkg, info.spec); err == nil {
			vals = ln.moduleVals(target)
		}
	}
	ln.phVals[ml] = vals
	return vals
}

// moduleVals reproduces the resolved-require value set of the
// interpreter: the module's exports object plus everything any
// version of the module object holds under "exports".
func (ln *treeLinker) moduleVals(file string) []mdg.Loc {
	if v, ok := ln.fileVals[file]; ok {
		return v
	}
	ln.fileVals[file] = nil // in-progress: cuts require cycles
	me, ok := ln.fileEnv[file]
	if !ok {
		return nil
	}
	raw := []mdg.Loc{me.Exports}
	for _, mv := range allGraphVersions(ln.g, me.Module) {
		raw = append(raw, ln.g.Lookup(mv, "exports").Values...)
	}
	out := ln.expandLocs(raw)
	ln.fileVals[file] = out
	return out
}

// expandLocs replaces placeholder module nodes in a value set with
// their resolved dependency exports (recursively), drops the
// placeholders themselves, and dedupes in sorted order.
func (ln *treeLinker) expandLocs(ls []mdg.Loc) []mdg.Loc {
	var out []mdg.Loc
	for _, l := range ls {
		if _, isPH := ln.ph[l]; isPH {
			out = append(out, ln.resolvePlaceholder(l)...)
			continue
		}
		out = append(out, l)
	}
	return dedupeSortedLocs(out)
}

// allGraphVersions walks the version-successor closure of l (the
// linker's counterpart of the interpreter's allVersions).
func allGraphVersions(g *mdg.Graph, l mdg.Loc) []mdg.Loc {
	var out []mdg.Loc
	seen := map[mdg.Loc]bool{}
	var walk func(v mdg.Loc)
	walk = func(v mdg.Loc) {
		if seen[v] {
			return
		}
		seen[v] = true
		out = append(out, v)
		for _, s := range g.VersionSuccessors(v) {
			walk(s)
		}
	}
	walk(l)
	return out
}

// dedupeSortedLocs sorts and dedupes a location set (deterministic
// iteration for every graft pass).
func dedupeSortedLocs(ls []mdg.Loc) []mdg.Loc {
	if len(ls) == 0 {
		return nil
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:1]
	for _, l := range ls[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Tree provenance
// ---------------------------------------------------------------------------

// annotateTreeProvenance attaches call-path provenance with uniform
// pkg:file:name hop qualification (same-named functions in different
// dependencies cannot collide) and a dependency-hop path: the chain of
// packages the call path crosses, root first. Every tree finding
// carries at least the sink's owning package.
func annotateTreeProvenance(rep *Report, rr *reach.Result, tree *deptree.Tree, ln *treeLinker) {
	for i := range rep.Findings {
		f := &rep.Findings[i]
		var hops []string
		entry := "(unresolved)"
		fallback := true
		if rr != nil && rr.Exports != nil {
			if e, hs, ok := rr.Exports.PathTo(f.SinkFile, f.SinkLine); ok {
				entry, hops, fallback = e, hs, rr.Fallback
			} else {
				fallback = rr.Fallback
			}
		}
		qhops := make([]string, len(hops))
		depPath := []string{}
		lastPkg := ""
		addPkg := func(p *deptree.Package) {
			if p == nil {
				return
			}
			label := treePkgLabel(p)
			if label != lastPkg {
				depPath = append(depPath, label)
				lastPkg = label
			}
		}
		// The entry hop chain starts at the root package's API in the
		// common case; record each boundary crossing in order.
		for j, h := range hops {
			file := h
			if idx := strings.Index(h, ":"); idx >= 0 {
				file = h[:idx]
			}
			owner := tree.Owner(file)
			pkgName := "?"
			if owner != nil {
				pkgName = treePkgName(owner)
			}
			qhops[j] = pkgName + ":" + h
			addPkg(owner)
		}
		// The sink's own package always terminates the path, resolved
		// provenance or not — a tree finding is never package-less.
		addPkg(tree.Owner(f.SinkFile))
		if len(depPath) == 0 {
			depPath = append(depPath, "(unresolved)")
		}
		f.Provenance = queries.Provenance{
			Entry:    entry,
			Hops:     qhops,
			Fallback: fallback,
			DepPath:  depPath,
		}
		if len(qhops) > rep.ProvenanceDepth {
			rep.ProvenanceDepth = len(qhops)
		}
	}
}

// treePkgName names a package for hop qualification ("(root)" for the
// tree root when it has no package.json name).
func treePkgName(p *deptree.Package) string {
	if p.Name != "" {
		return p.Name
	}
	if p.Dir == "" {
		return "(root)"
	}
	return p.Dir
}

// treePkgLabel renders one dependency-path hop: the package name, its
// version when known, and the node_modules directory that supplied it.
func treePkgLabel(p *deptree.Package) string {
	name := treePkgName(p)
	if p.Dir == "" {
		return name
	}
	if p.Version != "" {
		return fmt.Sprintf("%s@%s (%s)", name, p.Version, p.Dir)
	}
	return fmt.Sprintf("%s (%s)", name, p.Dir)
}
