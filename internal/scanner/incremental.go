package scanner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/store"
)

// IncrementalStats counts what the incremental state reused and
// rebuilt, cumulatively over its lifetime.
type IncrementalStats struct {
	// Front-end (parse/normalize/CFG) cache traffic.
	FrontEndHits, FrontEndMisses int
	// Fragment (per require-component MDG) cache traffic. A fragment
	// miss is a rebuild: the component's files changed (or were never
	// seen), so its graph was re-analyzed from the lowered programs.
	FragmentHits, FragmentMisses int
	// Detection-result cache traffic (per fragment × engine ×
	// export-fallback bit).
	DetectHits, DetectMisses int
	// Entries dropped because their files disappeared from the
	// package (EvictedFiles) or their component key went stale
	// (EvictedFragments).
	EvictedFiles, EvictedFragments int
	// Persistent-store traffic (zero unless a store is attached).
	// StoreHits are entries served from disk instead of rebuilt;
	// StoreQuarantined counts records dropped for failing a CRC or
	// decode — each one a corruption turned into a cold rebuild
	// instead of a wrong finding. StoreErrors counts failed writes
	// (ENOSPC and injected faults): the entry stayed in memory, the
	// disk missed a speedup.
	StoreHits, StoreMisses, StorePuts int
	StoreQuarantined, StoreErrors     int
}

// Rebuilds returns the number of fragment rebuilds (the miss count).
func (s IncrementalStats) Rebuilds() int { return s.FragmentMisses }

// Add accumulates other into s (used by StatePool aggregation and
// metrics sweeps).
func (s *IncrementalStats) Add(o IncrementalStats) {
	s.FrontEndHits += o.FrontEndHits
	s.FrontEndMisses += o.FrontEndMisses
	s.FragmentHits += o.FragmentHits
	s.FragmentMisses += o.FragmentMisses
	s.DetectHits += o.DetectHits
	s.DetectMisses += o.DetectMisses
	s.EvictedFiles += o.EvictedFiles
	s.EvictedFragments += o.EvictedFragments
	s.StoreHits += o.StoreHits
	s.StoreMisses += o.StoreMisses
	s.StorePuts += o.StorePuts
	s.StoreQuarantined += o.StoreQuarantined
	s.StoreErrors += o.StoreErrors
}

// IncrementalState carries everything a package's re-scans can reuse:
// the per-file front end, per-file dependency facts, per-component MDG
// fragments (immutable mdg.Fragment snapshots keyed by the component
// files' content hashes), and per-fragment detection results. One
// state serves one logical package; all methods are safe for
// concurrent use (a scan holds the state's lock end to end, so
// concurrent scans of the same state serialize).
type IncrementalState struct {
	mu    sync.Mutex
	cache *Cache
	facts map[string]*factsEntry
	frags map[string]*fragEntry
	stats IncrementalStats
	// store, when attached, backs the fragment/detect/facts families
	// on disk (read-through on miss, write-through on clean build).
	// See persist.go.
	store *store.Store
}

// NewIncrementalState returns an empty per-package incremental state.
func NewIncrementalState() *IncrementalState {
	return &IncrementalState{
		cache: NewCache(),
		facts: make(map[string]*factsEntry),
		frags: make(map[string]*fragEntry),
	}
}

// Stats returns a snapshot of the cumulative counters.
func (st *IncrementalState) Stats() IncrementalStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snapshotStats()
}

func (st *IncrementalState) snapshotStats() IncrementalStats {
	s := st.stats
	s.FrontEndHits, s.FrontEndMisses = st.cache.Stats()
	return s
}

// Fragments returns the number of cached MDG fragments (test hook).
func (st *IncrementalState) Fragments() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.frags)
}

// FrontEnd exposes the state's front-end cache (test hook).
func (st *IncrementalState) FrontEnd() *Cache { return st.cache }

type factsEntry struct {
	hash  [sha256.Size]byte
	facts *fileFacts
}

// fragEntry is one cached require-component: an immutable graph
// snapshot plus the function summaries and export facts needed to
// rehydrate an analysis result for detection.
type fragEntry struct {
	key  string
	rels []string
	frag *mdg.Fragment
	// functions are shared mutable summaries (their Exported bit is
	// flipped when the package-wide export fallback toggles);
	// realExported records the build-time truth they are reset from.
	functions    map[string]*analysis.FuncSummary
	realExported map[string]bool
	hasReal      bool
	detect       map[detectKey]*detectResult
	// Cross-package linker side tables (tree mode): unresolved require
	// placeholders, per-call callee/this value sets, and per-module
	// CommonJS globals. Locations are fragment-local; ScanTree
	// translates them through the stitch remap (see analysis.Result).
	externals  map[string]mdg.Loc
	calleeLocs map[mdg.Loc][]mdg.Loc
	callThis   map[mdg.Loc][]mdg.Loc
	modEnv     map[string]analysis.ModuleLocs
}

type detectKey struct {
	engine   Engine
	fallback bool
	cfg      *queries.Config
}

// detectResult is a cached detection outcome for one fragment. Only
// complete runs (no budget interference) are cached.
type detectResult struct {
	findings    []queries.Finding
	truncated   int
	fellBack    bool
	fallbackErr error
	err         error
	failure     budget.Class
}

// StatePool hands out one IncrementalState per package name — the
// shape corpus sweeps need (metrics.SweepGraphJS with
// Options.IncrementalPool, graphjs -incremental, graphjsd's process-
// wide warm pool). A pool can be bounded (SetLimits) so a long-lived
// daemon cannot grow without limit: least-recently-used package
// states are evicted when the entry or estimated-byte cap is
// exceeded. With a store attached (AttachStore), eviction is cheap to
// recover from — the evicted state's fragments and detection results
// live on disk and reload on the package's next scan.
type StatePool struct {
	mu     sync.Mutex
	states map[string]*IncrementalState
	// lastUse orders states for LRU eviction (tick is a logical clock:
	// monotonic under mu, no wall-clock reads).
	lastUse map[string]int64
	tick    int64
	store   *store.Store

	maxStates int
	maxBytes  int64

	evictedStates int64
	evictedBytes  int64
}

// NewStatePool returns an empty, unbounded pool.
func NewStatePool() *StatePool {
	return &StatePool{
		states:  make(map[string]*IncrementalState),
		lastUse: make(map[string]int64),
	}
}

// SetLimits bounds the pool: at most maxStates package states and (an
// estimate of) maxBytes of retained cache memory; zero means
// unlimited on that axis. Exceeding either evicts least-recently-used
// states (never the one being returned).
func (p *StatePool) SetLimits(maxStates int, maxBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.maxStates = maxStates
	p.maxBytes = maxBytes
}

// AttachStore connects every state in the pool — present and future —
// to the persistent store. nil detaches.
func (p *StatePool) AttachStore(s *store.Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store = s
	for _, st := range p.states {
		st.AttachStore(s)
	}
}

// Store returns the attached persistent store (nil if none).
func (p *StatePool) Store() *store.Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store
}

// Save flushes the attached store to disk. Scans write through as
// they go, so this is a group-commit point (drain, shutdown), not a
// bulk dump.
func (p *StatePool) Save() error {
	s := p.Store()
	if s == nil {
		return nil
	}
	return s.Sync()
}

// Get returns the state for name, creating it on first use, and
// enforces the pool's limits.
func (p *StatePool) Get(name string) *IncrementalState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.states[name]
	if st == nil {
		st = NewIncrementalState()
		st.store = p.store
		p.states[name] = st
	}
	p.tick++
	p.lastUse[name] = p.tick
	p.enforceLimits(name)
	return st
}

// enforceLimits evicts least-recently-used states (never keep) until
// both caps hold. Called under p.mu.
func (p *StatePool) enforceLimits(keep string) {
	if p.maxStates <= 0 && p.maxBytes <= 0 {
		return
	}
	var total int64
	sizes := make(map[string]int64, len(p.states))
	if p.maxBytes > 0 {
		for name, st := range p.states {
			sz := st.EstimateBytes()
			sizes[name] = sz
			total += sz
		}
	}
	for (p.maxStates > 0 && len(p.states) > p.maxStates) ||
		(p.maxBytes > 0 && total > p.maxBytes) {
		victim := ""
		var oldest int64
		for name := range p.states {
			if name == keep {
				continue
			}
			if t := p.lastUse[name]; victim == "" || t < oldest {
				victim, oldest = name, t
			}
		}
		if victim == "" {
			return // only keep remains; it is never evicted
		}
		sz := sizes[victim]
		if p.maxBytes > 0 && sz == 0 {
			sz = p.states[victim].EstimateBytes()
		}
		delete(p.states, victim)
		delete(p.lastUse, victim)
		p.evictedStates++
		p.evictedBytes += sz
		total -= sz
	}
}

// Evictions reports how many package states (and how many estimated
// bytes) the pool's limits have evicted so far.
func (p *StatePool) Evictions() (states int64, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictedStates, p.evictedBytes
}

// Len returns the number of package states in the pool.
func (p *StatePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.states)
}

// Stats aggregates the counters of every state in the pool.
func (p *StatePool) Stats() IncrementalStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out IncrementalStats
	for _, st := range p.states {
		out.Add(st.Stats())
	}
	return out
}

// EstimateBytes approximates the memory retained by this state's
// caches. It is a sizing heuristic for pool limits, not an exact
// accounting: fragments dominate (nodes and edges at struct size plus
// slice overhead), front-end entries are charged per lowered
// statement, facts and detection entries at flat rates.
func (st *IncrementalState) EstimateBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var b int64
	for _, fe := range st.frags {
		if fe.frag != nil {
			b += int64(fe.frag.NumNodes())*112 + int64(fe.frag.NumEdges())*48
		}
		b += int64(len(fe.functions)) * 96
		for _, dr := range fe.detect {
			b += 128 + int64(len(dr.findings))*160
		}
	}
	b += st.cache.EstimateBytes()
	b += int64(len(st.facts)) * 256
	return b
}

// scan is the incremental counterpart of scanFiles: same inputs, same
// report contract, but re-analysis is limited to the require-
// components whose files changed since the previous scan of this
// state. Equivalence with a cold scan (same findings, same failure
// classification) is enforced by the mutation harness in
// internal/metrics; the known report-level difference is that
// MDGNodes/MDGEdges sum per-fragment sizes.
func (st *IncrementalState) scan(files []SourceFile, name string, opts Options, preErr error) *Report {
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
	start := time.Now()

	// Front end, through the state's cache.
	type feItem struct {
		rel   string
		entry *cacheEntry
	}
	var items []feItem
	keep := make(map[string]bool, len(files))
	ferr := budget.Guard("front-end", func() error {
		for _, f := range files {
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
	// Deleted files are observable now: their front-end entries and
	// facts must go, so nothing stale can join a later partition.
	st.stats.EvictedFiles += st.cache.EvictExcept(keep)
	for rel := range st.facts {
		if !keep[rel] {
			delete(st.facts, rel)
		}
	}
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

	progs := make([]*core.Program, len(items))
	for i, it := range items {
		progs[i] = it.entry.prog
	}

	// Whole-package reach closure: cheap and cross-file, so it is
	// recomputed from the (cached) lowered programs on every scan
	// rather than stitched from per-file summaries.
	skip := false
	var rr *reach.Result
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

	// Per-file dependency facts (cached by content hash) and the
	// component partition.
	rels := make([]string, len(items))
	hashes := make([][sha256.Size]byte, len(items))
	factsList := make([]*fileFacts, len(items))
	for i, it := range items {
		rels[i] = it.rel
		hashes[i] = it.entry.hash
		fe := st.facts[it.rel]
		if fe == nil || fe.hash != it.entry.hash {
			facts, fromStore := st.loadFacts(it.entry.hash)
			if !fromStore {
				facts = extractFacts(it.entry.prog)
				st.saveFacts(it.entry.hash, facts)
			}
			fe = &factsEntry{hash: it.entry.hash, facts: facts}
			st.facts[it.rel] = fe
		}
		factsList[i] = fe.facts
	}
	comps := partitionComponents(rels, factsList)

	aopts := opts.Analysis
	if aopts.MaxLoopIter == 0 {
		aopts = analysis.DefaultOptions()
	}
	callerNoFallback := aopts.NoExportFallback
	aopts.NoExportFallback = true
	multiPass := aopts.ForceMultiPass || len(items) > 1
	aopts.ForceMultiPass = multiPass
	aoptsKey := fmt.Sprintf("v1|%d|%d|%t|%t", aopts.MaxLoopIter, aopts.StepBudget,
		aopts.TreatAllFunctionsAsExported, multiPass)
	aopts.Budget = b

	// Build or fetch each component's fragment. A budget cap mid-build
	// keeps the partial fragment for this scan's detection (mirroring
	// the cold scan's partial-graph detection) but never caches it.
	type liveFrag struct {
		fe     *fragEntry
		res    *analysis.Result // non-nil when built (possibly partially) this scan
		stored bool             // fe lives in st.frags (cacheable detection)
	}
	var lives []liveFrag
	currentKeys := make(map[string]bool, len(comps))
	aborted := false
	for _, comp := range comps {
		ckey := componentKey(comp, hashes, aoptsKey)
		currentKeys[ckey] = true
		if fe, ok := st.frags[ckey]; ok {
			st.stats.FragmentHits++
			lives = append(lives, liveFrag{fe: fe, stored: true})
			continue
		}
		// Warm restart: a fragment built by a previous process (or a
		// replica sharing the directory) serves from the store instead
		// of being rebuilt. Decode failure already quarantined and
		// reported a miss, so the cold path below is the only fallback.
		if fe, ok := st.loadFrag(ckey); ok {
			st.stats.FragmentHits++
			st.frags[ckey] = fe
			lives = append(lives, liveFrag{fe: fe, stored: true})
			continue
		}
		if aborted {
			continue // cap already tripped; only cached components join
		}
		st.stats.FragmentMisses++
		comprogs := make([]*core.Program, len(comp))
		crels := make([]string, len(comp))
		for j, i := range comp {
			comprogs[j] = progs[i]
			crels[j] = rels[i]
		}
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
				// Terminal for the whole scan; returning before
				// newFragEntry guarantees nothing half-built — and no
				// canceled result — ever enters the fragment cache.
				rep.Failure = c
				rep.TimedOut = c == budget.ClassTimeout
				rep.Incomplete = c == budget.ClassCanceled
				rep.GraphTime = time.Since(start)
				rep.IncrStats = st.statsPtr()
				return rep
			}
			// A step/node/edge cap: the fragment is incomplete. Use it
			// for this scan's best-effort detection but do NOT cache
			// it — a later uncapped scan must rebuild it in full.
			rep.Incomplete = true
			rep.Failure = budget.ClassOf(berr)
			aborted = true
			lives = append(lives, liveFrag{fe: partialFragEntry(ckey, crels, res), res: res})
			continue
		}
		fe := newFragEntry(ckey, crels, res)
		st.frags[ckey] = fe
		st.saveFrag(fe)
		lives = append(lives, liveFrag{fe: fe, res: res, stored: true})
	}

	// Package-wide export decision: the script fallback applies only
	// when no fragment has a real export (exactly the cold rule).
	anyReal := false
	for _, lv := range lives {
		if lv.fe.hasReal {
			anyReal = true
		}
	}
	fb := !anyReal && !aopts.TreatAllFunctionsAsExported && !callerNoFallback

	for _, lv := range lives {
		if lv.res != nil {
			rep.MDGNodes += lv.res.Graph.NumNodes()
			rep.MDGEdges += lv.res.Graph.NumEdges()
		} else {
			rep.MDGNodes += lv.fe.frag.NumNodes()
			rep.MDGEdges += lv.fe.frag.NumEdges()
		}
	}
	rep.GraphTime = time.Since(start)

	detb := b
	if aborted {
		detb = b.DeadlineOnly()
	}
	// Detection results are keyed by the caller's config pointer; a nil
	// Config means the shared default (queries.OrDefault).
	for _, lv := range lives {
		dkey := detectKey{engine: engine, fallback: fb, cfg: opts.Config}
		if lv.stored {
			if dr, ok := lv.fe.detect[dkey]; ok {
				st.stats.DetectHits++
				mergeCachedDetect(rep, dr)
				continue
			}
			if dr, ok := st.loadDetect(lv.fe.key, engine, fb, opts.Config); ok {
				st.stats.DetectHits++
				lv.fe.detect[dkey] = dr
				mergeCachedDetect(rep, dr)
				continue
			}
		}
		st.stats.DetectMisses++
		res := lv.res
		if res != nil {
			if fb {
				analysis.ApplyExportFallback(res)
			}
		} else {
			res = rehydrate(lv.fe, fb)
		}
		scratch := &Report{Name: rep.Name, Engine: engine}
		detectInto(scratch, res, cfgq, engine, detb)
		mergeScratch(rep, scratch)
		if lv.stored && detb.Err() == nil && !scratch.Incomplete && !scratch.TimedOut {
			dr := &detectResult{
				findings:    scratch.Findings,
				truncated:   scratch.TruncatedSearches,
				fellBack:    scratch.FellBack,
				fallbackErr: scratch.FallbackErr,
				err:         scratch.Err,
				failure:     scratch.Failure,
			}
			lv.fe.detect[dkey] = dr
			st.saveDetect(lv.fe.key, engine, fb, opts.Config, dr)
		}
	}
	rep.Findings = queries.SortFindings(rep.Findings)
	// Provenance is recomputed from this scan's whole-package gate
	// result; merge paths append finding copies, so annotating here
	// can never corrupt cached detection entries.
	annotateProvenance(rep, rr)

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

	// Fragment invalidation: after a complete scan, any component key
	// not part of the package anymore (changed or deleted files) is
	// stale for good — a changed file can never produce the old key
	// again without also reproducing the old content.
	if !aborted {
		for k := range st.frags {
			// Tree-mode fragments live in their own key namespace and
			// are invalidated by scanTree, never by a component scan.
			if strings.HasPrefix(k, treeKeyPrefix) {
				continue
			}
			if !currentKeys[k] {
				delete(st.frags, k)
				st.stats.EvictedFragments++
			}
		}
	}
	rep.IncrStats = st.statsPtr()
	return rep
}

// statsPtr snapshots the counters for a report.
func (st *IncrementalState) statsPtr() *IncrementalStats {
	s := st.snapshotStats()
	return &s
}

// componentKey identifies a component by its files' content hashes
// (which cover both path and source) plus the analysis options that
// shape the fragment.
func componentKey(comp []int, hashes [][sha256.Size]byte, aoptsKey string) string {
	h := sha256.New()
	h.Write([]byte(aoptsKey))
	for _, i := range comp {
		h.Write([]byte{0})
		h.Write(hashes[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newFragEntry snapshots a freshly built component into a cacheable
// fragment. Called only on clean builds.
func newFragEntry(key string, rels []string, res *analysis.Result) *fragEntry {
	fe := partialFragEntry(key, rels, res)
	fe.frag = mdg.SnapshotFragment(res.Graph)
	return fe
}

// partialFragEntry wraps a (possibly budget-truncated) build without a
// graph snapshot; it is used for this scan only and never cached.
func partialFragEntry(key string, rels []string, res *analysis.Result) *fragEntry {
	fe := &fragEntry{
		key:          key,
		rels:         rels,
		functions:    res.Functions,
		realExported: make(map[string]bool, len(res.Functions)),
		hasReal:      res.HasRealExports,
		detect:       make(map[detectKey]*detectResult),
		externals:    res.Externals,
		calleeLocs:   res.CalleeLocs,
		callThis:     res.CallThis,
		modEnv:       res.ModuleEnv,
	}
	for name, fn := range res.Functions {
		fe.realExported[name] = fn.Exported
	}
	return fe
}

// rehydrate rebuilds a detection-ready analysis result from a cached
// fragment: a fresh graph via the stitching API (a single-fragment
// stitch preserves locations, so the stored summaries stay valid), the
// export marks reset to the build-time truth, and the package-wide
// fallback applied if requested.
func rehydrate(fe *fragEntry, fallback bool) *analysis.Result {
	g, _ := mdg.Stitch(fe.frag)
	res := &analysis.Result{
		Graph: g, Functions: fe.functions, HasRealExports: fe.hasReal,
		Externals: fe.externals, CalleeLocs: fe.calleeLocs,
		CallThis: fe.callThis, ModuleEnv: fe.modEnv,
	}
	for name, fn := range fe.functions {
		fn.Exported = fe.realExported[name]
		if n := g.Node(fn.Loc); n != nil {
			n.Exported = fn.Exported
		}
	}
	if fallback {
		analysis.ApplyExportFallback(res)
	}
	return res
}

// mergeCachedDetect folds a cached detection result into the report.
func mergeCachedDetect(rep *Report, dr *detectResult) {
	rep.Findings = append(rep.Findings, dr.findings...)
	rep.TruncatedSearches += dr.truncated
	if dr.fellBack {
		rep.FellBack = true
		if rep.FallbackErr == nil {
			rep.FallbackErr = dr.fallbackErr
		}
	}
	if dr.err != nil && rep.Err == nil {
		rep.Err = dr.err
	}
	if dr.failure != budget.ClassNone && rep.Failure == budget.ClassNone {
		rep.Failure = dr.failure
	}
}

// mergeScratch folds a live per-fragment detection report into the
// package report.
func mergeScratch(rep, scratch *Report) {
	rep.Findings = append(rep.Findings, scratch.Findings...)
	rep.TruncatedSearches += scratch.TruncatedSearches
	rep.NativeTime += scratch.NativeTime
	rep.QueryEngineTime += scratch.QueryEngineTime
	rep.QueryTime += scratch.QueryTime
	if scratch.Incomplete {
		rep.Incomplete = true
	}
	if scratch.TimedOut {
		rep.TimedOut = true
	}
	if scratch.FellBack {
		rep.FellBack = true
		if rep.FallbackErr == nil {
			rep.FallbackErr = scratch.FallbackErr
		}
	}
	if scratch.Err != nil && rep.Err == nil {
		rep.Err = scratch.Err
	}
	if scratch.Failure != budget.ClassNone && rep.Failure == budget.ClassNone {
		rep.Failure = scratch.Failure
	}
}
