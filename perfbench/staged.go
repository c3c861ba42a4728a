package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/budget"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/deptree"
	"repro/internal/js/ast"
	"repro/internal/js/lexer"
	"repro/internal/js/normalize"
	"repro/internal/js/parser"
	"repro/internal/js/token"
	"repro/internal/mdg"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/store"
	"repro/internal/taint"
)

// stager composes the scan pipeline from the layers' public functions
// — parser, normalize, cfg, reach, analysis, then queries and taint —
// with a span around every call, so each layer's self time and
// allocations can be read off the trace. It calls the same *Budget
// entry points the scanner calls, with a budget of the scanner's
// default limits and the same phase marks, so the spans include the
// step and deadline accounting a scan pays. For flat packages it also
// runs the scanner on the same input and requires the same finding
// identities: otherwise the layer numbers would describe a different
// program than the one the end-to-end metrics measure.
type stager struct {
	r   *run
	t   *tracer
	st  *store.Store // written without fsync; the sync is its own span
	cfg *queries.Config

	pkgs, trees, skipped, analyzed, fragments int
	tokens, mdgNodes, mdgEdges, fragBytes     int
	// mirror is the time the staged calls that the scanner also makes
	// took, bookkeeping included; scannerTime is the untraced scanner
	// on the same inputs. Their difference is the tracing overhead.
	mirror, scannerTime time.Duration
	keys                int
}

// lexAll runs the lexer over every file on its own, so its token rate
// is measurable apart from the parser (which lexes again as it
// parses).
func (s *stager) lexAll(files []fileSrc, parent int, req int64) error {
	for _, f := range files {
		var n int
		var err error
		s.t.do("lexer", parent, req, func() {
			var toks []token.Token
			toks, err = lexer.ScanAll(f.src)
			n = len(toks)
		})
		if err != nil {
			return fmt.Errorf("lex %s: %w", f.rel, err)
		}
		s.tokens += n
	}
	return nil
}

// newBudget is the budget a scan with default options gets: no limits,
// labelled with the package name.
func newBudget(name string) *budget.Budget {
	b := budget.New(budget.Limits{})
	b.SetLabel(name)
	return b
}

// parseAll parses, lowers and builds CFGs per file, as the scanner's
// front end does.
func (s *stager) parseAll(files []fileSrc, b *budget.Budget, parent int, req int64) ([]*core.Program, error) {
	progs := make([]*core.Program, 0, len(files))
	b.BeginPhase("front-end")
	for _, f := range files {
		var err error
		var prog *ast.Program
		s.t.do("parser", parent, req, func() { prog, err = parser.ParseBudget(f.src, b) })
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", f.rel, err)
		}
		var np *core.Program
		s.t.do("normalize", parent, req, func() { np = normalize.NormalizeBudget(prog, f.rel, b) })
		s.t.do("cfg", parent, req, func() { cfg.BuildAll(np) })
		progs = append(progs, np)
	}
	if err := b.CheckDeadline(); err != nil {
		return nil, err
	}
	return progs, nil
}

// persist runs the store layer on one analysis result: snapshot the
// MDG as a fragment, encode it, append and sync it, read it back and
// decode it.
func (s *stager) persist(res *analysis.Result, parent int, req int64) (*mdg.Fragment, error) {
	var frag *mdg.Fragment
	var data, got []byte
	var err error
	var ok bool
	s.t.do("mdg.snapshot", parent, req, func() { frag = mdg.SnapshotFragment(res.Graph) })
	s.t.do("mdg.encode", parent, req, func() { data = mdg.EncodeFragment(frag) })
	s.keys++
	key := fmt.Sprintf("staged-%d", s.keys)
	s.t.do("store.put", parent, req, func() { err = s.st.Put(store.KindFragment, key, data) })
	if err != nil {
		return nil, fmt.Errorf("store put: %w", err)
	}
	s.t.do("store.sync", parent, req, func() { err = s.st.Sync() })
	if err != nil {
		return nil, fmt.Errorf("store sync: %w", err)
	}
	s.t.do("store.get", parent, req, func() { got, ok = s.st.Get(store.KindFragment, key) })
	if !ok {
		return nil, fmt.Errorf("store get %s: missing", key)
	}
	s.t.do("mdg.decode", parent, req, func() { _, err = mdg.DecodeFragment(got) })
	if err != nil {
		return nil, fmt.Errorf("decode fragment: %w", err)
	}
	s.fragments++
	s.fragBytes += len(data)
	return frag, nil
}

// flatPackage stages one package the way ScanSource (single-file
// dataset packages) or ScanFiles (multi-module packages) scans it, and
// checks the staged findings against that scanner call.
func (s *stager) flatPackage(p *pkgFiles, req int64) error {
	s.pkgs++
	root := s.t.begin("pkg", -1, req)
	files := jsFiles(p)
	if err := s.lexAll(files, root, req); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	mirrorStart := time.Now()
	b := newBudget(p.name)
	progs, err := s.parseAll(files, b, root, req)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	var rr *reach.Result
	b.BeginPhase("reach-gate")
	s.t.do("reach", root, req, func() { rr = reach.AnalyzeBudget(progs, s.cfg, b) })
	var staged, native []queries.Finding
	var res *analysis.Result
	if rr.CanSkipDetection() {
		s.skipped++
		s.mirror += time.Since(mirrorStart)
	} else {
		aopts := analysis.DefaultOptions()
		aopts.Budget = b
		b.BeginPhase("analysis")
		s.t.do("analysis", root, req, func() { res = analysis.AnalyzeModules(progs, aopts) })
		if err := b.CheckDeadline(); err != nil {
			return fmt.Errorf("%s: analysis: %w", p.name, err)
		}
		var lg *queries.LoadedGraph
		b.BeginPhase("detect-query")
		s.t.do("queries.load", root, req, func() { lg = queries.LoadBudget(res, b) })
		var derr error
		s.t.do("queries.detect", root, req, func() { staged, derr = queries.Detect(lg, s.cfg) })
		s.mirror += time.Since(mirrorStart)
		if derr != nil {
			return fmt.Errorf("%s: detect: %w", p.name, derr)
		}
		b.BeginPhase("detect-native")
		s.t.do("taint", root, req, func() { native = taint.NewEngineBudget(res, s.cfg, b).Detect() })
		s.analyzed++
		s.mdgNodes += res.Graph.NumNodes()
		s.mdgEdges += res.Graph.NumEdges()
		if _, err := s.persist(res, root, req); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	s.t.end(root)

	t0 := time.Now()
	rep := scanCold(p)
	s.scannerTime += time.Since(t0)
	if rep.Err != nil || rep.Failure != "" {
		return fmt.Errorf("%s: scanner failed: %v %v", p.name, rep.Failure, rep.Err)
	}
	want := fromScanner(rep.Findings)
	if err := sameFindings(want, fromScanner(staged)); err != nil {
		s.r.mismatch("staged pipeline vs scanner on %s: %v", p.name, err)
	}
	if err := sameFindings(fromScanner(staged), fromScanner(native)); err != nil {
		s.r.mismatch("query vs native engine on %s: %v", p.name, err)
	}
	return nil
}

// treePackage stages a dependency-tree input the way a tree scan
// builds it: resolve the tree, gate it as a whole, analyze each
// package into its own fragment, and stitch the fragments. Only the
// resolver and the stitch are tree-mode layers; the front end, gate
// and analysis of tree inputs get their own span names so the
// per-package layer metrics describe the workload's flat packages
// alone. The scanner's cross-package linking is internal to it, so
// trees get no staged detection: served tree scans are checked
// against cold tree scans instead.
func (s *stager) treePackage(p *pkgFiles, req int64) error {
	s.trees++
	root := s.t.begin("tree", -1, req)
	defer s.t.end(root)
	fmap := make(map[string]string, len(p.files))
	for _, f := range p.files {
		fmap[f.Rel] = f.Src
	}
	var tree *deptree.Tree
	s.t.do("deptree", root, req, func() { tree = deptree.Build(fmap) })
	if probs := tree.Problems(); len(probs) > 0 {
		return fmt.Errorf("%s: tree problems: %v", p.name, probs)
	}
	files := jsFiles(p)
	byRel := make(map[string]*core.Program, len(files))
	var progs []*core.Program
	var err error
	b := newBudget(p.name)
	b.BeginPhase("front-end")
	s.t.do("tree.frontend", root, req, func() {
		for _, f := range files {
			var prog *ast.Program
			if prog, err = parser.ParseBudget(f.src, b); err != nil {
				err = fmt.Errorf("parse %s: %w", f.rel, err)
				return
			}
			np := normalize.NormalizeBudget(prog, f.rel, b)
			byRel[f.rel] = np
			progs = append(progs, np)
		}
	})
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	var rr *reach.Result
	b.BeginPhase("reach-gate")
	s.t.do("tree.reach", root, req, func() { rr = reach.AnalyzeBudget(progs, s.cfg, b) })
	if rr.CanSkipDetection() {
		return nil
	}
	aopts := analysis.DefaultOptions()
	aopts.NoExportFallback = true
	aopts.ForceMultiPass = true
	aopts.Budget = b
	b.BeginPhase("analysis")
	var frags []*mdg.Fragment
	for _, pkg := range tree.Packages {
		var pp []*core.Program
		for _, rel := range pkg.Files {
			if prog := byRel[rel]; prog != nil {
				pp = append(pp, prog)
			}
		}
		if len(pp) == 0 {
			continue
		}
		var res *analysis.Result
		s.t.do("tree.analysis", root, req, func() { res = analysis.AnalyzeModules(pp, aopts) })
		frag, err := s.persist(res, root, req)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		frags = append(frags, frag)
	}
	s.t.do("mdg.stitch", root, req, func() { mdg.Stitch(frags...) })
	return nil
}

type fileSrc struct{ rel, src string }

// jsFiles lists the package's JavaScript files; manifests only feed
// the tree resolver.
func jsFiles(p *pkgFiles) []fileSrc {
	var out []fileSrc
	for _, f := range p.files {
		if p.source || strings.HasSuffix(f.Rel, ".js") {
			out = append(out, fileSrc{f.Rel, f.Src})
		}
	}
	return out
}
