package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/server"
)

// pkgFiles is one package as the benchmark hands it to the program.
type pkgFiles struct {
	name  string
	files []scanner.SourceFile // sorted by Rel
	// source marks a single-file dataset package, scanned the way the
	// corpus sweeps scan it: ScanSource under the package's own name.
	source bool
	tree   bool
	truth  truth
}

// corpusPackages converts a generated corpus. The benchmark corpora
// are single-file packages; a multi-file one would need per-file
// annotations, which dataset.Annotation does not carry.
func corpusPackages(c *dataset.Corpus) ([]*pkgFiles, error) {
	out := make([]*pkgFiles, len(c.Packages))
	for i, p := range c.Packages {
		if len(p.Extra) > 0 {
			return nil, fmt.Errorf("corpus %s: package %s has several files", c.Name, p.Name)
		}
		out[i] = &pkgFiles{
			name:   p.Name,
			files:  []scanner.SourceFile{{Rel: p.Name, Src: p.Source}},
			source: true,
			truth:  packageTruth(p, p.Name),
		}
	}
	return out, nil
}

// Request kinds of the serve-edits mix.
const (
	kindNew      = "new"       // first submission of a new package: cold build, store writes
	kindEdit     = "edit"      // re-submission after editing one module: warm cache reads
	kindEvicted  = "evicted"   // re-submission of a name the StatePool evicted: store reads
	kindTreeNew  = "tree-new"  // first tree:true submission of a dependency tree
	kindTreeEdit = "tree-edit" // tree re-submission with one dependency edited
)

// request is one generated /v1/scan call.
type request struct {
	kind string
	pkg  *pkgFiles
	body []byte
}

// lru mirrors the daemon's StatePool, an LRU of at most stateCap
// package states keyed by name: it lists the names every traffic
// stream has sent to one daemon, least recently used first. The
// windows follow from that bound and the client's connections alone.
// With conns requests in flight the daemon may see names up to conns
// places out of the order they were sent in, so a name with fewer than
// stateCap-conns others sent after it is surely resident, and one with
// at least stateCap+conns others after it is surely evicted. The list
// keeps twice the eviction distance; a flat name that falls off it is
// forgotten by its stream, which keeps the generator's memory a fixed
// size.
type lru struct {
	warm, cold int
	order      []lruEntry
}

type lruEntry struct {
	name  string
	owner *traffic
}

func newLRU(stateCap, conns int) *lru {
	return &lru{warm: stateCap - conns, cold: stateCap + conns}
}

func (l *lru) touch(name string, owner *traffic) {
	for i, e := range l.order {
		if e.name == name {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	l.order = append(l.order, lruEntry{name, owner})
	for len(l.order) > 2*l.cold {
		if e := l.order[0]; !e.owner.isTree[e.name] {
			delete(e.owner.current, e.name)
		}
		l.order = l.order[1:]
	}
}

// traffic generates one serve-edits request stream. Packages are
// assembled from module-pool packages under an index.js that
// re-exports them all; trees are dataset.TreeCases plus generated
// dependency chains. Through the shared lru it targets names that are
// still warm in the daemon or already evicted.
type traffic struct {
	r       *rand.Rand
	prefix  string // starts every package name this stream submits
	pool    []*dataset.Package
	names   *lru
	current map[string]*pkgFiles // latest content per remembered name
	isTree  map[string]bool
	trees   []*pkgFiles
	nextPkg int
	rev     int
	kinds   map[string]int // requests drawn, by kind
}

func newTraffic(seed int64, prefix string, pool []*dataset.Package, names *lru) *traffic {
	t := &traffic{
		r:       rand.New(rand.NewSource(seed)),
		prefix:  prefix,
		pool:    pool,
		names:   names,
		current: map[string]*pkgFiles{},
		isTree:  map[string]bool{},
		kinds:   map[string]int{},
	}
	for _, c := range dataset.TreeCases() {
		t.trees = append(t.trees, treeCasePackage(c))
	}
	for d := 1; d <= 16; d++ {
		t.trees = append(t.trees, chainPackage(d))
	}
	for _, p := range t.trees {
		p.name = prefix + p.name
		t.isTree[p.name] = true
	}
	return t
}

// next draws one request. No request mix of real daemon traffic has
// been measured, so each of the four kinds gets an equal share: new
// packages, edits of warm packages, re-submissions of evicted packages
// and tree scans. A kind with no eligible target yet falls back to a
// new package.
func (t *traffic) next() request {
	var rq request
	switch t.r.Intn(4) {
	case 0:
		rq = t.tree()
	case 1:
		rq = t.evicted()
	case 2:
		rq = t.edit()
	}
	if rq.pkg == nil {
		rq = request{kind: kindNew, pkg: t.assemble()}
	}
	t.kinds[rq.kind]++
	t.current[rq.pkg.name] = rq.pkg
	t.names.touch(rq.pkg.name, t)
	body, err := json.Marshal(server.ScanRequest{Name: rq.pkg.name, Files: wireFiles(rq.pkg.files), Tree: rq.pkg.tree})
	if err != nil {
		panic(err) // plain strings and ints always marshal
	}
	rq.body = body
	return rq
}

// mix describes the requests drawn so far by kind, as shares.
func (t *traffic) mix() string {
	total := 0
	for _, n := range t.kinds {
		total += n
	}
	var b strings.Builder
	for _, k := range []string{kindNew, kindEdit, kindEvicted, kindTreeNew, kindTreeEdit} {
		fmt.Fprintf(&b, " %s %.3f", k, ratio(float64(t.kinds[k]), float64(total)))
	}
	return fmt.Sprintf("request mix of %d:%s", total, b.String())
}

func (t *traffic) batch(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = t.next()
	}
	return out
}

func wireFiles(fs []scanner.SourceFile) []server.SourceFileJSON {
	out := make([]server.SourceFileJSON, len(fs))
	for i, f := range fs {
		out[i] = server.SourceFileJSON{Rel: f.Rel, Src: f.Src}
	}
	return out
}

// assemble builds a new package from 2 to 5 pool modules: an assumed
// size, chosen so that packages have several components and a
// one-module edit leaves the others' cached fragments valid.
func (t *traffic) assemble() *pkgFiles {
	t.nextPkg++
	p := &pkgFiles{name: fmt.Sprintf("%ssvc-%05d", t.prefix, t.nextPkg)}
	var index strings.Builder
	index.WriteString("module.exports = {\n")
	for m, k := 0, 2+t.r.Intn(4); m < k; m++ {
		mod := t.pool[t.r.Intn(len(t.pool))]
		rel := fmt.Sprintf("m%d.js", m)
		p.files = append(p.files, scanner.SourceFile{Rel: rel, Src: mod.Source})
		mt := packageTruth(mod, rel)
		p.truth.annotated = append(p.truth.annotated, mt.annotated...)
		p.truth.exploitable = append(p.truth.exploitable, mt.exploitable...)
		fmt.Fprintf(&index, "\tm%d: require('./m%d'),\n", m, m)
	}
	index.WriteString("};\n")
	p.files = append(p.files, scanner.SourceFile{Rel: "index.js", Src: index.String()})
	sortFiles(p.files)
	return p
}

func sortFiles(fs []scanner.SourceFile) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Rel < fs[j].Rel })
}

// edited copies p with one file (chosen by pick among the eligible
// ones) changed by an appended statement, which keeps every sink on
// its line.
func (t *traffic) edited(p *pkgFiles, eligible func(rel string) bool) *pkgFiles {
	var idx []int
	for i, f := range p.files {
		if eligible(f.Rel) {
			idx = append(idx, i)
		}
	}
	q := *p
	q.files = append([]scanner.SourceFile(nil), p.files...)
	i := idx[t.r.Intn(len(idx))]
	t.rev++
	q.files[i].Src += fmt.Sprintf("var rev%d = %d;\n", t.rev, t.rev)
	return &q
}

// edit re-submits a flat package of this stream that is surely still
// resident in the StatePool, with one module edited.
func (t *traffic) edit() request {
	var cands []string
	o := t.names.order
	for i := len(o) - 1; i >= 0 && i >= len(o)-t.names.warm; i-- {
		if o[i].owner == t && !t.isTree[o[i].name] {
			cands = append(cands, o[i].name)
		}
	}
	if len(cands) == 0 {
		return request{}
	}
	p := t.current[cands[t.r.Intn(len(cands))]]
	return request{kind: kindEdit, pkg: t.edited(p, func(rel string) bool { return rel != "index.js" })}
}

// evicted re-submits, unchanged, a flat package of this stream that
// the StatePool has surely evicted, so its fragments come from the
// store.
func (t *traffic) evicted() request {
	var cands []string
	o := t.names.order
	for i := 0; i < len(o)-t.names.cold; i++ {
		if o[i].owner == t && !t.isTree[o[i].name] {
			cands = append(cands, o[i].name)
		}
	}
	if len(cands) == 0 {
		return request{}
	}
	return request{kind: kindEvicted, pkg: t.current[cands[t.r.Intn(len(cands))]]}
}

func (t *traffic) tree() request {
	base := t.trees[t.r.Intn(len(t.trees))]
	cur, seen := t.current[base.name]
	if !seen {
		return request{kind: kindTreeNew, pkg: base}
	}
	return request{kind: kindTreeEdit, pkg: t.edited(cur, func(rel string) bool {
		return strings.HasPrefix(rel, "node_modules/") && strings.HasSuffix(rel, ".js")
	})}
}

func treeCasePackage(c dataset.TreeCase) *pkgFiles {
	p := &pkgFiles{name: c.Name, tree: true}
	for _, f := range c.Files {
		p.files = append(p.files, scanner.SourceFile{Rel: f.Rel, Src: f.Src})
	}
	for _, a := range c.Annotated {
		ref := sinkRef{string(a.CWE), a.File, a.Line}
		p.truth.annotated = append(p.truth.annotated, ref)
		p.truth.exploitable = append(p.truth.exploitable, ref)
	}
	sortFiles(p.files)
	return p
}

// chainSinkLine is the line of exec(cmd) in a chain's last package.
const chainSinkLine = 3

// chainPackage builds root → p1 → … → pd, each package nested in its
// parent's node_modules, where the root's API argument is forwarded
// down the chain into exec in pd.
func chainPackage(d int) *pkgFiles {
	p := &pkgFiles{name: fmt.Sprintf("chain-d%02d", d), tree: true}
	add := func(rel, src string) { p.files = append(p.files, scanner.SourceFile{Rel: rel, Src: src}) }
	manifest := func(name, dep string) string {
		if dep == "" {
			return fmt.Sprintf("{\"name\": %q, \"version\": \"1.0.0\", \"main\": \"index.js\"}\n", name)
		}
		return fmt.Sprintf("{\"name\": %q, \"version\": \"1.0.0\", \"main\": \"index.js\", \"dependencies\": {%q: \"^1.0.0\"}}\n", name, dep)
	}
	add("package.json", manifest(p.name, "p1"))
	add("index.js", "var p1 = require('p1');\nfunction api(input) {\n\tp1.run(input);\n}\nmodule.exports = api;\n")
	dir := ""
	for k := 1; k <= d; k++ {
		dir += fmt.Sprintf("node_modules/p%d/", k)
		if k == d {
			add(dir+"package.json", manifest(fmt.Sprintf("p%d", k), ""))
			add(dir+"index.js", "const { exec } = require('child_process');\nfunction run(cmd) {\n\texec(cmd);\n}\nmodule.exports = { run: run };\n")
			ref := sinkRef{string(queries.CWECommandInjection), dir + "index.js", chainSinkLine}
			p.truth.annotated = []sinkRef{ref}
			p.truth.exploitable = []sinkRef{ref}
			continue
		}
		next := fmt.Sprintf("p%d", k+1)
		add(dir+"package.json", manifest(fmt.Sprintf("p%d", k), next))
		add(dir+"index.js", fmt.Sprintf("var next = require('%s');\nfunction run(x) {\n\tnext.run(x);\n}\nmodule.exports = { run: run };\n", next))
	}
	sortFiles(p.files)
	return p
}
