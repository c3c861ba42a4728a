package analysis_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/js/normalize"
	"repro/internal/mdg"
)

// goldenFile holds one MDG digest per corpus package: ground truth
// (seed 42) and Collected (seed 42, 2000 packages). The digests were
// recorded from the map-backed graph and store implementation; a change
// to MDG storage or to the abstract store must reproduce them exactly —
// the same Loc numbering, the same Out/In edge order, the same call
// arguments and the same sources.
const goldenFile = "testdata/mdg_golden.txt"

// renderMDG writes a canonical rendering of res: nodes in Loc order
// with every field, each node's Out and In lists in stored order, the
// call list in creation order, and the sources.
func renderMDG(sb *strings.Builder, res *analysis.Result) {
	g := res.Graph
	fmt.Fprintf(sb, "nodes %d edges %d\n", g.NumNodes(), g.NumEdges())
	for _, n := range g.Nodes() {
		fmt.Fprintf(sb, "n%d k%d %q s%d l%d %q src=%t exp=%t call=%q fn=%q ret=%d params=%v args=%v\n",
			n.Loc, n.Kind, n.Label, n.Site, n.Line, n.File, n.Source, n.Exported,
			n.CallName, n.FuncName, n.RetLoc, n.ParamLocs, n.CallArgs)
		for _, e := range g.Out(n.Loc) {
			fmt.Fprintf(sb, " out %d %d %d %q\n", e.From, e.To, e.Type, e.Prop)
		}
		for _, e := range g.In(n.Loc) {
			fmt.Fprintf(sb, " in %d %d %d %q\n", e.From, e.To, e.Type, e.Prop)
		}
	}
	fmt.Fprintf(sb, "calls %v\nsources %v\n", res.Calls, res.Sources)
}

// packagePrograms normalizes a dataset package the way the scanner
// does: the main source under the package name, then any extra modules
// in sorted file order.
func packagePrograms(p *dataset.Package) ([]*core.Program, error) {
	prog, err := normalize.File(p.Source, p.Name)
	if err != nil {
		return nil, err
	}
	progs := []*core.Program{prog}
	rels := make([]string, 0, len(p.Extra))
	for rel := range p.Extra {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		ep, err := normalize.File(p.Extra[rel], rel)
		if err != nil {
			return nil, err
		}
		progs = append(progs, ep)
	}
	return progs, nil
}

// goldenDigests analyzes every golden corpus package with default
// options and returns "corpus/index/name digest" lines.
func goldenDigests(t *testing.T) []string {
	t.Helper()
	vul, sec := dataset.GroundTruth(42)
	corpora := []*dataset.Corpus{vul, sec, dataset.Collected(42, dataset.DefaultCollectedMix(2000))}
	var lines []string
	var sb strings.Builder
	for _, c := range corpora {
		for i, p := range c.Packages {
			sb.Reset()
			progs, err := packagePrograms(p)
			if err != nil {
				fmt.Fprintf(&sb, "parse error: %v", err)
			} else {
				renderMDG(&sb, analysis.AnalyzeModules(progs, analysis.DefaultOptions()))
			}
			sum := sha256.Sum256([]byte(sb.String()))
			lines = append(lines, fmt.Sprintf("%s/%d/%s %s", c.Name, i, p.Name, hex.EncodeToString(sum[:8])))
		}
	}
	return lines
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if ln := sc.Text(); ln != "" && !strings.HasPrefix(ln, "#") {
			lines = append(lines, ln)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestGoldenMDGDigests pins the MDG of every ground-truth and Collected
// package to the recorded digest.
func TestGoldenMDGDigests(t *testing.T) {
	want := readGolden(t)
	got := goldenDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d packages analyzed, %d golden digests", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d package MDGs differ from the golden digests", bad, len(got))
	}
}

// The rendering must see every field it claims to pin: two graphs that
// differ only in In-list order, a call argument or a source flag must
// render differently.
func TestRenderMDGDistinguishes(t *testing.T) {
	base := func() *analysis.Result {
		g := mdg.New()
		a := g.Alloc("obj", 1, 0, "", mdg.KindObject, "a", 1)
		b := g.Alloc("obj", 2, 0, "", mdg.KindObject, "b", 1)
		c := g.Alloc("call", 3, 0, "f", mdg.KindCall, "f()", 2)
		g.Node(c).CallArgs = [][]mdg.Loc{{a}}
		return &analysis.Result{Graph: g, Calls: []mdg.Loc{c}, Sources: []mdg.Loc{b}}
	}
	render := func(res *analysis.Result) string {
		var sb strings.Builder
		renderMDG(&sb, res)
		return sb.String()
	}
	r1, r2 := base(), base()
	r1.Graph.AddDep(1, 3)
	r1.Graph.AddDep(2, 3)
	r2.Graph.AddDep(2, 3)
	r2.Graph.AddDep(1, 3)
	if render(r1) == render(r2) {
		t.Error("In-list order not rendered")
	}
	r3 := base()
	r3.Graph.Node(3).CallArgs = [][]mdg.Loc{{2}}
	if render(base()) == render(r3) {
		t.Error("call arguments not rendered")
	}
	r4 := base()
	r4.Sources = nil
	if render(base()) == render(r4) {
		t.Error("sources not rendered")
	}
}
