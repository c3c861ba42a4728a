package main

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/scanner"
	"repro/internal/server"
)

// sinkRef is one file-qualified ground-truth sink.
type sinkRef struct {
	CWE  string
	File string
	Line int
}

// truth is a package's ground truth: the annotated (//@sink) sinks,
// and every exploitable sink, annotated or not (findings outside the
// latter are true false positives).
type truth struct {
	annotated, exploitable []sinkRef
}

// packageTruth qualifies a dataset package's line annotations with the
// file they live in.
func packageTruth(p *dataset.Package, file string) truth {
	var t truth
	for _, a := range p.Annotated {
		t.annotated = append(t.annotated, sinkRef{string(a.CWE), file, a.Line})
	}
	for _, a := range p.Exploitable {
		t.exploitable = append(t.exploitable, sinkRef{string(a.CWE), file, a.Line})
	}
	return t
}

// finding is the identity of one finding, the same tuple
// scanner.DiffFindings compares: witness paths and provenance are
// excluded because equally valid runs may pick different ones.
type finding struct {
	CWE    string
	Sink   string
	File   string
	Line   int
	Source string
}

func (f finding) String() string {
	return fmt.Sprintf("%s %s %s:%d (source %s)", f.CWE, f.Sink, f.File, f.Line, f.Source)
}

func fromScanner(fs []queries.Finding) []finding {
	out := make([]finding, len(fs))
	for i, f := range fs {
		out[i] = finding{string(f.CWE), f.SinkName, f.SinkFile, f.SinkLine, f.Source}
	}
	return sortFindings(out)
}

func fromServer(fs []server.FindingJSON) []finding {
	out := make([]finding, len(fs))
	for i, f := range fs {
		out[i] = finding{f.CWE, f.Sink, f.File, f.Line, f.Source}
	}
	return sortFindings(out)
}

func sortFindings(fs []finding) []finding {
	sort.Slice(fs, func(i, j int) bool { return fs[i].String() < fs[j].String() })
	return fs
}

// sameFindings compares two sorted identity lists.
func sameFindings(a, b []finding) error {
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	return fmt.Errorf("findings differ: %v vs %v", a, b)
}

// score accumulates recall and true false positives over scanned
// packages, matching findings to sinks by CWE, file and line.
type score struct {
	total, found, trueFP int
}

func (s *score) add(t truth, fs []finding) {
	hit := func(f finding, refs []sinkRef) bool {
		for _, r := range refs {
			if f.CWE == r.CWE && f.File == r.File && f.Line == r.Line {
				return true
			}
		}
		return false
	}
	for _, a := range t.annotated {
		s.total++
		for _, f := range fs {
			if hit(f, []sinkRef{a}) {
				s.found++
				break
			}
		}
	}
	for _, f := range fs {
		if !hit(f, t.exploitable) {
			s.trueFP++
		}
	}
}

func (s score) recallPct() float64 { return 100 * ratio(float64(s.found), float64(s.total)) }

// scanCold is the reference scan of a file set: a fresh, stateless
// scanner call with default options. Single-file dataset packages go
// through ScanSource under their own name, as the corpus sweeps do.
func scanCold(pf *pkgFiles) *scanner.Report {
	if pf.source {
		return scanner.ScanSource(pf.files[0].Src, pf.files[0].Rel, scanner.Options{})
	}
	return scanner.ScanFiles(pf.files, pf.name, scanner.Options{Tree: pf.tree})
}
