package analysis

import (
	"strings"

	"repro/internal/core"
	"repro/internal/mdg"
)

// Built-in function models. Graph.js models the JavaScript built-ins
// that matter for taint and shape propagation; unmodelled built-ins
// fall back to the generic call treatment (result depends on the
// arguments). Each model returns true when it fully handled the call.

// builtinCall dispatches on the source-level callee path.
func (a *analyzer) builtinCall(x *core.Call, st *mdg.Store, cl mdg.Loc,
	argLocs [][]mdg.Loc, thisLocs []mdg.Loc) bool {
	switch {
	case x.CalleeName == "Object.assign":
		return a.builtinObjectAssign(x, st, cl, argLocs)
	case x.CalleeName == "JSON.parse":
		return a.builtinJSONParse(x, st, cl, argLocs)
	case x.CalleeName == "Object.keys" || x.CalleeName == "Object.values" ||
		x.CalleeName == "Object.entries":
		return a.builtinObjectKeys(x, st, cl, argLocs)
	case strings.HasSuffix(x.CalleeName, ".push") || strings.HasSuffix(x.CalleeName, ".unshift"):
		return a.builtinArrayPush(x, st, cl, argLocs, thisLocs)
	case strings.HasSuffix(x.CalleeName, ".concat"):
		return a.builtinConcat(x, st, cl, argLocs, thisLocs)
	}
	return false
}

// Object.assign(target, ...sources): every source's property values may
// become dynamic properties of target; the result is target.
func (a *analyzer) builtinObjectAssign(x *core.Call, st *mdg.Store, cl mdg.Loc, argLocs [][]mdg.Loc) bool {
	if len(argLocs) == 0 {
		return false
	}
	targets := argLocs[0]
	var srcVals []mdg.Loc
	var srcObjs []mdg.Loc
	for _, ls := range argLocs[1:] {
		srcObjs = append(srcObjs, ls...)
		for _, l := range ls {
			srcVals = append(srcVals, a.g.AllPropValues(l)...)
		}
	}
	// The merge is a dynamic update whose property names come from the
	// sources.
	repl := a.g.NVStar(a.site(x.Idx), targets, srcObjs, x.Ln)
	a.replaceVersions(st, targets, repl)
	var newVers []mdg.Loc
	for _, r := range repl {
		newVers = append(newVers, r.New)
		for _, v := range srcVals {
			a.g.AddEdge(mdg.Edge{From: r.New, To: v, Type: mdg.PropStar})
		}
	}
	// Unknown source properties: reads on the target may now return
	// anything the sources held, including properties not yet
	// materialized — a star property depending on the source objects.
	starVals := a.g.APStar(a.site(x.Idx), newVers, srcObjs, x.Ln)
	for _, sv := range starVals {
		for _, src := range srcObjs {
			a.g.AddDep(src, sv)
		}
	}
	// Result: the (new versions of the) target.
	var out []mdg.Loc
	for _, r := range repl {
		out = append(out, r.New)
	}
	if len(out) == 0 {
		out = targets
	}
	for _, l := range out {
		a.g.AddDep(l, cl)
	}
	st.Set(x.X, mdg.Dedupe(out))
	return true
}

// JSON.parse(s): the result is a fresh object whose shape and every
// property are controlled by the string — the canonical way attacker
// data becomes a structured object.
func (a *analyzer) builtinJSONParse(x *core.Call, st *mdg.Store, cl mdg.Loc, argLocs [][]mdg.Loc) bool {
	obj := a.g.Alloc("obj", a.site(x.Idx), 0, "json", mdg.KindObject, x.X, x.Ln)
	var deps []mdg.Loc
	if len(argLocs) > 0 {
		deps = argLocs[0]
	}
	for _, d := range deps {
		a.g.AddDep(d, obj)
	}
	// Its dynamic property carries the same dependencies, so lookups on
	// the parsed value stay tainted.
	star := a.g.APStar(a.site(x.Idx), []mdg.Loc{obj}, deps, x.Ln)
	for _, sv := range star {
		for _, d := range deps {
			a.g.AddDep(d, sv)
		}
	}
	a.g.AddDep(obj, cl)
	st.Set(x.X, mdg.Single(obj))
	return true
}

// Object.keys/values/entries(o): an array derived from o — its elements
// depend on the object (keys) or are the property values (values).
func (a *analyzer) builtinObjectKeys(x *core.Call, st *mdg.Store, cl mdg.Loc, argLocs [][]mdg.Loc) bool {
	arr := a.g.Alloc("obj", a.site(x.Idx), 0, "keys", mdg.KindObject, x.X, x.Ln)
	if len(argLocs) > 0 {
		for _, o := range argLocs[0] {
			a.g.AddDep(o, arr)
			if x.CalleeName != "Object.keys" {
				for _, v := range a.g.AllPropValues(o) {
					a.g.AddEdge(mdg.Edge{From: arr, To: v, Type: mdg.PropStar})
				}
			}
		}
	}
	a.g.AddDep(arr, cl)
	st.Set(x.X, mdg.Single(arr))
	return true
}

// arr.push(v)/unshift(v): a dynamic-property write of v on the
// receiver.
func (a *analyzer) builtinArrayPush(x *core.Call, st *mdg.Store, cl mdg.Loc, argLocs [][]mdg.Loc, thisLocs []mdg.Loc) bool {
	if len(thisLocs) == 0 || len(argLocs) == 0 {
		return false
	}
	repl := a.g.NVStar(a.site(x.Idx), thisLocs, nil, x.Ln)
	a.replaceVersions(st, thisLocs, repl)
	for _, r := range repl {
		for _, ls := range argLocs {
			for _, v := range ls {
				a.g.AddEdge(mdg.Edge{From: r.New, To: v, Type: mdg.PropStar})
				// Element data is part of the array value (joins,
				// string conversions), so the new version depends on
				// the element too.
				a.g.AddDep(v, r.New)
			}
		}
	}
	// push returns the new length; model as depending on the receiver.
	for _, tl := range thisLocs {
		a.g.AddDep(tl, cl)
	}
	st.Set(x.X, mdg.Single(cl))
	return true
}

// a.concat(b): a fresh array whose elements come from both operands.
func (a *analyzer) builtinConcat(x *core.Call, st *mdg.Store, cl mdg.Loc, argLocs [][]mdg.Loc, thisLocs []mdg.Loc) bool {
	arr := a.g.Alloc("obj", a.site(x.Idx), 0, "concat", mdg.KindObject, x.X, x.Ln)
	add := func(ls []mdg.Loc) {
		for _, l := range ls {
			a.g.AddDep(l, arr)
			for _, v := range a.g.AllPropValues(l) {
				a.g.AddEdge(mdg.Edge{From: arr, To: v, Type: mdg.PropStar})
				a.g.AddDep(v, arr)
			}
		}
	}
	add(thisLocs)
	for _, ls := range argLocs {
		add(ls)
	}
	a.g.AddDep(arr, cl)
	st.Set(x.X, mdg.Single(arr))
	return true
}
