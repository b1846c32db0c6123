package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"csmaterials/internal/lint/callgraph"
)

// MetricLabelAnalyzer enforces the Prometheus exposition hygiene the
// dashboards and alert rules depend on (DESIGN §6, docs/operations.md):
//
//   - family names match csm_[a-z][a-z0-9_]*; counters end in _total and
//     nothing else does;
//   - label names inside a []obs.Label literal appear in alphabetical
//     order (the exposition's stable-shape contract);
//   - every construction and emission site of the same family name
//     agrees module-wide on metric type and label-key set — a sample
//     appended with labels the registration never declared (or vice
//     versa) silently forks the series;
//   - the `dataset` label is only populated from registry-bounded
//     sources: a hard-coded string or a request-derived value
//     (r.PathValue, query params) would keep emitting series for
//     datasets that were deleted, or mint unbounded cardinality from
//     client input.
//
// The check is interprocedural: families built through helpers
// (counterFam/gaugeFam) are resolved through the helper's body, and
// label slices produced by functions (scopeLabels) are resolved through
// their return statements via the call graph.
func MetricLabelAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "metriclabel",
		Doc: "obs.Family names must match csm_* with _total reserved for counters; " +
			"label literals stay alphabetical; type and label-key sets for one family " +
			"name must agree across every construction/emission site; dataset label " +
			"values must come from registry-bounded sources, not literals or request input.",
		Run: runMetricLabel,
	}
}

var metricNameRE = regexp.MustCompile(`^csm_[a-z][a-z0-9_]*$`)

// metricFinding is one diagnostic, attributed to the package whose pass
// should emit it (positions are only meaningful against that package's
// FileSet).
type metricFinding struct {
	pkgPath string
	pos     token.Pos
	msg     string
}

// famSite is one place a family name is constructed or fed samples.
type famSite struct {
	pkgPath string
	pos     token.Pos
	where   token.Position // rendered into cross-package messages
	name    string
	typ     string     // "counter" | "gauge" | "histogram" | "" unknown
	labels  [][]string // resolved label-key sets contributed at this site
}

const metricFindingsKey = "metriclabel.findings"

func runMetricLabel(pass *Pass) {
	if pass.Mod == nil {
		return
	}
	v := pass.Mod.Memo(metricFindingsKey, func() interface{} {
		return metricLabelFindings(pass.Mod)
	})
	for _, f := range v.([]metricFinding) {
		if f.pkgPath == pass.Pkg.Path() {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// metricLabelFindings scans the whole module once: collects every
// family site, runs the local checks as it goes, then cross-checks the
// sites per family name.
func metricLabelFindings(mod *Module) []metricFinding {
	var findings []metricFinding
	var sites []famSite
	for _, pkg := range mod.Pkgs {
		mc := &metricCtx{mod: mod, pkg: pkg}
		for _, file := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				s, f := mc.scanFunc(fn)
				sites = append(sites, s...)
				findings = append(findings, f...)
			}
		}
	}
	findings = append(findings, crossCheckFamilies(sites)...)
	return findings
}

// metricCtx carries one package's view during the module scan.
type metricCtx struct {
	mod *Module
	pkg *Package
}

func (mc *metricCtx) finding(pos token.Pos, format string, args ...any) metricFinding {
	return metricFinding{pkgPath: mc.pkg.Path, pos: pos, msg: fmt.Sprintf(format, args...)}
}

// scanFunc collects the family sites inside one function — resolvable
// obs.Family literals, family-builder helper calls, and Samples appends
// onto family-typed variables — and runs the local checks: name shape
// at construction sites, label order and dataset boundedness at every
// []obs.Label literal.
func (mc *metricCtx) scanFunc(fn *ast.FuncDecl) ([]famSite, []metricFinding) {
	var sites []famSite
	var findings []metricFinding
	info := mc.pkg.Info

	// famVars maps local variables holding an obs.Family to the family
	// name they were constructed with, so later Samples appends can be
	// attributed.
	famVars := map[types.Object]string{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		lit, ok := ast.Unparen(rhs).(*ast.CompositeLit)
		if !ok || !mc.isObsType(info.TypeOf(lit), "Family") {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if name, ok := mc.familyLitName(lit); ok {
			if obj := info.Defs[id]; obj != nil {
				famVars[obj] = name
			} else if obj := info.Uses[id]; obj != nil {
				famVars[obj] = name
			}
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					bind(x.Lhs[i], x.Rhs[i])
				}
			}
			if s, ok := mc.samplesAppend(fn, famVars, x); ok {
				sites = append(sites, s)
			}
		case *ast.ValueSpec:
			for i := range x.Values {
				if i < len(x.Names) {
					bind(x.Names[i], x.Values[i])
				}
			}
		case *ast.CompositeLit:
			if mc.isObsType(info.TypeOf(x), "Family") {
				if s, f, ok := mc.familyLitSite(fn, x); ok {
					sites = append(sites, s)
					findings = append(findings, f...)
				}
			} else if mc.isObsLabelSlice(info.TypeOf(x)) {
				findings = append(findings, mc.checkLabelLit(fn, x)...)
			}
		case *ast.CallExpr:
			if s, f, ok := mc.helperCallSite(x); ok {
				sites = append(sites, s)
				findings = append(findings, f...)
			}
		}
		return true
	})
	return sites, findings
}

// isObsType reports whether t is (or points to) the named type
// internal/obs.<name>.
func (mc *metricCtx) isObsType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

// isObsLabelSlice reports whether t is []obs.Label.
func (mc *metricCtx) isObsLabelSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	return ok && mc.isObsType(sl.Elem(), "Label")
}

// constStringOf resolves e to a compile-time string value (literal or
// named constant).
func constStringOf(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// familyLitName resolves a Family literal's Name field to a constant
// string; parametric literals (helpers taking the name as an argument)
// return false and are handled at their call sites.
func (mc *metricCtx) familyLitName(lit *ast.CompositeLit) (string, bool) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
			return constStringOf(mc.pkg.Info, kv.Value)
		}
	}
	return "", false
}

// familyLitType reads the Type field of a Family literal
// (obs.Counter/Gauge/Histogram selectors or the local constants).
func familyLitType(lit *ast.CompositeLit) string {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Type" {
			switch v := ast.Unparen(kv.Value).(type) {
			case *ast.SelectorExpr:
				return strings.ToLower(v.Sel.Name)
			case *ast.Ident:
				return strings.ToLower(v.Name)
			}
		}
	}
	return ""
}

// familyLitSite builds the site record for a resolvable Family literal
// and runs the local name checks.
func (mc *metricCtx) familyLitSite(fn *ast.FuncDecl, lit *ast.CompositeLit) (famSite, []metricFinding, bool) {
	name, ok := mc.familyLitName(lit)
	if !ok {
		return famSite{}, nil, false
	}
	typ := familyLitType(lit)
	site := famSite{
		pkgPath: mc.pkg.Path, pos: lit.Pos(),
		where: mc.pkg.Fset.Position(lit.Pos()),
		name:  name, typ: typ,
	}
	findings := mc.checkFamilyName(lit.Pos(), name, typ)
	// Inline samples contribute label sets.
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Samples" {
			if samplesLit, ok := ast.Unparen(kv.Value).(*ast.CompositeLit); ok {
				for _, sel := range samplesLit.Elts {
					if keys, resolved := mc.sampleLabels(fn, sel); resolved {
						site.labels = append(site.labels, keys)
					}
				}
			}
		}
	}
	return site, findings, true
}

// checkFamilyName runs the name-shape and _total conventions.
func (mc *metricCtx) checkFamilyName(pos token.Pos, name, typ string) []metricFinding {
	var out []metricFinding
	if !metricNameRE.MatchString(name) {
		out = append(out, mc.finding(pos,
			"metric family %q does not match the module namespace csm_[a-z][a-z0-9_]*", name))
		return out
	}
	total := strings.HasSuffix(name, "_total")
	switch {
	case typ == "counter" && !total:
		out = append(out, mc.finding(pos,
			"counter family %q must end in _total (Prometheus counter naming)", name))
	case typ != "" && typ != "counter" && total:
		out = append(out, mc.finding(pos,
			"%s family %q must not end in _total; that suffix is reserved for counters", typ, name))
	}
	return out
}

// helperCallSite resolves a call to a module family-builder helper — a
// function whose body returns an obs.Family literal with Name taken
// from one of its parameters — into a site named by the call's constant
// argument.
func (mc *metricCtx) helperCallSite(call *ast.CallExpr) (famSite, []metricFinding, bool) {
	if !mc.isObsType(mc.pkg.Info.TypeOf(call), "Family") {
		return famSite{}, nil, false
	}
	callee := mc.calleeNode(call)
	if callee == nil || callee.Decl == nil {
		return famSite{}, nil, false
	}
	tmpl, ok := mc.familyTemplate(callee)
	if !ok || tmpl.nameParam >= len(call.Args) {
		return famSite{}, nil, false
	}
	name, ok := constStringOf(mc.pkg.Info, call.Args[tmpl.nameParam])
	if !ok {
		return famSite{}, nil, false
	}
	site := famSite{
		pkgPath: mc.pkg.Path, pos: call.Pos(),
		where: mc.pkg.Fset.Position(call.Pos()),
		name:  name, typ: tmpl.typ, labels: tmpl.labels,
	}
	return site, mc.checkFamilyName(call.Pos(), name, tmpl.typ), true
}

// famTemplate is the shape a family-builder helper stamps out.
type famTemplate struct {
	nameParam int
	typ       string
	labels    [][]string
}

// familyTemplate inspects a helper's body for `return obs.Family{Name:
// <param>, ...}` and extracts the template.
func (mc *metricCtx) familyTemplate(n *callgraph.Node) (famTemplate, bool) {
	helperMC := &metricCtx{mod: mc.mod, pkg: &Package{
		Path: n.Pkg.Path, Fset: n.Pkg.Fset, Files: n.Pkg.Files,
		Types: n.Pkg.Types, Info: n.Pkg.Info,
	}}
	params := helperParamObjects(n)
	var tmpl famTemplate
	found := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		ret, ok := x.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			lit, ok := ast.Unparen(res).(*ast.CompositeLit)
			if !ok || !helperMC.isObsType(n.Pkg.Info.TypeOf(lit), "Family") {
				continue
			}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				switch key.Name {
				case "Name":
					id, ok := ast.Unparen(kv.Value).(*ast.Ident)
					if !ok {
						continue
					}
					obj := n.Pkg.Info.Uses[id]
					for i, p := range params {
						if p != nil && p == obj {
							tmpl.nameParam = i
							found = true
						}
					}
				case "Samples":
					if samplesLit, ok := ast.Unparen(kv.Value).(*ast.CompositeLit); ok {
						for _, sel := range samplesLit.Elts {
							if keys, resolved := helperMC.sampleLabels(n.Decl, sel); resolved {
								tmpl.labels = append(tmpl.labels, keys)
							}
						}
					}
				}
			}
			tmpl.typ = familyLitType(lit)
		}
		return true
	})
	return tmpl, found
}

// helperParamObjects lists a node's parameter objects in order.
func helperParamObjects(n *callgraph.Node) []types.Object {
	var out []types.Object
	if n.Decl.Type.Params == nil {
		return out
	}
	for _, field := range n.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			out = append(out, n.Pkg.Info.Defs[name])
		}
	}
	return out
}

// calleeNode resolves a call's static callee to its module node.
func (mc *metricCtx) calleeNode(call *ast.CallExpr) *callgraph.Node {
	if mc.mod == nil {
		return nil
	}
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = mc.pkg.Info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel := mc.pkg.Info.Selections[f]; sel != nil {
			fn, _ = sel.Obj().(*types.Func)
		} else {
			fn, _ = mc.pkg.Info.Uses[f.Sel].(*types.Func)
		}
	}
	if fn == nil {
		return nil
	}
	return mc.mod.Graph.NodeOf(fn)
}

// samplesAppend recognises `X.Samples = append(X.Samples, elems...)`
// where X holds a known family, and resolves the label sets the
// appended samples carry.
func (mc *metricCtx) samplesAppend(fn *ast.FuncDecl, famVars map[types.Object]string, assign *ast.AssignStmt) (famSite, bool) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return famSite{}, false
	}
	sel, ok := assign.Lhs[0].(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Samples" {
		return famSite{}, false
	}
	recv, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return famSite{}, false
	}
	obj := mc.pkg.Info.Uses[recv]
	name, known := famVars[obj]
	if !known {
		return famSite{}, false
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return famSite{}, false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return famSite{}, false
	}
	site := famSite{
		pkgPath: mc.pkg.Path, pos: assign.Pos(),
		where: mc.pkg.Fset.Position(assign.Pos()),
		name:  name,
	}
	for _, arg := range call.Args[1:] {
		if keys, resolved := mc.sampleLabels(fn, arg); resolved {
			site.labels = append(site.labels, keys)
		}
	}
	return site, true
}

// sampleLabels resolves one appended/declared sample expression to its
// label-key set. Handles obs.Sample literals and
// (*obs.LatencyHistogram).Samples(...) spreads (the explicit labels,
// before the implicit le).
func (mc *metricCtx) sampleLabels(fn *ast.FuncDecl, e ast.Expr) ([]string, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit:
		if !mc.isObsType(mc.pkg.Info.TypeOf(x), "Sample") {
			return nil, false
		}
		for _, el := range x.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Labels" {
				return mc.labelListKeys(fn, kv.Value, 0)
			}
		}
		return nil, true // sample without labels: empty key set
	case *ast.CallExpr:
		// h.Samples(labels) on an obs.LatencyHistogram.
		if f, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && f.Sel.Name == "Samples" &&
			mc.isObsType(mc.pkg.Info.TypeOf(f.X), "LatencyHistogram") && len(x.Args) == 1 {
			return mc.labelListKeys(fn, x.Args[0], 0)
		}
	}
	return nil, false
}

// labelListKeys resolves a []obs.Label expression to its ordered key
// list: a literal directly, a local variable traced to its assignment,
// or a module function traced to its return literal. depth bounds the
// ident/call chase. Checks are not run here — every label literal is
// checked once at its own site by scanFunc.
func (mc *metricCtx) labelListKeys(fn *ast.FuncDecl, e ast.Expr, depth int) ([]string, bool) {
	if depth > 3 {
		return nil, false
	}
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit:
		if !mc.isObsLabelSlice(mc.pkg.Info.TypeOf(x)) {
			return nil, false
		}
		return mc.labelLitKeys(x)
	case *ast.Ident:
		obj := mc.pkg.Info.Uses[x]
		if obj == nil {
			return nil, false
		}
		init := localInitExpr(mc.pkg.Info, fn, obj)
		if init == nil {
			return nil, false
		}
		return mc.labelListKeys(fn, init, depth+1)
	case *ast.CallExpr:
		callee := mc.calleeNode(x)
		if callee == nil || callee.Decl == nil {
			return nil, false
		}
		calleeMC := &metricCtx{mod: mc.mod, pkg: &Package{
			Path: callee.Pkg.Path, Fset: callee.Pkg.Fset, Files: callee.Pkg.Files,
			Types: callee.Pkg.Types, Info: callee.Pkg.Info,
		}}
		var keys []string
		resolved := false
		ast.Inspect(callee.Decl.Body, func(n ast.Node) bool {
			if resolved {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				if k, ok := calleeMC.labelListKeys(callee.Decl, res, depth+1); ok {
					keys, resolved = k, true
				}
			}
			return true
		})
		return keys, resolved
	}
	return nil, false
}

// labelLitKeys reads a []obs.Label literal's ordered constant key
// names.
func (mc *metricCtx) labelLitKeys(lit *ast.CompositeLit) ([]string, bool) {
	var keys []string
	for _, el := range lit.Elts {
		elLit, ok := ast.Unparen(el).(*ast.CompositeLit)
		if !ok {
			return nil, false
		}
		nameExpr, _ := labelFields(elLit)
		if nameExpr == nil {
			return nil, false
		}
		key, ok := constStringOf(mc.pkg.Info, nameExpr)
		if !ok {
			return nil, false
		}
		keys = append(keys, key)
	}
	return keys, true
}

// checkLabelLit runs the per-literal checks on a []obs.Label literal:
// alphabetical key order and dataset-value boundedness.
func (mc *metricCtx) checkLabelLit(fn *ast.FuncDecl, lit *ast.CompositeLit) []metricFinding {
	var findings []metricFinding
	var keys []string
	ordered := true
	for _, el := range lit.Elts {
		elLit, ok := ast.Unparen(el).(*ast.CompositeLit)
		if !ok {
			ordered = false
			continue
		}
		nameExpr, valueExpr := labelFields(elLit)
		if nameExpr == nil {
			ordered = false
			continue
		}
		key, ok := constStringOf(mc.pkg.Info, nameExpr)
		if !ok {
			ordered = false
			continue
		}
		keys = append(keys, key)
		if key == "dataset" && valueExpr != nil {
			findings = append(findings, mc.checkDatasetValue(fn, valueExpr)...)
		}
	}
	if ordered {
		for i := 1; i < len(keys); i++ {
			if keys[i] < keys[i-1] {
				findings = append(findings, mc.finding(lit.Pos(),
					"label names out of alphabetical order (%s after %s); the exposition's stable-shape contract sorts label keys",
					keys[i], keys[i-1]))
				break
			}
		}
	}
	return findings
}

// labelFields extracts the Name and Value expressions of one obs.Label
// element literal, keyed or positional.
func labelFields(lit *ast.CompositeLit) (nameExpr, valueExpr ast.Expr) {
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				switch key.Name {
				case "Name":
					nameExpr = kv.Value
				case "Value":
					valueExpr = kv.Value
				}
			}
			continue
		}
		switch i {
		case 0:
			nameExpr = el
		case 1:
			valueExpr = el
		}
	}
	return nameExpr, valueExpr
}

// checkDatasetValue flags dataset label values that are not
// registry-bounded: raw string literals (stale after a dataset DELETE)
// and request-derived values (unbounded cardinality from client input).
// Named constants (dataset.DefaultID) and registry-iteration variables
// pass.
func (mc *metricCtx) checkDatasetValue(fn *ast.FuncDecl, value ast.Expr) []metricFinding {
	value = ast.Unparen(value)
	if _, isLit := value.(*ast.BasicLit); isLit {
		return []metricFinding{mc.finding(value.Pos(),
			"dataset label value is a hard-coded string; use a registry-bounded ID (registry iteration or dataset.DefaultID) so deleted datasets stop being emitted")}
	}
	exprs := []ast.Expr{value}
	if id, ok := value.(*ast.Ident); ok {
		if obj := mc.pkg.Info.Uses[id]; obj != nil {
			if init := localInitExpr(mc.pkg.Info, fn, obj); init != nil {
				exprs = append(exprs, init)
			}
		}
	}
	for _, e := range exprs {
		if mc.requestDerived(e) {
			return []metricFinding{mc.finding(value.Pos(),
				"dataset label value derives from request input; label with the registry-validated dataset ID, not raw client data (unbounded label cardinality)")}
		}
	}
	return nil
}

// requestDerived reports whether e contains a call on *net/http.Request
// or net/url.Values — client-controlled input.
func (mc *metricCtx) requestDerived(e ast.Expr) bool {
	derived := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		t := mc.pkg.Info.TypeOf(sel.X)
		if t == nil {
			return true
		}
		switch t.String() {
		case "*net/http.Request", "net/url.Values", "net/http.Header", "*net/url.URL":
			derived = true
			return false
		}
		return true
	})
	return derived
}

// localInitExpr finds the expression most recently assigned to obj
// within fn (single-value := or = forms). Used for one-level tracing of
// label slices and dataset values.
func localInitExpr(info *types.Info, fn *ast.FuncDecl, obj types.Object) ast.Expr {
	var init ast.Expr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i := range x.Lhs {
				id, ok := x.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if info.Defs[id] == obj || info.Uses[id] == obj {
					init = x.Rhs[i]
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if info.Defs[name] == obj && i < len(x.Values) {
					init = x.Values[i]
				}
			}
		}
		return true
	})
	return init
}

// crossCheckFamilies verifies that every site of one family name agrees
// on metric type and label-key set. The first site (module package
// order) is canonical; disagreeing sites are reported where they occur.
func crossCheckFamilies(sites []famSite) []metricFinding {
	byName := map[string][]famSite{}
	var names []string
	for _, s := range sites {
		if _, seen := byName[s.name]; !seen {
			names = append(names, s.name)
		}
		byName[s.name] = append(byName[s.name], s)
	}
	sort.Strings(names)
	var findings []metricFinding
	for _, name := range names {
		group := byName[name]
		canonical := group[0]
		canonicalKeys, haveKeys := firstKeySet(group)
		for _, s := range group[1:] {
			if s.typ != "" && canonical.typ != "" && s.typ != canonical.typ {
				findings = append(findings, metricFinding{
					pkgPath: s.pkgPath, pos: s.pos,
					msg: fmt.Sprintf("metric family %q is a %s here but a %s at %s; one family name, one type",
						name, s.typ, canonical.typ, canonical.where),
				})
			}
		}
		if !haveKeys {
			continue
		}
		for _, s := range group {
			if s.pos == canonicalKeys.pos && s.pkgPath == canonicalKeys.pkgPath {
				// The reference site still checks its own internal agreement.
				for _, ks := range s.labels[1:] {
					if !sameKeySet(ks, canonicalKeys.keys) {
						findings = append(findings, metricFinding{
							pkgPath: s.pkgPath, pos: s.pos,
							msg: fmt.Sprintf("metric family %q carries samples with differing label sets ({%s} vs {%s}) at one site",
								name, strings.Join(sortedCopy(ks), ","), strings.Join(sortedCopy(canonicalKeys.keys), ",")),
						})
						break
					}
				}
				continue
			}
			for _, ks := range s.labels {
				if !sameKeySet(ks, canonicalKeys.keys) {
					findings = append(findings, metricFinding{
						pkgPath: s.pkgPath, pos: s.pos,
						msg: fmt.Sprintf("metric family %q emitted with labels {%s} here but {%s} at %s; a forked label set splits the series",
							name, strings.Join(sortedCopy(ks), ","),
							strings.Join(sortedCopy(canonicalKeys.keys), ","), canonicalKeys.where),
					})
					break
				}
			}
		}
	}
	return findings
}

// keySetRef is the first resolved label-key set of a family group and
// the site that carried it.
type keySetRef struct {
	keys    []string
	pkgPath string
	pos     token.Pos
	where   token.Position
}

func firstKeySet(group []famSite) (keySetRef, bool) {
	for _, s := range group {
		if len(s.labels) > 0 {
			return keySetRef{keys: s.labels[0], pkgPath: s.pkgPath, pos: s.pos, where: s.where}, true
		}
	}
	return keySetRef{}, false
}

func sameKeySet(a, b []string) bool {
	as, bs := sortedCopy(a), sortedCopy(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
