package persist

// callgraph.go builds the whole-program call graph the interprocedural
// layer runs over. Nodes are function declarations, keyed by package
// directory plus receiver-qualified name ("internal/wal::Log.Append"),
// so two methods sharing a bare name stop being conflated the way the
// old one-level bare-name summary tables conflated them.
//
// Call sites resolve in three tiers, best first:
//
//  1. pkg.Fn(...) through an import of an analyzed package, and
//     bare Fn(...) against the caller's own package, resolve to
//     exactly one free function.
//  2. x.M(...) where the syntactic type resolution (typeOf, types.go)
//     yields x's struct base type T resolves to the analyzed methods
//     named M with receiver base T.
//  3. Anything else falls back to every analyzed function or method
//     with that bare name — the old conservative AND-merge semantics,
//     now explicit as a multi-candidate edge set.
//
// The graph's strongly connected components (Tarjan) are emitted in
// callee-first order; summary.go walks that order so a summary only
// ever reads finished callee summaries, except inside its own SCC
// where it iterates to a fixpoint.

import (
	"go/ast"
	"path"
	"sort"
	"strings"
)

// funcNode is one declared function in the call graph.
type funcNode struct {
	key     string // pkgID + "::" + [recvBase + "."] + name
	display string // pkgName.[(recv)].name, for findings
	bare    string // declared name, fallback-resolution key
	recv    string // receiver base type ("" for free functions)
	pkgID   string // cleaned slash path of the declaring directory
	fi      *fileInfo
	fd      *ast.FuncDecl
	fa      *funcAnalysis

	id      int
	callees []int // resolved candidate edges, deduped, in first-seen order
}

// callGraph is the whole-program graph plus its SCC decomposition.
type callGraph struct {
	nodes   []*funcNode
	byKey   map[string]*funcNode
	byDecl  map[*ast.FuncDecl]*funcNode
	byBare  map[string][]*funcNode
	methods map[string][]*funcNode // recvBase+"."+name → declaring nodes
	pkgFunc map[string]*funcNode   // pkgID+"::"+name → free function

	// sccs lists the strongly connected components in callee-first
	// (reverse topological) order; sccOf maps node id → component index.
	sccs  [][]*funcNode
	sccOf []int

	edgeCount int
}

// buildCallGraph registers every function declaration, resolves every
// call site to its candidate set, and computes the SCC order. Must run
// after collectThreadFields/collectStructInfo (type resolution) and
// before computeSummaries (which walks the SCC order).
func (a *Analyzer) buildCallGraph() {
	cg := &callGraph{
		byKey:   map[string]*funcNode{},
		byDecl:  map[*ast.FuncDecl]*funcNode{},
		byBare:  map[string][]*funcNode{},
		methods: map[string][]*funcNode{},
		pkgFunc: map[string]*funcNode{},
	}
	a.cg = cg

	// Pass 1: register nodes. Deterministic: files in AddFile order,
	// declarations in source order.
	for _, fi := range a.files {
		for _, decl := range fi.f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &funcNode{bare: fd.Name.Name, pkgID: fi.dir, fi: fi, fd: fd, id: len(cg.nodes)}
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				n.recv = typeBaseName(fd.Recv.List[0].Type)
			}
			member := n.bare
			if n.recv != "" {
				member = n.recv + "." + n.bare
				cg.methods[member] = append(cg.methods[member], n)
			} else {
				cg.pkgFunc[n.pkgID+"::"+n.bare] = n
			}
			n.key = n.pkgID + "::" + member
			n.display = fi.f.Name.Name + "." + member
			cg.nodes = append(cg.nodes, n)
			cg.byBare[n.bare] = append(cg.byBare[n.bare], n)
			cg.byDecl[fd] = n
			if cg.byKey[n.key] == nil {
				cg.byKey[n.key] = n
			}
		}
	}

	// Pass 2: per-node analysis state (type environments). newFuncAnalysis
	// reads cg.byDecl, so the node back-pointer lands on fa.node.
	for _, n := range cg.nodes {
		n.fa = newFuncAnalysis(a, n.fi, n.fd)
	}

	// Pass 3: edges. Closures and go statements are included in the
	// walk — they may run inside the declaring function, and for
	// summaries the conservative direction is to count their calls.
	for _, n := range cg.nodes {
		seen := map[int]bool{}
		ast.Inspect(n.fd.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, key := range n.fa.calleeCandidates(call) {
				if m := cg.byKey[key]; m != nil && !seen[m.id] {
					seen[m.id] = true
					n.callees = append(n.callees, m.id)
					cg.edgeCount++
				}
			}
			return true
		})
	}

	cg.computeSCCs()
	a.stats.CallNodes = len(cg.nodes)
	a.stats.CallEdges = cg.edgeCount
	a.stats.CallSCCs = len(cg.sccs)
}

// calleeCandidates resolves one call expression to the keys of every
// analyzed function it may invoke (nil when the callee is certainly
// outside the analyzed set — a builtin, the stdlib, a closure value).
func (fa *funcAnalysis) calleeCandidates(call *ast.CallExpr) []string {
	cg := fa.an.cg
	if cg == nil {
		return nil
	}
	switch f := call.Fun.(type) {
	case *ast.Ident:
		// A bare call names a same-package function or nothing we can
		// see; fall back to the bare set so dot-import-like shapes keep
		// the old conservative semantics.
		if fa.node != nil {
			if n := cg.pkgFunc[fa.node.pkgID+"::"+f.Name]; n != nil {
				return []string{n.key}
			}
		}
		return bareKeys(cg, f.Name)
	case *ast.SelectorExpr:
		name := f.Sel.Name
		// pkg.Fn through an import of an analyzed package: exact, and an
		// unknown function in a resolved package is exact-nothing.
		if id, ok := f.X.(*ast.Ident); ok && !fa.isLocalName(id.Name) {
			if pkgID, ok := fa.fi.importPkg[id.Name]; ok {
				if n := cg.pkgFunc[pkgID+"::"+name]; n != nil {
					return []string{n.key}
				}
				return nil
			}
		}
		// Receiver-type-qualified method resolution.
		if t := fa.typeOf(f.X); t != "" {
			if ns := cg.methods[t+"."+name]; len(ns) > 0 {
				return nodeKeys(ns)
			}
		}
		return bareKeys(cg, name)
	}
	return nil
}

// isLocalName reports whether the identifier is a value in this
// function's scope (so x.M is a method call, not a package selector).
func (fa *funcAnalysis) isLocalName(name string) bool {
	return fa.threads[name] || fa.varTypes[name] != ""
}

func nodeKeys(ns []*funcNode) []string {
	out := make([]string, 0, len(ns))
	for _, n := range ns {
		out = append(out, n.key)
	}
	sort.Strings(out)
	return out
}

func bareKeys(cg *callGraph, name string) []string {
	return nodeKeys(cg.byBare[name])
}

// computeSCCs runs Tarjan's algorithm. Components are appended as they
// complete, which is exactly callee-first order for the condensation:
// every SCC reachable from component i sits at an index < i.
func (cg *callGraph) computeSCCs() {
	n := len(cg.nodes)
	cg.sccOf = make([]int, n)
	for i := range cg.sccOf {
		cg.sccOf[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	// Iterative Tarjan: frame.ci is the next callee edge to examine.
	type frame struct{ v, ci int }
	var strongconnect func(root int)
	strongconnect = func(root int) {
		frames := []frame{{v: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			advanced := false
			for fr.ci < len(cg.nodes[v].callees) {
				w := cg.nodes[v].callees[fr.ci]
				fr.ci++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var comp []*funcNode
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					cg.sccOf[w] = len(cg.sccs)
					comp = append(comp, cg.nodes[w])
					if w == v {
						break
					}
				}
				cg.sccs = append(cg.sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if index[i] == -1 {
			strongconnect(i)
		}
	}
}

// resolveImports maps every file's import local names to analyzed
// package directories, once all files are added. An import path matches
// a directory when the cleaned dir path is a suffix of the import path
// (module-prefix stripping), or when exactly one analyzed package has
// the path's base as its package name.
func (a *Analyzer) resolveImports() {
	// package name → dirs declaring it; dir slash-path set.
	byName := map[string]map[string]bool{}
	dirs := map[string]bool{}
	for _, fi := range a.files {
		dirs[fi.dir] = true
		if byName[fi.f.Name.Name] == nil {
			byName[fi.f.Name.Name] = map[string]bool{}
		}
		byName[fi.f.Name.Name][fi.dir] = true
	}
	resolve := func(p string) string {
		// Longest suffix match wins (both "b" and "a/b" can match "x/a/b");
		// ties cannot happen since dir paths are unique.
		best := ""
		for d := range dirs {
			if p == d || strings.HasSuffix(p, "/"+strings.TrimPrefix(d, "./")) {
				if len(d) > len(best) || (len(d) == len(best) && d < best) {
					best = d
				}
			}
		}
		if best != "" {
			return best
		}
		if ds := byName[path.Base(p)]; len(ds) == 1 {
			for d := range ds {
				return d
			}
		}
		return ""
	}
	for _, fi := range a.files {
		fi.importPkg = map[string]string{}
		for _, imp := range fi.f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			local := path.Base(p)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if local == "_" || local == "." {
				continue
			}
			if d := resolve(p); d != "" {
				fi.importPkg[local] = d
			}
		}
	}
}
