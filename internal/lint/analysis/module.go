package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A ModulePackage is one loaded, type-checked package handed to
// module-scoped analyzers. It mirrors the loader's package shape without
// importing the loader (analysis stays dependency-free).
type ModulePackage struct {
	// Path is the import path the package was loaded under.
	Path string
	// Dir is the directory holding the package's files.
	Dir string
	// Files is the parsed syntax, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info is the type-checker's resolution maps for Files.
	Info *types.Info
}

// A ModulePass is one (analyzer, module) unit of work: every loaded
// package at once, the interprocedural call graph built over them, and
// the reporting sink. Suppression comments from all files are indexed,
// so Reportf behaves exactly like the package-scoped Pass.
type ModulePass struct {
	// Analyzer is the rule being applied.
	Analyzer *Analyzer
	// Fset maps token positions for every file in every package.
	Fset *token.FileSet
	// Pkgs is every package under analysis, in deterministic path order.
	Pkgs []*ModulePackage
	// Graph is the module-wide call graph (shared across analyzers).
	Graph *Graph

	// Diagnostics accumulates surviving (non-suppressed) findings.
	Diagnostics []Diagnostic

	allow map[string]map[int][]string
	seen  map[Diagnostic]bool
}

// NewModulePass assembles a ModulePass for one analyzer over the whole
// module and indexes the suppression comments of every file.
func NewModulePass(az *Analyzer, fset *token.FileSet, pkgs []*ModulePackage, graph *Graph) *ModulePass {
	p := &ModulePass{
		Analyzer: az,
		Fset:     fset,
		Pkgs:     pkgs,
		Graph:    graph,
		allow:    make(map[string]map[int][]string),
		seen:     make(map[Diagnostic]bool),
	}
	for _, pkg := range pkgs {
		indexAllows(p.allow, fset, pkg.Files)
	}
	return p
}

// Reportf records a finding at pos unless a //wfsimlint:allow annotation
// for this rule covers the line (same line or the line directly above).
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, line := range [2]int{position.Line, position.Line - 1} {
		for _, rule := range p.allow[position.Filename][line] {
			if rule == p.Analyzer.Name {
				return
			}
		}
	}
	d := Diagnostic{
		Position: position,
		Rule:     p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if p.seen[d] {
		return
	}
	p.seen[d] = true
	p.Diagnostics = append(p.Diagnostics, d)
}

// IsTestFile reports whether pos falls in a _test.go file.
func (p *ModulePass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// FuncAnnotation reports whether fn's doc comment carries the line
// "//wfsimlint:<name>" — a function-level tag. The hotalloc analyzer
// uses "//wfsimlint:hotpath" to add hot-path roots; simblock uses
// "//wfsimlint:callback" to mark functions that run as engine callbacks
// through indirections the call graph cannot see.
func FuncAnnotation(fn *ast.FuncDecl, name string) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	want := "wfsimlint:" + name
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == want {
			return true
		}
	}
	return false
}
