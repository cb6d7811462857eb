// Package lint is wfsim's determinism lint suite: custom static
// analyzers that turn the project's reproducibility rules — byte-identical
// renders and traces across runs and across -j N parallelism — into
// compile-time-checkable facts. The analyzers mirror the
// golang.org/x/tools/go/analysis style (see internal/lint/analysis for
// why the framework is vendored as a minimal reimplementation) and are
// driven by the cmd/wfsimlint multichecker.
//
// Rules:
//
//	floatreduce  float reduction in map/goroutine/callback order
//	hotalloc     heap allocation in the steady-state simulate path
//	maporder     map iteration with order-sensitive effects
//	seedrand     global math/rand state or entropy-seeded generators
//	simblock     real blocking inside engine callbacks
//	walltime     wall-clock time outside the annotated real-time layer
//
// walltime and seedrand are interprocedural: besides their per-package
// halves they run taint analyses over the module-wide call graph
// (internal/lint/analysis), so a wall-clock instant or entropy-derived
// seed laundered through any chain of helpers is still caught at the
// point where simulation code consumes it. hotalloc and simblock are
// purely module-scoped: they compute reachability from steady-state
// roots (the event loop, dispatch path, scheduler entry points) and
// from the callbacks handed to Engine.Bind/Schedule respectively.
//
// Suppression: `//wfsimlint:allow <rule>[,<rule>...]` on or directly
// above the flagged line; `//wfsimlint:wallclock` tags a whole file as
// part of the real-time layer (walltime only); `//wfsimlint:hotpath` and
// `//wfsimlint:callback` doc-comment tags add analysis roots. Findings
// recorded in the committed baseline (lint.baseline at the module root)
// print but do not fail the build. DESIGN.md's "Determinism invariants"
// section documents each rule's rationale.
package lint

import (
	"path/filepath"
	"strings"

	"wfsim/internal/lint/analysis"
	"wfsim/internal/lint/load"
)

// Analyzers is the full suite, in name order.
var Analyzers = []*analysis.Analyzer{FloatReduce, HotAlloc, MapOrder, SeedRand, SimBlock, WallTime}

// A Result is one lint run's output.
type Result struct {
	// Diagnostics are the surviving findings in deterministic global
	// order (file, line, column, rule, message). Baseline-matched
	// findings are present with Suppressed set.
	Diagnostics []analysis.Diagnostic
	// Stale lists baseline entries no finding matched — debt that has
	// been paid and should be removed from the baseline.
	Stale []string
	// ModRoot is the absolute module root the run resolved.
	ModRoot string
}

// Failing counts the diagnostics that should fail the build: everything
// not absorbed by the baseline.
func (r *Result) Failing() int {
	n := 0
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			n++
		}
	}
	return n
}

// Run loads the module rooted at (or above) dir and applies the
// analyzers, returning the diagnostics in deterministic global order.
// No baseline is consulted; see RunModule for the full-featured entry
// point.
func Run(dir string, analyzers []*analysis.Analyzer, includeTests bool, patterns []string) ([]analysis.Diagnostic, error) {
	res, err := RunModule(dir, analyzers, includeTests, patterns, "")
	if err != nil {
		return nil, err
	}
	return res.Diagnostics, nil
}

// RunModule loads the module rooted at (or above) dir and applies the
// analyzers. Package-scoped halves run on every package whose directory
// matches one of the patterns ("./..."-style, resolved relative to dir —
// the invocation directory, as the go tool does; empty means
// everything). Module-scoped halves always analyze
// the whole module — interprocedural facts do not respect package
// boundaries — and their diagnostics are then filtered to the matched
// packages, so a narrowed run stays sound and still only reports where
// it was asked to. baselinePath names the suppression baseline to
// apply; "" skips baselining.
func RunModule(dir string, analyzers []*analysis.Analyzer, includeTests bool, patterns []string, baselinePath string) (*Result, error) {
	loader, err := load.New(dir)
	if err != nil {
		return nil, err
	}
	loader.IncludeTests = includeTests
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}

	base, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	matched := make(map[string]bool)
	for _, pkg := range pkgs {
		if matchesAny(base, pkg.Dir, patterns) {
			matched[pkg.Dir] = true
		}
	}

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		if !matched[pkg.Dir] {
			continue
		}
		for _, az := range analyzers {
			if az.Run == nil {
				continue
			}
			pass := analysis.NewPass(az, loader.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.Path)
			if err := az.Run(pass); err != nil {
				return nil, err
			}
			diags = append(diags, pass.Diagnostics...)
		}
	}

	var modPkgs []*analysis.ModulePackage
	for _, pkg := range pkgs {
		modPkgs = append(modPkgs, &analysis.ModulePackage{
			Path: pkg.Path, Dir: pkg.Dir, Files: pkg.Files,
			Types: pkg.Types, Info: pkg.Info,
		})
	}
	var graph *analysis.Graph
	for _, az := range analyzers {
		if az.RunModule == nil {
			continue
		}
		if graph == nil {
			graph = analysis.BuildGraph(loader.Fset, modPkgs)
		}
		pass := analysis.NewModulePass(az, loader.Fset, modPkgs, graph)
		if err := az.RunModule(pass); err != nil {
			return nil, err
		}
		for _, d := range pass.Diagnostics {
			if matched[filepath.Dir(d.Position.Filename)] {
				diags = append(diags, d)
			}
		}
	}

	res := &Result{Diagnostics: diags, ModRoot: loader.ModRoot}
	if baselinePath != "" {
		base, err := LoadBaseline(baselinePath)
		if err != nil {
			return nil, err
		}
		res.Stale = base.Apply(loader.ModRoot, res.Diagnostics)
	}
	analysis.SortDiagnostics(res.Diagnostics)
	return res, nil
}

// matchesAny reports whether dir (an absolute package directory) is
// selected by the patterns, resolved against base (the invocation
// directory): "./..." selects everything under base, "./x/..." selects
// x and its subtree, "./x" (or ".") selects exactly that directory. No
// patterns selects everything.
func matchesAny(base, dir string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, pat := range patterns {
		if sub, ok := strings.CutSuffix(filepath.ToSlash(pat), "..."); ok {
			root := filepath.Join(base, filepath.FromSlash(strings.TrimSuffix(sub, "/")))
			if dir == root || strings.HasPrefix(dir, root+string(filepath.Separator)) {
				return true
			}
			continue
		}
		if dir == filepath.Join(base, filepath.FromSlash(pat)) {
			return true
		}
	}
	return false
}
