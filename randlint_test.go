package mtbench_test

// Reproducibility lint: every noise maker, random strategy and native
// runtime must draw randomness from a per-run rng built by
// core.NewRand(seed) — never from math/rand's process-global source —
// so that a (program, seed) pair always reproduces the same schedule
// (the property TestStrategyDeterministicPerSeed pins for one
// strategy; this test pins the whole module). A call to the global
// source would make runs depend on whatever else drew from it first.
//
// core.NewRand draws the stream rand.New(rand.NewSource(seed)) would,
// but reseeds in O(1) where the stock source regenerates its whole
// state (a third of a short fuzz run). So non-test code in
// this module calls rand.NewSource only inside internal/core/rand.go.
// Nested modules (the benchmark harness under stackbench/) are held
// to the global-source rule alone.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// globalRandFuncs are the package-level math/rand functions that read
// the shared global source (or reseed it under callers' feet).
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// newSourceHome is the one non-test file allowed to call rand.NewSource.
const newSourceHome = "internal/core/rand.go"

func TestNoGlobalRandSource(t *testing.T) {
	fset := token.NewFileSet()
	var nested []string // roots of modules nested inside this one
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".github" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." {
				nested = append(nested, path+string(filepath.Separator))
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		// Names under which this file imports math/rand (usually
		// "rand", but aliases count too).
		randNames := map[string]bool{}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != "math/rand" && p != "math/rand/v2" {
				continue
			}
			name := "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			randNames[name] = true
		}
		if len(randNames) == 0 {
			return nil
		}
		inModule := !slices.ContainsFunc(nested, func(root string) bool {
			return strings.HasPrefix(path, root)
		})
		banNewSource := inModule && filepath.ToSlash(path) != newSourceHome
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || !randNames[pkg.Name] || pkg.Obj != nil {
				return true
			}
			switch {
			case globalRandFuncs[sel.Sel.Name]:
				t.Errorf("%s: %s.%s uses math/rand's global source; route through a per-run core.NewRand(seed)",
					fset.Position(call.Pos()), pkg.Name, sel.Sel.Name)
			case sel.Sel.Name == "NewSource" && banNewSource:
				t.Errorf("%s: %s.NewSource pays the stock O(state) reseed; use core.NewRand(seed), which draws the same stream",
					fset.Position(call.Pos()), pkg.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
