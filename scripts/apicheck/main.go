// Command apicheck keeps the partition package's search surface
// collapsed.
//
// Every partition search goes through one Request/Solve entry point,
// and fixed assignments through one Evaluate, one Explore and the three
// baselines, each taking per-level weights. Before that core existed,
// every new capability grew a fresh exported variant — a ...Ctx form
// for cancellation, a ...With form for an explicit pool, a ...Weighted
// or ...PerLevel form for cost models — and the matrix multiplied.
// This lint keeps it from growing back: any exported function in
// internal/partition whose name ends in Ctx, With, Weighted or PerLevel
// fails CI unless it is in the frozen set below. New capabilities
// belong on partition.Request as fields, not on the package as
// combinatorial function variants.
//
// Usage: go run ./scripts/apicheck [dir]  (default internal/partition)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// frozen lists the variant-shaped names that stay: the weighted forms
// of the single-level DP and of its exhaustive objective, which the
// per-platform conformance oracle tests against. Do not add to it: a
// new search capability is a new Request field, not a new variant.
var frozen = map[string]bool{
	"AssignmentCostWeighted": true,
	"TwoWayWeighted":         true,
}

// variantSuffixes are the name shapes the old matrix multiplied along.
var variantSuffixes = []string{"Ctx", "With", "Weighted", "PerLevel"}

func main() {
	dir := filepath.Join("internal", "partition")
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	offenders, err := check(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
	if len(offenders) > 0 {
		fmt.Fprintf(os.Stderr, "apicheck: %s grew new exported search variants:\n", dir)
		for _, o := range offenders {
			fmt.Fprintf(os.Stderr, "  %s\n", o)
		}
		fmt.Fprintln(os.Stderr, "add the capability as a partition.Request field served by Solve instead of a new wrapper")
		os.Exit(1)
	}
	fmt.Printf("apicheck: %s has no exported search variants beyond the %d frozen ones\n", dir, len(frozen))
}

// check parses every non-test file in dir and returns the exported
// top-level functions that match a variant suffix without being in the
// frozen set, as "name (file:line)" strings sorted by name.
func check(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var offenders []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() {
					continue // methods may vary; the lint is about package-level variants
				}
				name := fn.Name.Name
				if !hasVariantSuffix(name) || frozen[name] {
					continue
				}
				pos := fset.Position(fn.Pos())
				offenders = append(offenders,
					fmt.Sprintf("%s (%s:%d)", name, pos.Filename, pos.Line))
			}
		}
	}
	sort.Strings(offenders)
	return offenders, nil
}

func hasVariantSuffix(name string) bool {
	for _, s := range variantSuffixes {
		if strings.HasSuffix(name, s) && name != s {
			return true
		}
	}
	return false
}
