// Command apcvet is the repo's own vet: a multichecker of the four
// project-specific static-invariant passes in internal/analysis —
//
//	determinism  no wall-clock, global-RNG, env reads, or
//	             order-dependent map iteration in internal packages
//	noalloc      //apcvet:noalloc hot paths contain no heap
//	             allocation by the compiler's escape analysis (the
//	             compile-time face of the runtime alloc gate)
//	poolsafe     //apcvet:pooled records are never touched after
//	             release, and their callbacks capture only the record
//	seededrng    every RNG stream is Options.Seed-rooted with a
//	             distinct salt, never a bare literal
//
// Usage:
//
//	go run ./cmd/apcvet [packages]    (default ./...)
//	go run ./cmd/apcvet -help
//
// apcvet self-hosts: `go run ./cmd/apcvet ./...` must exit 0 on this
// repository, and `make lint` / the CI lint job enforce exactly that.
// Diagnostics print as file:line:col: message (pass); the exit status
// is 1 when any diagnostic fires, 2 on load/type-check errors. The
// annotation grammar (//apcvet:noalloc, pooled, poolput, and the
// ordered/alloc/poolok suppressions) is documented in DESIGN.md §12;
// malformed annotations are themselves diagnostics, so a typo cannot
// silently disable a check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"agilepkgc/internal/analysis"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("apcvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: apcvet [packages]  (default ./...)\n\npasses:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadModule(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "apcvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintf(stderr, "apcvet: %v\n", err)
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		name := pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && len(rel) < len(name) {
				name = rel
			}
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", name, pos.Line, pos.Column, d.Message, d.Pass)
	}
	fmt.Fprintf(stderr, "apcvet: %d invariant violation(s)\n", len(diags))
	return 1
}
