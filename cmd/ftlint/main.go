// Command ftlint runs the repository's static-analysis suite (internal/lint)
// over the module: errsink, a stdlib-only analyzer that machine-checks the
// journal's durability path for discarded errors.
//
// Usage:
//
//	ftlint [-list] [packages]
//
// With no packages, ./... is analyzed. Findings print as
// "file:line:col: [analyzer] message"; the exit status is 1 when there are
// findings (including load failures of any package) and 0 on a clean tree.
package main

import (
	"flag"
	"fmt"
	"os"

	"ftdag/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	ld := lint.NewLoader(root)
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	diags := lint.Check(ld.Fset, pkgs)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ftlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftlint:", err)
	os.Exit(2)
}
