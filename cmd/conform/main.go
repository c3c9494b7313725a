// Command conform runs the conformance lab's invariant registry over
// randomly generated designs: the CI quick sweep and the overnight-soak
// entry point.
//
//	conform -designs 25 -seed 1          # CI quick sweep
//	conform -designs 2000 -edits 32 -v   # overnight soak
//
// A failing law prints its violation plus a minimized reproducer JSON
// ready to commit under internal/conformance/testdata/repros/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"newgame/internal/conformance"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "conform:", err)
		os.Exit(1)
	}
}

// errFailures distinguishes law violations (exit 1 with a full report
// already printed) from flag/usage errors.
var errFailures = fmt.Errorf("invariant violations found")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("conform", flag.ContinueOnError)
	fs.SetOutput(out)
	designs := fs.Int("designs", 25, "number of random designs to check every per-design law on")
	edits := fs.Int("edits", 8, "edit-script length for incremental laws")
	seed := fs.Int64("seed", 1, "sweep seed")
	only := fs.String("only", "", "comma-separated law names to run (default all)")
	list := fs.Bool("list", false, "list the registered laws and exit")
	verbose := fs.Bool("v", false, "per-design progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, inv := range conformance.Registry() {
			fmt.Fprintf(out, "%-32s %s\n", inv.Name, inv.Law)
		}
		return nil
	}
	opts := conformance.Options{
		Designs: *designs, Edits: *edits, Seed: *seed,
		Out: out, Verbose: *verbose,
	}
	if *only != "" {
		var known []string
		for _, inv := range conformance.Registry() {
			known = append(known, inv.Name)
		}
		opts.Only = map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(known, name) {
				return fmt.Errorf("-only: unknown law %q (known: %s)", name, strings.Join(known, ", "))
			}
			opts.Only[name] = true
		}
	}
	res := conformance.Run(opts)
	fmt.Fprint(out, res.String())
	failures := res.Failures()
	if len(failures) == 0 {
		return nil
	}
	for _, f := range failures {
		fmt.Fprintf(out, "\nFAIL %s: %s\n", f.Invariant, f.Err)
		min := conformance.Minimize(f.Repro, conformance.Replay)
		fmt.Fprintf(out, "minimized repro (commit under internal/conformance/testdata/repros/):\n%s", conformance.Format(min))
	}
	return errFailures
}
