// Command bench is the repository's one benchmark: four workloads over
// the timing-closure loop, each checked for correctness, reporting
// end-to-end metrics (untraced) or per-layer metrics (-trace). README.md
// in this directory is the manual; BENCHMARK.json at the repository root
// registers the command, workloads, metrics and regression bounds.
//
// With -workload it runs that workload in this process and ends with one
// JSON line on standard output. Without, it runs the whole suite, each
// workload in a fresh child process, and -aa N repeats the suite to
// measure its own run-to-run spread.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

var (
	nproc = runtime.GOMAXPROCS(0)
	// clientLimit is the most client goroutines a workload may run: one per
	// CPU, except that the eco loops always need their two (loop + poller).
	clientLimit = int32(max(nproc, 2))
	outDir      = "bench/out"
)

// childEnv marks a process this binary started for itself (selfCmd);
// bench_test.go's TestMain looks for it so that the test binary can play
// the same role.
const childEnv = "NEWGAME_BENCH_CHILD"

// selfCmd prepares a run of this binary with other arguments: a suite's
// workload, a set-up sample, or the poller.
func selfCmd(args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	return cmd, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload, in this process (default: the whole suite)")
	seed := fs.Int64("seed", 1, "workload seed: picks URIs and op order, nothing else")
	seconds := fs.Float64("seconds", 12, "measured seconds per run")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
	scaleName := fs.String("scale", "full", "design sizes: full or tiny")
	aa := fs.Int("aa", 0, "run the suite this many times and report each metric's spread (0 = one plain suite run)")
	fs.StringVar(&outDir, "out", outDir, "directory for traces, results and scratch files")
	pollURL := fs.String("poll", "", "internal: run as the open-loop poller against this base URL")
	pollTag := fs.String("poll-tag", "", "internal: X-Trace-Id prefix for the poller's requests")
	setupOnly := fs.Bool("setup-only", false, "internal: set the workload up, print the seconds it took, and stop")
	withClientView := fs.Bool("client-view", false, "internal: an untraced run also puts its client-view figures on the result line (the suite asks for them)")
	if err := fs.Parse(normalizeBool(args, "trace")); err != nil {
		return 2
	}
	if *pollURL != "" {
		return pollMain(*pollURL, *pollTag)
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -scale %q\n", *scaleName)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace, setupOnly: *setupOnly, withClientView: *withClientView, sc: sc}

	var err error
	switch {
	case *workload != "":
		err = runOne(o)
	case *aa > 0:
		err = runAA(o, *aa)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// normalizeBool rewrites "-name 0|1" into "-name=0|1": the driver passes
// "--trace 0", which the flag package would otherwise read as a bare
// boolean followed by a positional argument.
func normalizeBool(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-"+name || args[i] == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, args[i]+"="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// runOne runs one workload here and prints its table (standard error) and
// result line (standard output). A run whose load generator was not
// honest — late, or with more clients than CPUs — is an error, not a
// result.
func runOne(o runOpts) error {
	res, err := measure(o)
	if err != nil {
		return err
	}
	if o.setupOnly {
		_, err := fmt.Println(res.values["setup_s"])
		return err
	}
	if late := res.values["bench.poller_lateness_p99_ms"]; late > latenessCap {
		return fmt.Errorf("%s: poller woke %.2f ms late at p99 (cap %.0f ms): the box is too busy for an honest open loop", o.workload, late, latenessCap)
	}
	if peak := clientsPeak.Load(); peak > clientLimit {
		return fmt.Errorf("%s: %d client goroutines at once, limit %d", o.workload, peak, clientLimit)
	}
	res.printTable(os.Stderr)
	return res.printJSON(os.Stdout, o.withClientView)
}

// measure runs one workload and holds its result to the output contract.
func measure(o runOpts) (*result, error) {
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		res, err := w.run(o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		if o.setupOnly {
			return res, nil
		}
		res.set("failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
		return res, res.validate()
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}
