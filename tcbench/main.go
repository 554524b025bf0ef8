package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// workloadNames are the benchmark's workloads, in the order "all" runs
// them.
var workloadNames = []string{"volano-720", "jbb-32way", "grid-job"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: volano-720, jbb-32way, grid-job, or all")
	seed := fs.Int64("seed", 1, "workload seed; the simulator receives it only through the workload builders and the grid's base seed")
	seconds := fs.Int("seconds", 30, "how long to keep starting measured iterations")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "tcbench: want --workload <name> --seed <n> --seconds <n>=1> --trace <0|1>")
		return 2
	}
	// GOMAXPROCS, sweep and task workers are capped at the host's CPUs.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	runners := map[string]func(context.Context, *output, int64, int, bool) error{
		"volano-720": volano720.run,
		"jbb-32way":  jbb32.run,
		"grid-job":   gridJobs.run,
	}
	runner, ok := runners[*workload]
	if !ok {
		fmt.Fprintf(stderr, "tcbench: unknown workload %q (want one of %v or all)\n", *workload, workloadNames)
		return 2
	}
	o := newOutput(stdout)
	o.printf("tcbench workload=%s seed=%d seconds=%d trace=%d", *workload, *seed, *seconds, *trace)
	o.printf("%s", hostStamp())
	if err := runner(context.Background(), o, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "tcbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line, err := o.finalLine(defs)
	if err != nil {
		fmt.Fprintln(stderr, "tcbench:", err)
		return 1
	}
	for _, f := range o.failures {
		o.printf("CHECK FAILED: %s", f)
	}
	fmt.Fprintln(stdout, line)
	if !o.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process, and fails if any
// of them does.
func runAll(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "tcbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "tcbench: %s failed: %v\n", w, err)
			code = 1
		}
	}
	return code
}
