// Command tcsim runs the paper's experiments on the simulated
// SMP-CMP-SMT machine and prints the tables, figures and sweeps of the
// evaluation section.
//
// Usage:
//
//	tcsim -exp all                 # everything (several minutes)
//	tcsim -exp fig6                # one experiment
//	tcsim -exp fig3 -workload rubis
//	tcsim -exp fig5 -seed 7
//	tcsim -exp fig3 -warm 5 -engine-rounds 5 -measure 5   # quick drive
//
// -warm, -engine-rounds and -measure override the round counts of the
// warm-up, engine and measured phases; -engine picks the execution
// engine (seq|parallel), not a round count.
//
// Paper experiments: table1, fig1, fig3, fig5, fig6, fig7, fig8,
// spatial, scale32, sdar. Extension studies: ablation, threshold,
// pagevspmu, numa, phase, contention, migration, multiprog, smt, mux,
// probe, staged, churn, streaming. Use -exp all for everything and
// -markdown for GitHub-flavored tables. The -cluster flag swaps the
// engine's per-detection batch pass for the incremental clusterer
// (dense vectors or fixed-size sketches); results are differentially
// tested to match batch.
//
// The sweep subcommand fans a configuration grid (policy x topology x
// workload) across a worker pool and emits a metrics table:
//
//	tcsim sweep                               # 4 workloads x 2 policies
//	tcsim sweep -policies default,clustered -workers 4
//	tcsim sweep -format json -merged          # machine-wide snapshot
//	tcsim sweep -digest                       # canonical payload digest only
//
// Per-configuration results are byte-identical for any -workers value.
//
// The submit subcommand runs the same grid on a tcsimd job server and
// prints the canonical result payload, byte-identical to the offline
// sweep of the same spec (compare with `tcsim sweep -digest`):
//
//	tcsim submit -addr http://127.0.0.1:8321 -policies default,clustered
//	tcsim submit -spec job.json -events       # stream NDJSON progress
//
// The snapshot subcommand persists a machine's complete state after N
// rounds and resumes it later; split runs produce byte-identical
// snapshots to unbroken ones:
//
//	tcsim snapshot -rounds 250 -out half.snap
//	tcsim snapshot -resume half.snap -rounds 150 -out full.snap
//
// The bench-sweep subcommand runs the saturation sweep: a grid of
// machine shapes (chips x cores-per-chip, 2 SMT contexts) and coherence
// intensities, each cell timed under the sequential and the chip-parallel
// engine, with knee points (where parallel speedup or coherence cost
// saturates) extracted by internal/satbench:
//
//	tcsim bench-sweep                          # 4x2x3 grid, table output
//	tcsim bench-sweep -chips 1,2 -rounds 10 -format json
//	tcsim bench-sweep -record BENCH_sim.json   # refresh the "sweep" key
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"threadcluster/internal/cache"
	"threadcluster/internal/experiments"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			if err := runSweep(os.Args[2:], os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "tcsim:", err)
				os.Exit(1)
			}
			return
		case "submit":
			if err := runSubmit(os.Args[2:], os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "tcsim:", err)
				os.Exit(1)
			}
			return
		case "snapshot":
			if err := runSnapshot(os.Args[2:], os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "tcsim:", err)
				os.Exit(1)
			}
			return
		case "bench-sweep":
			if err := runBenchSweep(os.Args[2:], os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "tcsim:", err)
				os.Exit(1)
			}
			return
		}
	}
	cli, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "tcsim:", err)
		os.Exit(2)
	}

	stopCPU, err := startCPUProfile(cli.cpuprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runErr := run(context.Background(), cli.exp, cli.workload, cli.opt, cli.markdown)
	stopCPU()
	if err := writeMemProfile(cli.memprof); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tcsim:", runErr)
		os.Exit(1)
	}
}

// cliFlags is the parsed experiment mode (no subcommand).
type cliFlags struct {
	exp, workload    string
	markdown         bool
	cpuprof, memprof string
	opt              experiments.Options
}

// parseFlags parses the experiment-mode flags into experiments.Options.
func parseFlags(args []string, stderr io.Writer) (cliFlags, error) {
	fs := flag.NewFlagSet("tcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp          = fs.String("exp", "all", "experiment to run: table1|fig1|fig3|fig5|fig6|fig7|fig8|spatial|scale32|sdar|ablation|pagevspmu|threshold|numa|phase|contention|migration|multiprog|smt|mux|probe|staged|churn|streaming|all")
		workload     = fs.String("workload", experiments.Volano, "workload for fig3: microbenchmark|volano|specjbb|rubis")
		seed         = fs.Int64("seed", 1, "simulation seed")
		warm         = fs.Int("warm", 0, "override warm-up rounds (0 = default)")
		engineRounds = fs.Int("engine-rounds", 0, "override engine rounds (0 = default)")
		measure      = fs.Int("measure", 0, "override measured rounds (0 = default)")
		markdown     = fs.Bool("markdown", false, "emit tables as GitHub-flavored Markdown")
		coherence    = fs.String("coherence", "directory", "cache-coherence implementation: directory|broadcast (broadcast is the immediate-visibility reference; multi-chip output differs on rounds directory mode runs deferred)")
		engine       = fs.String("engine", "parallel", "execution engine for eligible multi-chip rounds: seq|parallel (results are byte-identical)")
		cluster      = fs.String("cluster", "batch", "clustering path: batch (from-scratch per detection)|dense|sketch (incremental)")
		cpuprof      = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof      = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return cliFlags{}, err
	}

	opt := experiments.DefaultOptions()
	opt.Seed = *seed
	if *warm > 0 {
		opt.WarmRounds = *warm
	}
	if *engineRounds > 0 {
		opt.EngineRounds = *engineRounds
	}
	if *measure > 0 {
		opt.MeasureRounds = *measure
	}
	mode, err := cache.ParseCoherenceMode(*coherence)
	if err != nil {
		return cliFlags{}, err
	}
	opt.Coherence = mode
	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		return cliFlags{}, err
	}
	opt.Engine = eng
	if *cluster != "batch" {
		opt.ClusterMode = *cluster
		if _, err := experiments.EngineConfigFor(opt); err != nil {
			return cliFlags{}, err
		}
	}
	return cliFlags{
		exp: *exp, workload: *workload, markdown: *markdown,
		cpuprof: *cpuprof, memprof: *memprof, opt: opt,
	}, nil
}

func run(ctx context.Context, exp, workload string, opt experiments.Options, markdown bool) error {
	emit := func(t *stats.Table) {
		if markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t)
		}
	}
	all := exp == "all"
	ran := false
	show := func(name string) bool {
		if all || exp == name {
			ran = true
			return true
		}
		return false
	}

	if show("table1") {
		emit(experiments.Table1())
	}
	if show("fig1") {
		t, err := experiments.Figure1(opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("fig3") {
		names := []string{workload}
		if all {
			names = experiments.AllWorkloads()
		}
		for _, n := range names {
			t, _, err := experiments.Figure3(ctx, n, opt)
			if err != nil {
				return err
			}
			emit(t)
		}
	}
	if show("fig5") {
		results, err := experiments.Figure5(ctx, opt)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Println(r)
		}
	}
	if show("fig6") {
		t, _, err := experiments.Figure6(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("fig7") {
		t, _, err := experiments.Figure7(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("fig8") {
		_, t, err := experiments.Figure8(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("spatial") {
		_, t, err := experiments.SpatialSensitivity(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("scale32") {
		res, err := experiments.Scale32(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
	}
	if show("sdar") {
		res, err := experiments.SDARPurity(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
	}
	if show("ablation") {
		_, t, err := experiments.Ablation(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("threshold") {
		_, t, err := experiments.ThresholdSensitivity(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("pagevspmu") {
		_, t, err := experiments.PageVsPMU(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("numa") {
		_, t, err := experiments.NUMA(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("phase") {
		res, err := experiments.PhaseChange(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
		fmt.Println(res.Timeline.String())
		fmt.Println()
	}
	if show("contention") {
		_, t, err := experiments.Contention(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("migration") {
		res, err := experiments.MigrationCost(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
	}
	if show("multiprog") {
		_, t, err := experiments.Multiprogrammed(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("smt") {
		_, t, err := experiments.SMTPlacement(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("mux") {
		_, t, err := experiments.MuxValidation(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("probe") {
		_, t, err := experiments.CacheProbe(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("staged") {
		_, t, err := experiments.Staged(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("churn") {
		_, t, err := experiments.Churn(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if show("streaming") {
		_, t, err := experiments.Streaming(ctx, opt)
		if err != nil {
			return err
		}
		emit(t)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
