package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"threadcluster/internal/cache"
	"threadcluster/internal/core"
	"threadcluster/internal/experiments"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// runSnapshot implements the `tcsim snapshot` subcommand: run one
// configuration for -rounds and persist the machine's complete state as
// a versioned snapshot, or restore a snapshot with -resume and continue
// it. The snapshot encoding is canonical — its digest (printed on
// stdout) is stable across execution engines and GOMAXPROCS — so
// splitting a run at any quiescent point changes nothing:
//
//	tcsim snapshot -rounds 400 -out full.snap
//	tcsim snapshot -rounds 250 -out half.snap
//	tcsim snapshot -resume half.snap -rounds 150 -out resumed.snap
//	cmp full.snap resumed.snap   # byte-identical
//
// The build flags (-workload, -policy, -topo, -seed, -coherence) must
// match between the snapshotting run and the resuming run: generators
// and PMU programming are rebuilt from them, then validated against the
// snapshot during restore. Only workloads with confined generators
// (microbenchmark, volano) can snapshot; specjbb and rubis touch shared
// scoreboards mid-quantum and are rejected with a bad-configuration
// error.
func runSnapshot(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", experiments.Microbenchmark,
			"workload: microbenchmark|volano (confined generators only)")
		policyFlag = fs.String("policy", "default",
			"placement policy: default|round-robin|hand-optimized|clustered (clustered attaches the engine)")
		topoFlag  = fs.String("topo", experiments.TopoOpenPower720, "topology: open720|power5-32")
		seed      = fs.Int64("seed", 1, "simulation seed; must match the snapshot when resuming")
		rounds    = fs.Int("rounds", 200, "scheduling rounds to run before snapshotting")
		out       = fs.String("out", "", "write the machine snapshot to this file")
		resume    = fs.String("resume", "", "restore the machine from this snapshot file, then run -rounds more")
		coherence = fs.String("coherence", "directory", "cache-coherence implementation: directory|broadcast")
		simengine = fs.String("simengine", "parallel", "execution engine: seq|parallel (snapshot digests are identical)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rounds < 0 {
		return fmt.Errorf("snapshot: negative -rounds")
	}

	policy, err := experiments.ParsePolicy(*policyFlag)
	if err != nil {
		return err
	}
	topo, err := experiments.ParseTopo(*topoFlag)
	if err != nil {
		return err
	}
	mode, err := cache.ParseCoherenceMode(*coherence)
	if err != nil {
		return err
	}
	eng, err := sim.ParseEngine(*simengine)
	if err != nil {
		return err
	}

	opt := experiments.DefaultOptions()
	opt.Engine = eng
	opt.Topo = topo
	opt.Seed = *seed
	opt.Coherence = mode
	mcfg := experiments.MachineConfig(opt, policy)

	// install rebuilds everything a snapshot cannot carry — generator
	// closures, PMU programming, the clustering engine's handlers — from
	// the same flags that produced the original machine.
	install := func(m *sim.Machine) error {
		spec, err := experiments.BuildWorkload(*workload, *seed)
		if err != nil {
			return err
		}
		if err := spec.Install(m); err != nil {
			return err
		}
		if policy == sched.PolicyClustered {
			e, err := core.New(m, experiments.ScaledEngineConfig(*seed))
			if err != nil {
				return err
			}
			return e.Install()
		}
		return nil
	}

	ctx := context.Background()
	var m *sim.Machine
	if *resume != "" {
		data, err := os.ReadFile(*resume)
		if err != nil {
			return fmt.Errorf("snapshot: reading %s: %w", *resume, err)
		}
		snap, err := sim.DecodeSnapshot(data)
		if err != nil {
			return fmt.Errorf("snapshot: decoding %s: %w", *resume, err)
		}
		m, err = sim.RestoreMachine(mcfg, snap, install)
		if err != nil {
			return fmt.Errorf("snapshot: restoring %s: %w", *resume, err)
		}
	} else {
		m, err = sim.NewMachine(mcfg)
		if err != nil {
			return err
		}
		if err := install(m); err != nil {
			return err
		}
	}

	if err := m.RunRoundsCtx(ctx, *rounds); err != nil {
		return err
	}
	snap, err := m.Snapshot(ctx)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, snap.Encode(), 0o666); err != nil {
			return fmt.Errorf("snapshot: writing %s: %w", *out, err)
		}
	}
	fmt.Fprintln(stdout, snap.Digest())
	b := m.Breakdown()
	fmt.Fprintf(stderr, "snapshot: %s/%s/%s seed %d: +%d rounds, %d cycles, %d insts, %d ops\n",
		*workload, policy, *topoFlag, *seed, *rounds, b.Cycles, b.Insts, m.TotalOps())
	return nil
}
