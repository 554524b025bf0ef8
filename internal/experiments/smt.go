package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/memory"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// SMTRow is one configuration of the intra-chip placement ablation.
type SMTRow struct {
	Placement string
	// SMTStallFraction is the share of cycles lost to SMT sibling
	// contention.
	SMTStallFraction float64
	// RemoteFraction stays for reference: both placements keep cluster
	// chip affinity, so it should be near zero for both.
	RemoteFraction float64
	// OpsPerMCycle is throughput.
	OpsPerMCycle float64
}

// SMTPlacement runs the intra-chip placement ablation: the paper assigns
// threads within a chip "uniformly and randomly ... to the cores and the
// different hardware contexts" (Section 4.5) and defers SMT-awareness to
// the co-scheduling literature of Section 2. With SMT contention modelled
// (co-running sibling contexts share the core's issue bandwidth) and an
// under-committed machine (fewer threads than hardware contexts), the
// cores-first alternative keeps SMT siblings free while whole cores are
// idle. Both placements co-locate each sharing pair on one chip — only
// the within-chip rule differs — and the sweep averages several seeds
// because the random rule's outcome is by construction a lottery.
func SMTPlacement(ctx context.Context, opt Options) ([]SMTRow, *stats.Table, error) {
	const seeds = 6
	rows := []SMTRow{{Placement: "random (paper §4.5)"}, {Placement: "cores-first (SMT-aware)"}}
	for s := int64(0); s < seeds; s++ {
		o := opt
		o.Seed = opt.Seed + s
		for i, spread := range []bool{false, true} {
			r, err := smtRun(ctx, o, spread)
			if err != nil {
				return nil, nil, err
			}
			rows[i].SMTStallFraction += r.SMTStallFraction / seeds
			rows[i].RemoteFraction += r.RemoteFraction / seeds
			rows[i].OpsPerMCycle += r.OpsPerMCycle / seeds
		}
	}
	t := stats.NewTable("Intra-chip placement ablation (SMT contention modelled, 4 threads on 8 contexts)",
		"Placement", "SMT stalls", "Remote stalls", "Throughput (ops/Mcycle)")
	for _, r := range rows {
		t.AddRow(r.Placement, stats.Pct(r.SMTStallFraction), stats.Pct(r.RemoteFraction),
			fmt.Sprintf("%.1f", r.OpsPerMCycle))
	}
	return rows, t, nil
}

func smtRun(ctx context.Context, opt Options, spread bool) (SMTRow, error) {
	arena := memory.NewDefaultArena()
	// Two sharing pairs: 4 threads on the 8-context machine.
	wcfg := workloads.SyntheticConfig{
		Scoreboards:     2,
		ThreadsPerBoard: 2,
		ScoreboardBytes: 16 * memory.LineSize,
		PrivateBytes:    64 << 10,
		SharedRatio:     0.4,
		WriteRatio:      0.5,
		Seed:            opt.Seed,
	}
	spec, err := workloads.NewSynthetic(arena, wcfg)
	if err != nil {
		return SMTRow{}, err
	}
	mcfg := MachineConfig(opt, sched.PolicyRoundRobin) // static: the experiment places manually
	mcfg.SMTContentionPct = 30
	m, err := newMachine(mcfg, spec)
	if err != nil {
		return SMTRow{}, err
	}

	// Cluster-to-chip assignment as the engine would do it (pair p goes
	// to chip p); the within-chip rule is the ablated choice: uniformly
	// random contexts (the paper) versus one thread per core.
	s := m.Scheduler()
	topo := m.Topology()
	nextCore := make([]int, topo.Chips)
	for _, th := range spec.Threads {
		chip := th.Partition % topo.Chips
		var cpu topology.CPUID
		if spread {
			core := chip*topo.CoresPerChip + nextCore[chip]%topo.CoresPerChip
			cpu = topo.CPUsOfCore(core)[nextCore[chip]/topo.CoresPerChip%topo.ContextsPerCore]
			nextCore[chip]++
		} else {
			cpu = s.RandomCPUOnChip(chip)
		}
		if err := s.Migrate(th.ID, cpu); err != nil {
			return SMTRow{}, err
		}
	}

	if err := m.RunRoundsCtx(ctx, opt.WarmRounds); err != nil {
		return SMTRow{}, err
	}
	m.ResetMetrics()
	if err := m.RunRoundsCtx(ctx, opt.MeasureRounds); err != nil {
		return SMTRow{}, err
	}
	b := m.Breakdown()
	row := SMTRow{
		SMTStallFraction: b.Fraction(pmu.EvStallSMT),
		RemoteFraction:   b.RemoteFraction(),
	}
	if b.Cycles > 0 {
		row.OpsPerMCycle = float64(m.TotalOps()) / (float64(b.Cycles) / 1e6)
	}
	return row, nil
}
