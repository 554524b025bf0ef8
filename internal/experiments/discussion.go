package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/cache"
	"threadcluster/internal/memory"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
	"threadcluster/internal/workloads"
)

// ContentionRow is one cell of the Section 7.1 local-cache-contention
// study.
type ContentionRow struct {
	Placement string
	L3        string
	// LocalMissFraction is the share of cycles stalled on local L2/L3 and
	// memory fills — the contention signal.
	LocalMissFraction float64
	// RemoteFraction is the cross-chip share.
	RemoteFraction float64
	// OpsPerMCycle is throughput.
	OpsPerMCycle float64
}

// Contention reproduces the Section 7.1 discussion: packing every sharing
// thread onto one chip maximizes sharing locality but overwhelms the
// chip's local caches when the aggregate working set does not fit, and it
// idles the rest of the machine. The engine's capacity rule ("if such an
// assignment causes an imbalance among chips, then we instead evenly
// assign the cluster's threads to each chip") avoids that. The paper also
// notes the big 36MB victim L3 absorbs most contention; shrinking it
// makes the effect bite, so both cache configurations are measured.
func Contention(ctx context.Context, opt Options) ([]ContentionRow, *stats.Table, error) {
	var rows []ContentionRow
	for _, l3 := range []struct {
		name string
		cfg  cache.Config
	}{
		{"36MB (Power5)", cache.Power5Config().L3},
		{"1MB (shrunk)", cache.Config{SizeBytes: 1 << 20, Ways: 8}},
	} {
		for _, placement := range []string{"packed on one chip", "engine (balanced)"} {
			row, err := contentionRun(ctx, opt, placement, l3.cfg)
			if err != nil {
				return nil, nil, err
			}
			row.L3 = l3.name
			rows = append(rows, row)
		}
	}
	t := stats.NewTable("Section 7.1: local cache contention when co-locating one big sharing group",
		"L3", "Placement", "Local-miss stalls", "Remote stalls", "Throughput (ops/Mcycle)")
	for _, r := range rows {
		t.AddRow(r.L3, r.Placement,
			stats.Pct(r.LocalMissFraction), stats.Pct(r.RemoteFraction),
			fmt.Sprintf("%.1f", r.OpsPerMCycle))
	}
	return rows, t, nil
}

func contentionRun(ctx context.Context, opt Options, placement string, l3 cache.Config) (ContentionRow, error) {
	arena := memory.NewDefaultArena()
	// ONE sharing group of 16 threads, each with a 384KB private set:
	// the aggregate footprint (6MB) dwarfs one chip's 2MB L2.
	wcfg := workloads.SyntheticConfig{
		Scoreboards:     1,
		ThreadsPerBoard: 16,
		ScoreboardBytes: 16 * memory.LineSize,
		PrivateBytes:    384 << 10,
		SharedRatio:     0.25,
		WriteRatio:      0.5,
		Seed:            opt.Seed,
	}
	spec, err := workloads.NewSynthetic(arena, wcfg)
	if err != nil {
		return ContentionRow{}, err
	}
	mcfg := MachineConfig(opt, sched.PolicyClustered)
	mcfg.Caches.L3 = l3
	m, err := newMachine(mcfg, spec)
	if err != nil {
		return ContentionRow{}, err
	}

	switch placement {
	case "packed on one chip":
		// The naive reading of "co-locate all sharers": everything on
		// chip 0's four contexts.
		cpus := m.Topology().CPUsOfChip(0)
		for i, th := range spec.Threads {
			if err := m.Scheduler().Migrate(th.ID, cpus[i%len(cpus)]); err != nil {
				return ContentionRow{}, err
			}
			m.Scheduler().Pin(th.ID)
		}
	case "engine (balanced)":
		if _, err := installScaledEngine(m, opt); err != nil {
			return ContentionRow{}, err
		}
	}

	if _, err := measure(ctx, m, opt); err != nil {
		return ContentionRow{}, err
	}
	b := m.Breakdown()
	local := b.Fraction(pmu.EvStallL2) + b.Fraction(pmu.EvStallL3) + b.Fraction(pmu.EvStallMemory)
	row := ContentionRow{
		Placement:         placement,
		LocalMissFraction: local,
		RemoteFraction:    b.RemoteFraction(),
	}
	if b.Cycles > 0 {
		row.OpsPerMCycle = float64(m.TotalOps()) / (float64(b.Cycles) / 1e6)
	}
	return row, nil
}

// MigrationCostResult is the Section 7.2 transient study's outcome.
type MigrationCostResult struct {
	// SteadyBefore is the windowed remote fraction before migration
	// (scattered placement).
	SteadyBefore float64
	// FirstWindowAfter is the remote fraction in the window right after
	// a mass migration: the cache/TLB reload burst.
	FirstWindowAfter float64
	// SteadyAfter is the settled remote fraction with clustered
	// placement.
	SteadyAfter float64
	// SettleWindows is how many observation windows the transient took to
	// fall within 1.5x of the settled level.
	SettleWindows int
	// Timeline is the full windowed trace around the migration.
	Timeline stats.Series
}

// MigrationCost reproduces the Section 7.2 discussion: thread migration
// costs cache-context and TLB reloading, visible as a one-time burst of
// misses, "amortized over the long thread execution time at the new
// location". The experiment scatters sharing groups, then migrates them
// into clusters at a known instant and watches the windowed remote-stall
// fraction spike and decay.
func MigrationCost(ctx context.Context, opt Options) (MigrationCostResult, error) {
	arena := memory.NewDefaultArena()
	wcfg := workloads.DefaultSyntheticConfig()
	wcfg.Seed = opt.Seed
	spec, err := workloads.NewSynthetic(arena, wcfg)
	if err != nil {
		return MigrationCostResult{}, err
	}
	// Round-robin scatters, with no balancing interference.
	m, err := newMachine(MachineConfig(opt, sched.PolicyRoundRobin), spec)
	if err != nil {
		return MigrationCostResult{}, err
	}

	const window = 20
	res := MigrationCostResult{Timeline: stats.Series{Label: "remote-stall fraction"}}
	var lastCycles, lastRemote uint64
	observe := func(x float64) float64 {
		b := m.Breakdown()
		frac := stats.Ratio(float64(b.RemoteStalls()-lastRemote), float64(b.Cycles-lastCycles))
		lastCycles, lastRemote = b.Cycles, b.RemoteStalls()
		res.Timeline.Add(x, frac)
		return frac
	}

	// Scattered steady state.
	if err := m.RunRoundsCtx(ctx, opt.WarmRounds); err != nil {
		return MigrationCostResult{}, err
	}
	observe(0)
	for i := 0; i < 5; i++ {
		if err := m.RunRoundsCtx(ctx, window); err != nil {
			return MigrationCostResult{}, err
		}
		res.SteadyBefore = observe(float64((i + 1) * window))
	}

	// Mass migration: each scoreboard group to one chip (group g to chip
	// g % chips), random contexts within the chip — exactly what the
	// engine's migration phase does, but at a known instant.
	chips := m.Topology().Chips
	for _, th := range spec.Threads {
		chip := th.Partition % chips
		if err := m.Scheduler().Migrate(th.ID, m.Scheduler().RandomCPUOnChip(chip)); err != nil {
			return MigrationCostResult{}, err
		}
	}

	// Post-migration transient.
	fracs := make([]float64, 0, 30)
	for i := 0; i < 30; i++ {
		if err := m.RunRoundsCtx(ctx, window); err != nil {
			return MigrationCostResult{}, err
		}
		fracs = append(fracs, observe(float64((6+i)*window)))
	}
	res.FirstWindowAfter = fracs[0]
	res.SteadyAfter = fracs[len(fracs)-1]
	res.SettleWindows = len(fracs)
	for i, f := range fracs {
		if f <= res.SteadyAfter*1.5+0.005 {
			res.SettleWindows = i + 1
			break
		}
	}
	return res, nil
}

// Table renders the migration-cost study.
func (r MigrationCostResult) Table() *stats.Table {
	t := stats.NewTable("Section 7.2: migration cost transient (microbenchmark, mass migration)",
		"Quantity", "Value")
	t.AddRow("steady remote stalls before (scattered)", stats.Pct(r.SteadyBefore))
	t.AddRow("first window after migration", stats.Pct(r.FirstWindowAfter))
	t.AddRow("steady remote stalls after (clustered)", stats.Pct(r.SteadyAfter))
	t.AddRow("windows to settle", fmt.Sprintf("%d", r.SettleWindows))
	return t
}
