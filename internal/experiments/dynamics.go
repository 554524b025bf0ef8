package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/clustering"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
	"threadcluster/internal/workloads"
)

// PhaseChangeResult is the Section 4.1 adaptivity study's outcome.
type PhaseChangeResult struct {
	// Timeline samples the machine-wide remote-stall fraction per
	// observation window, across the whole run.
	Timeline stats.Series
	// BeforeShift is the remote fraction in the window just before the
	// workload's sharing pattern changes (after the first clustering has
	// settled).
	BeforeShift float64
	// PeakAfterShift is the worst windowed remote fraction after the
	// shift (the dissolved clusters thrash across chips again).
	PeakAfterShift float64
	// FinalFraction is the remote fraction at the end of the run, after
	// the engine has re-clustered.
	FinalFraction float64
	// Activations counts detection activations over the run; adapting to
	// the shift requires at least two.
	Activations uint64
	// SecondPhasePurity scores the final clustering against the second
	// phase's ground truth.
	SecondPhasePurity float64
}

// PhaseChange demonstrates the iterative re-clustering of Section 4.1:
// the microbenchmark's threads switch scoreboards mid-run, dissolving
// every detected cluster; the engine must notice the returning remote
// stalls, re-enter detection, and migrate the new clusters together.
func PhaseChange(ctx context.Context, opt Options) (PhaseChangeResult, error) {
	arena := memory.NewDefaultArena()
	wcfg := workloads.DefaultSyntheticConfig()
	wcfg.Seed = opt.Seed

	// Shift roughly in the middle of the run. Each thread executes about
	// quantum/avgCost references per round and holds a CPU half the time
	// (16 threads, 8 CPUs).
	totalRounds := opt.WarmRounds + 2*opt.EngineRounds + opt.MeasureRounds
	shiftRefs := uint64(totalRounds) * opt.QuantumCycles / 2 / 40
	spec, err := workloads.NewSyntheticWithPhaseChange(arena, wcfg, shiftRefs)
	if err != nil {
		return PhaseChangeResult{}, err
	}
	m, err := newMachine(MachineConfig(opt, sched.PolicyClustered), spec)
	if err != nil {
		return PhaseChangeResult{}, err
	}
	eng, err := installScaledEngine(m, opt)
	if err != nil {
		return PhaseChangeResult{}, err
	}

	res := PhaseChangeResult{Timeline: stats.Series{Label: "remote-stall fraction"}}
	const window = 50 // rounds per observation window
	var lastCycles, lastRemote uint64
	shifted := false
	shiftRound := -1
	for round := 0; round < totalRounds; round += window {
		if err := m.RunRoundsCtx(ctx, window); err != nil {
			return res, err
		}
		b := m.Breakdown()
		frac := stats.Ratio(float64(b.RemoteStalls()-lastRemote), float64(b.Cycles-lastCycles))
		lastCycles, lastRemote = b.Cycles, b.RemoteStalls()
		res.Timeline.Add(float64(round+window), frac)

		if !shifted && m.Threads()[0].Insts > 0 {
			// Detect the shift by thread progress (refs ~ insts/11).
			if m.Threads()[0].Insts/11 >= shiftRefs {
				shifted = true
				shiftRound = round
				res.BeforeShift = frac
			}
		}
		if shifted && frac > res.PeakAfterShift {
			res.PeakAfterShift = frac
		}
	}
	if shiftRound < 0 {
		return res, fmt.Errorf("experiments: phase shift never happened; tune shiftRefs")
	}
	n := len(res.Timeline.Points)
	res.FinalFraction = res.Timeline.Points[n-1].Y
	res.Activations = eng.Activations()

	truth := make(map[clustering.ThreadKey]int)
	for id, p := range workloads.SecondPhaseTruth(wcfg) {
		truth[clustering.ThreadKey(id)] = p
	}
	res.SecondPhasePurity = clustering.Purity(eng.Clusters(), truth)
	return res, nil
}

// Table renders the phase-change study.
func (r PhaseChangeResult) Table() *stats.Table {
	t := stats.NewTable("Section 4.1: adaptation to a sharing phase change (microbenchmark)",
		"Quantity", "Value")
	t.AddRow("remote stalls before shift", stats.Pct(r.BeforeShift))
	t.AddRow("peak after shift", stats.Pct(r.PeakAfterShift))
	t.AddRow("after re-clustering", stats.Pct(r.FinalFraction))
	t.AddRow("detection activations", fmt.Sprintf("%d", r.Activations))
	t.AddRow("second-phase cluster purity", fmt.Sprintf("%.2f", r.SecondPhasePurity))
	return t
}
