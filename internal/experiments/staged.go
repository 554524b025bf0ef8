package experiments

import (
	"context"
	"fmt"
	"sort"

	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/workloads"
)

// StagedResult is the chain-topology study's outcome.
type StagedResult struct {
	// DefaultRemote / ClusteredRemote are remote-stall fractions.
	DefaultRemote   float64
	ClusteredRemote float64
	// DefaultOps / ClusteredOps are events processed in the measured
	// interval.
	DefaultOps   uint64
	ClusteredOps uint64
	// StageChips maps each pipeline stage to the chips its threads ended
	// on (majority chip per stage, in stage order).
	StageChips []int
	// ContiguousCut reports whether the final placement is a contiguous
	// cut of the pipeline (adjacent stages grouped), the minimum-traffic
	// arrangement.
	ContiguousCut bool
}

// Staged runs the SEDA-style pipeline workload: sharing forms a chain
// (stage i shares a queue with stages i-1 and i+1) instead of disjoint
// groups, so the ideal 2-chip placement is a minimum cut — front half of
// the pipeline on one chip, back half on the other. The study checks that
// the clustering engine, built around disjoint sharing groups, still
// reduces cross-chip traffic on chain-structured sharing.
func Staged(ctx context.Context, opt Options) (StagedResult, *stats.Table, error) {
	run := func(policy sched.Policy) (RunMetrics, *sim.Machine, *workloads.Spec, error) {
		wcfg := workloads.DefaultStagedConfig()
		wcfg.Seed = opt.Seed
		spec, err := workloads.NewStaged(memory.NewDefaultArena(), wcfg)
		if err != nil {
			return RunMetrics{}, nil, nil, err
		}
		r, m, err := runSpec(ctx, "staged", spec, policy, policy == sched.PolicyClustered, opt)
		return r, m, spec, err
	}

	var res StagedResult
	def, _, _, err := run(sched.PolicyDefault)
	if err != nil {
		return res, nil, err
	}
	res.DefaultRemote, res.DefaultOps = def.RemoteFraction, def.Ops
	cl, m, spec, err := run(sched.PolicyClustered)
	if err != nil {
		return res, nil, err
	}
	res.ClusteredRemote, res.ClusteredOps = cl.RemoteFraction, cl.Ops

	// Majority chip per stage, in stage order.
	wcfg := workloads.DefaultStagedConfig()
	res.StageChips = make([]int, wcfg.Stages)
	for stage := 0; stage < wcfg.Stages; stage++ {
		votes := map[int]int{}
		for _, th := range spec.Threads {
			if th.Partition != stage {
				continue
			}
			if chip, ok := m.Scheduler().ChipOf(th.ID); ok {
				votes[chip]++
			}
		}
		best, bestN := 0, -1
		chips := make([]int, 0, len(votes))
		for c := range votes {
			chips = append(chips, c)
		}
		sort.Ints(chips)
		for _, c := range chips {
			if votes[c] > bestN {
				best, bestN = c, votes[c]
			}
		}
		res.StageChips[stage] = best
	}
	// A contiguous cut changes chip at most Chips-1 times along the
	// pipeline.
	changes := 0
	for i := 1; i < len(res.StageChips); i++ {
		if res.StageChips[i] != res.StageChips[i-1] {
			changes++
		}
	}
	res.ContiguousCut = changes <= opt.Topo.Chips-1

	t := stats.NewTable("Chain-topology study: SEDA-style staged pipeline",
		"Configuration", "Remote stalls", "Events processed")
	t.AddRow("default", stats.Pct(res.DefaultRemote), fmt.Sprintf("%d", res.DefaultOps))
	t.AddRow("clustered", stats.Pct(res.ClusteredRemote), fmt.Sprintf("%d", res.ClusteredOps))
	t.AddRow("stage->chip", fmt.Sprintf("%v", res.StageChips),
		fmt.Sprintf("contiguous cut: %v", res.ContiguousCut))
	return res, t, nil
}
