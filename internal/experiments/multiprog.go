package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/core"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/workloads"
)

// multiprogOffset separates the second process's thread ids.
const multiprogOffset = 1000

// MultiprogResult is the multiprogrammed-environment study's outcome:
// two independent server processes (a VolanoMark chat server and a
// SPECjbb application server) time-share one machine — the "dynamic
// nature of multiprogrammed computing environments" the paper's
// introduction says manual clustering cannot handle.
type MultiprogResult struct {
	// DefaultRemoteFraction / ClusteredRemoteFraction are machine-wide.
	DefaultRemoteFraction   float64
	ClusteredRemoteFraction float64
	// Per-process throughput (ops in the measured interval).
	DefaultOps   [2]uint64
	ClusteredOps [2]uint64
	// CrossProcessClusters counts detected clusters containing threads of
	// both processes — must be zero (threads of different processes never
	// share memory).
	CrossProcessClusters int
	// Clusters is the engine's final cluster count.
	Clusters int
}

// Multiprogrammed runs the two-process study under default placement and
// under the engine with per-process shMap filters.
func Multiprogrammed(ctx context.Context, opt Options) (MultiprogResult, *stats.Table, error) {
	var res MultiprogResult

	run := func(withEngine bool) (float64, [2]uint64, *core.Engine, error) {
		m, specs, err := buildMultiprog(opt, withEngine)
		if err != nil {
			return 0, [2]uint64{}, nil, err
		}
		var eng *core.Engine
		if withEngine {
			ecfg := ScaledEngineConfig(opt.Seed)
			ecfg.ProcessOf = func(id sched.ThreadID) int {
				if int(id) >= multiprogOffset {
					return 1
				}
				return 0
			}
			if eng, err = installEngine(m, ecfg); err != nil {
				return 0, [2]uint64{}, nil, err
			}
		}
		if _, err := measure(ctx, m, opt); err != nil {
			return 0, [2]uint64{}, nil, err
		}
		var ops [2]uint64
		for _, spec := range specs {
			for _, th := range spec.Threads {
				proc := 0
				if int(th.ID) >= multiprogOffset {
					proc = 1
				}
				ops[proc] += th.Ops
			}
		}
		return m.Breakdown().RemoteFraction(), ops, eng, nil
	}

	var err error
	if res.DefaultRemoteFraction, res.DefaultOps, _, err = run(false); err != nil {
		return res, nil, err
	}
	var eng *core.Engine
	if res.ClusteredRemoteFraction, res.ClusteredOps, eng, err = run(true); err != nil {
		return res, nil, err
	}
	res.Clusters = len(eng.Clusters())
	for _, c := range eng.Clusters() {
		procs := map[bool]bool{}
		for _, tk := range c.Members {
			procs[int(tk) >= multiprogOffset] = true
		}
		if len(procs) > 1 {
			res.CrossProcessClusters++
		}
	}

	t := stats.NewTable("Multiprogrammed study: VolanoMark + SPECjbb sharing one machine",
		"Configuration", "Remote stalls", "volano ops", "specjbb ops")
	t.AddRow("default", stats.Pct(res.DefaultRemoteFraction),
		fmt.Sprintf("%d", res.DefaultOps[0]), fmt.Sprintf("%d", res.DefaultOps[1]))
	t.AddRow("clustered", stats.Pct(res.ClusteredRemoteFraction),
		fmt.Sprintf("%d", res.ClusteredOps[0]), fmt.Sprintf("%d", res.ClusteredOps[1]))
	t.AddRow("cross-process clusters", fmt.Sprintf("%d", res.CrossProcessClusters), "-", "-")
	return res, t, nil
}

func buildMultiprog(opt Options, withEngine bool) (*sim.Machine, []*workloads.Spec, error) {
	// One arena for both processes: the arena is the machine's physical
	// address space, and the caches are physically indexed. Two specs on
	// one machine must therefore carve disjoint ranges out of the same
	// arena — two separate arenas would alias the same lines.
	arena := memory.NewDefaultArena()
	vcfg := workloads.DefaultVolanoConfig()
	vcfg.ClientsPerRoom = 4 // 16 threads, leave room for the second process
	vcfg.Seed = opt.Seed
	volano, err := workloads.NewVolano(arena, vcfg)
	if err != nil {
		return nil, nil, err
	}
	jcfg := workloads.DefaultJBBConfig()
	jcfg.Seed = opt.Seed + 1
	jbb, err := workloads.NewJBB(arena, jcfg)
	if err != nil {
		return nil, nil, err
	}
	jbb.Renumber(multiprogOffset)

	policy := sched.PolicyDefault
	if withEngine {
		policy = sched.PolicyClustered
	}
	specs := []*workloads.Spec{volano, jbb}
	m, err := newMachine(MachineConfig(opt, policy), specs...)
	if err != nil {
		return nil, nil, err
	}
	return m, specs, nil
}
