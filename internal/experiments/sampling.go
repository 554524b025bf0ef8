package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/clustering"
	"threadcluster/internal/core"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// Figure8Point is one sweep point of the Figure 8 trade-off.
type Figure8Point struct {
	// RatePercent is the temporal sampling rate: the percentage of remote
	// cache accesses captured (100 / N).
	RatePercent float64
	// OverheadPercent is detection-phase runtime overhead: cycles spent
	// in sampling interrupts as a share of all cycles during detection.
	OverheadPercent float64
	// TrackingCycles is how long the detection phase ran to collect the
	// sample target (the right-hand axis of Figure 8).
	TrackingCycles uint64
}

// Figure8 reproduces Figure 8: the runtime overhead of the sharing
// detection phase and the time needed to collect the sample target, as a
// function of the temporal sampling rate, for SPECjbb. The paper sweeps
// capture rates of 2, 5, 10, 20 and 50 percent (N = 50, 20, 10, 5, 2) and
// finds ~10% to be the balance point.
func Figure8(ctx context.Context, opt Options) ([]Figure8Point, *stats.Table, error) {
	intervals := []uint64{50, 20, 10, 5, 2}
	var points []Figure8Point
	t := stats.NewTable("Figure 8: sampling-rate trade-off (SPECjbb detection phase)",
		"Capture rate", "Overhead", "Tracking cycles")
	for _, n := range intervals {
		p, err := figure8Point(ctx, n, opt)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, p)
		t.AddRow(
			fmt.Sprintf("%.0f%% (1 in %d)", p.RatePercent, n),
			fmt.Sprintf("%.2f%%", p.OverheadPercent),
			fmt.Sprintf("%d", p.TrackingCycles),
		)
	}
	return points, t, nil
}

func figure8Point(ctx context.Context, interval uint64, opt Options) (Figure8Point, error) {
	spec, err := BuildWorkload(JBB, opt.Seed)
	if err != nil {
		return Figure8Point{}, err
	}
	m, err := newMachine(MachineConfig(opt, sched.PolicyClustered), spec)
	if err != nil {
		return Figure8Point{}, err
	}
	cfg := ControlledEngineConfig(opt.Seed)
	cfg.SamplingInterval = interval
	cfg.SamplingJitter = 0 // hold the rate exactly for the sweep
	eng, err := installEngine(m, cfg)
	if err != nil {
		return Figure8Point{}, err
	}
	if err := m.RunRoundsCtx(ctx, opt.WarmRounds); err != nil {
		return Figure8Point{}, err
	}
	m.ResetMetrics()
	eng.ForceDetection()
	for r := 0; r < 200*opt.EngineRounds && eng.Phase() == core.PhaseDetecting; r += 20 {
		if err := m.RunRoundsCtx(ctx, 20); err != nil {
			return Figure8Point{}, err
		}
	}
	if eng.Phase() == core.PhaseDetecting {
		return Figure8Point{}, fmt.Errorf("experiments: detection at interval %d never finished", interval)
	}
	b := m.Breakdown()
	return Figure8Point{
		RatePercent:     100.0 / float64(interval),
		OverheadPercent: 100 * stats.Ratio(float64(m.OverheadCycles()), float64(b.Cycles)),
		TrackingCycles:  eng.LastDetectionCycles(),
	}, nil
}

// SpatialPoint is one row of the Section 6.4 spatial sensitivity study.
type SpatialPoint struct {
	Entries     int
	Clusters    int
	BigClusters int // clusters of at least 2 threads
	Purity      float64
	RandIndex   float64
}

// SpatialSensitivity reproduces Section 6.4: varying the shMap size (128,
// 256, 512 entries) must leave cluster identification essentially
// unchanged.
func SpatialSensitivity(ctx context.Context, opt Options) ([]SpatialPoint, *stats.Table, error) {
	sizes := []int{128, 256, 512}
	var points []SpatialPoint
	t := stats.NewTable("Section 6.4: spatial sampling sensitivity (SPECjbb)",
		"shMap entries", "clusters", ">=2-thread clusters", "purity", "rand index")
	for _, n := range sizes {
		p, err := spatialPoint(ctx, n, opt)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, p)
		t.AddRowf(n, p.Clusters, p.BigClusters, p.Purity, p.RandIndex)
	}
	return points, t, nil
}

func spatialPoint(ctx context.Context, entries int, opt Options) (SpatialPoint, error) {
	spec, err := BuildWorkload(JBB, opt.Seed)
	if err != nil {
		return SpatialPoint{}, err
	}
	m, err := newMachine(MachineConfig(opt, sched.PolicyClustered), spec)
	if err != nil {
		return SpatialPoint{}, err
	}
	cfg := ControlledEngineConfig(opt.Seed)
	cfg.ShMapEntries = entries
	cfg.FilterQuota = entries / 4
	eng, err := installEngine(m, cfg)
	if err != nil {
		return SpatialPoint{}, err
	}
	if err := m.RunRoundsCtx(ctx, opt.WarmRounds); err != nil {
		return SpatialPoint{}, err
	}
	snap, err := forceDetectionAndWait(ctx, m, eng, 40*opt.EngineRounds)
	if err != nil {
		return SpatialPoint{}, fmt.Errorf("experiments: %d entries: %w", entries, err)
	}
	clusters := snap.clusters
	truth := make(map[clustering.ThreadKey]int)
	for _, th := range spec.Threads {
		truth[clustering.ThreadKey(th.ID)] = th.Partition
	}
	big := 0
	for _, c := range clusters {
		if c.Size() >= 2 {
			big++
		}
	}
	return SpatialPoint{
		Entries:     entries,
		Clusters:    len(clusters),
		BigClusters: big,
		Purity:      clustering.Purity(clusters, truth),
		RandIndex:   clustering.RandIndex(clusters, truth),
	}, nil
}

// SDARPurityResult validates the Section 5.2.1 composition.
type SDARPurityResult struct {
	// SamplesRead is how many overflow-triggered register reads happened.
	SamplesRead int
	// TrulyRemote is how many of those reads actually held the address of
	// a remote cache access (checked against simulator ground truth).
	TrulyRemote int
	// Purity is TrulyRemote / SamplesRead. The paper's microbenchmark
	// validation found "almost all" samples to be remote accesses.
	Purity float64
}

// SDARPurity reproduces the Section 5.2.1 validation: program the overflow
// exception on the remote-access event, read the continuous-sampling
// register (which the hardware updates on *every* L1D miss) from the
// handler, and measure what fraction of the sampled addresses were truly
// remote accesses. The synthetic microbenchmark supplies plenty of local
// misses (large private chunks) to stress the technique.
func SDARPurity(ctx context.Context, opt Options) (SDARPurityResult, error) {
	spec, err := BuildWorkload(Microbenchmark, opt.Seed)
	if err != nil {
		return SDARPurityResult{}, err
	}
	// Round-robin scatters sharers: plenty of remote traffic.
	m, err := newMachine(MachineConfig(opt, sched.PolicyRoundRobin), spec)
	if err != nil {
		return SDARPurityResult{}, err
	}
	var res SDARPurityResult
	for c := 0; c < opt.Topo.NumCPUs(); c++ {
		cpu := topology.CPUID(c)
		p := m.PMU(cpu)
		err := p.Program(0, pmu.EvRemoteAccess, 10, func(p *pmu.PMU) uint64 {
			s := p.ReadSDAR()
			if !s.Valid {
				return 0
			}
			res.SamplesRead++
			if s.SDARSourceForValidation().Remote() {
				res.TrulyRemote++
			}
			return 0
		})
		if err != nil {
			return SDARPurityResult{}, err
		}
	}
	if err := m.RunRoundsCtx(ctx, opt.WarmRounds+opt.MeasureRounds); err != nil {
		return SDARPurityResult{}, err
	}
	res.Purity = stats.Ratio(float64(res.TrulyRemote), float64(res.SamplesRead))
	return res, nil
}

// Table renders the SDAR purity result.
func (r SDARPurityResult) Table() *stats.Table {
	t := stats.NewTable("Section 5.2.1: sampled-address purity (microbenchmark)",
		"Samples read", "Truly remote", "Purity")
	t.AddRow(fmt.Sprintf("%d", r.SamplesRead), fmt.Sprintf("%d", r.TrulyRemote), stats.Pct(r.Purity))
	return t
}

// detectedShMaps runs one engine detection on a workload and returns the
// shMaps, ground truth and spec — shared setup for the ablation study.
func detectedShMaps(ctx context.Context, name string, opt Options) (map[clustering.ThreadKey]*clustering.ShMap, map[clustering.ThreadKey]int, *workloads.Spec, error) {
	spec, err := BuildWorkload(name, opt.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := newMachine(MachineConfig(opt, sched.PolicyClustered), spec)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := installEngine(m, ControlledEngineConfig(opt.Seed))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.RunRoundsCtx(ctx, opt.WarmRounds); err != nil {
		return nil, nil, nil, err
	}
	snap, err := forceDetectionAndWait(ctx, m, eng, 40*opt.EngineRounds)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	truth := make(map[clustering.ThreadKey]int)
	for _, th := range spec.Threads {
		truth[clustering.ThreadKey(th.ID)] = th.Partition
	}
	return snap.shmaps, truth, spec, nil
}
