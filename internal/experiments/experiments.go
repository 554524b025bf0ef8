// Package experiments contains one harness per table and figure of the
// paper's evaluation (Section 6, plus the Section 7.4 scaling result and
// a Section 5.2.1 validation). Each harness builds the simulated machine,
// runs the workload under the placement policies being compared, and
// returns the same rows/series the paper reports.
//
// The simulations are scaled relative to the paper's hardware runs — the
// monitoring window, sample target and run lengths are divided down so a
// full experiment takes seconds, not minutes — but every scaling constant
// is in one place (ScaledEngineConfig and DefaultOptions) and documented
// in EXPERIMENTS.md. What must be preserved is the *shape* of each result:
// who wins, roughly by how much, and where the trade-off knees fall.
package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/cache"
	"threadcluster/internal/clustering"
	"threadcluster/internal/core"
	"threadcluster/internal/memory"
	"threadcluster/internal/metrics"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/sweep"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// Workload names accepted by the harnesses.
const (
	Microbenchmark = "microbenchmark"
	Volano         = "volano"
	JBB            = "specjbb"
	Rubis          = "rubis"
)

// AllWorkloads lists every buildable workload.
func AllWorkloads() []string { return []string{Microbenchmark, Volano, JBB, Rubis} }

// ServerWorkloads lists the three commercial workloads of Figures 6 and 7.
func ServerWorkloads() []string { return []string{Volano, JBB, Rubis} }

// Options are the common knobs of an experiment run.
type Options struct {
	// Topo is the machine shape (default: the OpenPower 720).
	Topo topology.Topology
	// Seed drives every source of randomness.
	Seed int64
	// QuantumCycles is the scheduling quantum.
	QuantumCycles uint64
	// WarmRounds run before measurement to fill caches and settle
	// placement.
	WarmRounds int
	// EngineRounds run additionally (before measurement) when the
	// clustering engine is attached, giving it time to detect and migrate.
	EngineRounds int
	// MeasureRounds is the measured interval.
	MeasureRounds int
	// Coherence selects the cache-coherence implementation (zero value:
	// the directory fast path). Per-access results are differentially
	// tested to be identical; note that multi-chip directory machines
	// additionally run the deferred slice-barrier execution model, so
	// switching to broadcast can shift multi-chip numbers (it forces the
	// serial immediate-coherence loop).
	Coherence cache.CoherenceMode
	// Engine selects the execution engine driving eligible rounds (zero
	// value: chip-parallel). Both engines are differentially tested to be
	// byte-identical; this is purely a speed/debugging knob.
	Engine sim.Engine
	// ClusterMode selects how the clustering engine turns each detection
	// into a partition: "" or "batch" is the paper's from-scratch one-pass;
	// "dense" and "sketch" attach the incremental clusterer (retained
	// vectors or fixed-size sketches) with the default drift detector, so
	// stable detections are absorbed as deltas instead of reclustered.
	ClusterMode string
}

// DefaultOptions returns the scaled defaults used by the CLI and benches.
func DefaultOptions() Options {
	return Options{
		Topo:          topology.OpenPower720(),
		Seed:          1,
		QuantumCycles: 20_000,
		WarmRounds:    200,
		EngineRounds:  2600,
		MeasureRounds: 400,
	}
}

// ScaledEngineConfig returns the paper's engine parameters scaled to the
// simulation:
//
//   - the 20%-per-billion-cycles activation rule becomes 5% per 200k
//     cycles (our workloads' remote-stall share sits in the 5-20% band
//     the paper targets, and windows must fit the shortened runs);
//   - the one-million-sample target becomes 40k samples, and the
//     similarity threshold scales with it: the dot product grows
//     quadratically in per-thread sample counts, so 40000 at 10^6 samples
//     corresponds to a few hundred at 4*10^4 (see EXPERIMENTS.md);
//   - the temporal sampling interval drops from 10 to 5, which the paper
//     itself allows — N is adjusted online "taking into account the
//     frequency of remote cache accesses and the runtime overhead".
func ScaledEngineConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.MonitorWindow = 200_000
	cfg.ActivationFraction = 0.05
	cfg.TargetSamples = 40_000
	cfg.SamplingInterval = 5
	cfg.Clustering.Threshold = 500
	cfg.Seed = seed
	return cfg
}

// EngineConfigFor is ScaledEngineConfig with the Options' cluster mode
// applied: "batch" (or empty) leaves the from-scratch one-pass, "dense"
// and "sketch" attach the incremental clusterer in the matching
// representation.
func EngineConfigFor(opt Options) (core.Config, error) {
	cfg := ScaledEngineConfig(opt.Seed)
	if opt.ClusterMode == "" || opt.ClusterMode == "batch" {
		return cfg, nil
	}
	mode, err := clustering.ParseMode(opt.ClusterMode)
	if err != nil {
		return core.Config{}, fmt.Errorf("experiments: cluster mode: %w", err)
	}
	scfg := clustering.DefaultEngineConfig()
	scfg.Mode = mode
	cfg.Streaming = &scfg
	return cfg, nil
}

// MachineConfig is the one place Options become a machine description:
// it copies the execution engine, topology, quantum, seed and coherence
// mode into sim.DefaultConfig and sets the placement policy. Harnesses
// that study a machine variant (NUMA latencies, shrunk caches, SMT
// contention) edit fields of the returned config; none replaces Caches
// wholesale, so the coherence mode always survives.
func MachineConfig(opt Options, policy sched.Policy) sim.Config {
	mcfg := sim.DefaultConfig()
	mcfg.Engine = opt.Engine
	mcfg.Topo = opt.Topo
	mcfg.Policy = policy
	mcfg.QuantumCycles = opt.QuantumCycles
	mcfg.Seed = opt.Seed
	mcfg.Caches.Coherence = opt.Coherence
	return mcfg
}

// newMachine builds a machine from mcfg and installs the specs in order.
func newMachine(mcfg sim.Config, specs ...*workloads.Spec) (*sim.Machine, error) {
	m, err := sim.NewMachine(mcfg)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if err := spec.Install(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// installEngine builds a clustering engine from cfg and installs it on m.
func installEngine(m *sim.Machine, cfg core.Config) (*core.Engine, error) {
	eng, err := core.New(m, cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Install(); err != nil {
		return nil, err
	}
	return eng, nil
}

// installScaledEngine installs an engine with the scaled paper
// parameters and the Options' cluster mode (EngineConfigFor).
func installScaledEngine(m *sim.Machine, opt Options) (*core.Engine, error) {
	cfg, err := EngineConfigFor(opt)
	if err != nil {
		return nil, err
	}
	return installEngine(m, cfg)
}

// measure runs the warm-up (WarmRounds+EngineRounds), resets the
// machine's metrics and runs the measured interval, returning the
// metrics delta over that interval. Every policy warms for the same
// total rounds so that measurement windows are time-aligned: the
// workloads' data structures grow as they run (B-trees gain nodes), and
// comparing a young run against an old one would confound placement
// effects with workload age.
func measure(ctx context.Context, m *sim.Machine, opt Options) (metrics.Snapshot, error) {
	if err := m.RunRoundsCtx(ctx, opt.WarmRounds+opt.EngineRounds); err != nil {
		return metrics.Snapshot{}, err
	}
	m.ResetMetrics()
	base := m.SnapshotMetrics()
	if err := m.RunRoundsCtx(ctx, opt.MeasureRounds); err != nil {
		return metrics.Snapshot{}, err
	}
	return m.SnapshotMetrics().Delta(base), nil
}

// ControlledEngineConfig is ScaledEngineConfig with the activation
// threshold effectively disabled, for harnesses that drive the detection
// phase explicitly via ForceDetection (Figures 5 and 8, the spatial and
// ablation studies). Without this, a workload sharing heavily enough to
// self-activate during warm-up would start detection at an uncontrolled
// time.
func ControlledEngineConfig(seed int64) core.Config {
	cfg := ScaledEngineConfig(seed)
	cfg.ActivationFraction = 10 // never self-activate
	return cfg
}

// detectionSnapshot is the state of one completed detection phase,
// captured at clustering time (before the engine resets anything for a
// later re-activation).
type detectionSnapshot struct {
	clusters []clustering.Cluster
	shmaps   map[clustering.ThreadKey]*clustering.ShMap
}

// forceDetectionAndWait forces the engine into a fresh detection phase and
// runs the machine until that detection completes, returning a snapshot of
// the resulting clusters and shMaps. Using the OnClusters hook (fired at
// clustering time) avoids racing with a subsequent re-activation that
// would reset the shMaps.
func forceDetectionAndWait(ctx context.Context, m *sim.Machine, eng *core.Engine, maxRounds int) (*detectionSnapshot, error) {
	var snap *detectionSnapshot
	eng.OnClusters(func(clusters []clustering.Cluster) {
		if snap != nil {
			return // keep the first (forced) detection's result
		}
		s := &detectionSnapshot{
			clusters: append([]clustering.Cluster{}, clusters...),
			shmaps:   make(map[clustering.ThreadKey]*clustering.ShMap, len(eng.ShMaps())),
		}
		for k, v := range eng.ShMaps() {
			s.shmaps[k] = v.Clone()
		}
		snap = s
	})
	eng.ForceDetection()
	for r := 0; r < maxRounds && snap == nil; r += 20 {
		if err := m.RunRoundsCtx(ctx, 20); err != nil {
			return nil, err
		}
	}
	if snap == nil {
		return nil, fmt.Errorf("experiments: detection did not complete within %d rounds", maxRounds)
	}
	return snap, nil
}

// BuildWorkload constructs a workload spec by name on a fresh arena.
func BuildWorkload(name string, seed int64) (*workloads.Spec, error) {
	arena := memory.NewDefaultArena()
	switch name {
	case Microbenchmark:
		cfg := workloads.DefaultSyntheticConfig()
		cfg.Seed = seed
		return workloads.NewSynthetic(arena, cfg)
	case Volano:
		cfg := workloads.DefaultVolanoConfig()
		cfg.Seed = seed
		return workloads.NewVolano(arena, cfg)
	case JBB:
		cfg := workloads.DefaultJBBConfig()
		cfg.Seed = seed
		return workloads.NewJBB(arena, cfg)
	case Rubis:
		cfg := workloads.DefaultRubisConfig()
		cfg.Seed = seed
		return workloads.NewRubis(arena, cfg)
	}
	return nil, fmt.Errorf("experiments: unknown workload %q", name)
}

// RunMetrics is what one measured run yields.
type RunMetrics struct {
	Workload string
	Policy   sched.Policy
	// Breakdown is the machine-wide CPI stack over the measured interval.
	Breakdown pmu.Breakdown
	// RemoteStalls is the remote-access stall cycle count.
	RemoteStalls uint64
	// RemoteFraction is RemoteStalls / Cycles.
	RemoteFraction float64
	// Ops is application operations completed in the measured interval.
	Ops uint64
	// OpsPerMCycle is throughput normalized to a million machine cycles.
	OpsPerMCycle float64
	// Engine carries engine statistics when the engine was attached.
	Engine *EngineStats
	// Metrics is the machine's structured metrics delta over the measured
	// interval: per-source cache attribution, scheduler activity, the CPI
	// stack and (when attached) engine series.
	Metrics metrics.Snapshot
}

// EngineStats summarizes the clustering engine's work during a run.
type EngineStats struct {
	Activations     uint64
	Migrations      uint64
	Clusters        int
	SamplesRead     int
	SamplesAdmitted int
	DetectionCycles uint64
	OverheadCycles  uint64
}

// RunWorkload measures one workload under one policy, optionally with the
// clustering engine attached (policy should then be PolicyClustered).
func RunWorkload(ctx context.Context, name string, policy sched.Policy, withEngine bool, opt Options) (RunMetrics, *sim.Machine, error) {
	spec, err := BuildWorkload(name, opt.Seed)
	if err != nil {
		return RunMetrics{}, nil, err
	}
	return runSpec(ctx, name, spec, policy, withEngine, opt)
}

// runSpec is RunWorkload for an already-built spec: one machine from
// MachineConfig, the optional scaled engine, then measure.
func runSpec(ctx context.Context, name string, spec *workloads.Spec, policy sched.Policy, withEngine bool, opt Options) (RunMetrics, *sim.Machine, error) {
	m, err := newMachine(MachineConfig(opt, policy), spec)
	if err != nil {
		return RunMetrics{}, nil, err
	}
	var eng *core.Engine
	if withEngine {
		if eng, err = installScaledEngine(m, opt); err != nil {
			return RunMetrics{}, nil, err
		}
	}
	delta, err := measure(ctx, m, opt)
	if err != nil {
		return RunMetrics{}, nil, err
	}

	b := m.Breakdown()
	res := RunMetrics{
		Workload:       name,
		Policy:         policy,
		Breakdown:      b,
		RemoteStalls:   b.RemoteStalls(),
		RemoteFraction: b.RemoteFraction(),
		Ops:            m.TotalOps(),
		Metrics:        delta,
	}
	if b.Cycles > 0 {
		res.OpsPerMCycle = float64(res.Ops) / (float64(b.Cycles) / 1e6)
	}
	if eng != nil {
		res.Engine = &EngineStats{
			Activations:     eng.Activations(),
			Migrations:      eng.MigrationsDone(),
			Clusters:        len(eng.Clusters()),
			SamplesRead:     eng.SamplesRead(),
			SamplesAdmitted: eng.SamplesAdmitted(),
			DetectionCycles: eng.LastDetectionCycles(),
			OverheadCycles:  m.OverheadCycles(),
		}
	}
	return res, m, nil
}

// PolicyRuns measures one workload under all four placement strategies of
// Section 5.4 and returns the metrics keyed by policy. The four runs are
// completely independent machines, so they execute on the sweep worker
// pool; each machine's simulation remains single-goroutine and
// deterministic.
func PolicyRuns(ctx context.Context, name string, opt Options) (map[sched.Policy]RunMetrics, error) {
	policies := []sched.Policy{
		sched.PolicyDefault, sched.PolicyRoundRobin,
		sched.PolicyHandOptimized, sched.PolicyClustered,
	}
	results, err := sweep.Map(ctx, len(policies), 0,
		func(ctx context.Context, i int) (RunMetrics, error) {
			pol := policies[i]
			withEngine := pol == sched.PolicyClustered
			r, _, err := RunWorkload(ctx, name, pol, withEngine, opt)
			return r, err
		})
	if err != nil {
		return nil, err
	}
	out := make(map[sched.Policy]RunMetrics, len(policies))
	for i, pol := range policies {
		out[pol] = results[i]
	}
	return out, nil
}
