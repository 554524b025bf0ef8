package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"threadcluster/internal/cache"
	"threadcluster/internal/clustering"
	"threadcluster/internal/core"
	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/workloads"
)

// machineRun is one measured machine: the steps of
// experiments.RunWorkload (build the workload, build the machine,
// install the workload, optionally attach and install the clustering
// engine, warm, reset, measure, snapshot the interval), called one
// public function at a time so each can be timed from outside.
type machineRun struct {
	name   string
	build  func(seed int64) (*workloads.Spec, error)
	opt    experiments.Options
	policy sched.Policy
	engine bool
}

// machineResult is what one machineRun yields.
type machineResult struct {
	// Host time of the set-up calls, and their total.
	build, newMachine, install, setup time.Duration
	// rounds holds every RunRoundsCtx(ctx, 1) call's host time.
	rounds []time.Duration
	// refs counts simulated references over all rounds; whole is the
	// registry at the end of the run (cumulative series).
	refs  uint64
	whole metrics.Snapshot
	// measured is the measured interval's registry delta, and digest its
	// canonical hash.
	measured metrics.Snapshot
	digest   string
	// Simulated headline numbers over the measured interval.
	opsPerMCycle float64
	remoteStalls uint64
	// Whole-run counts behind the per-layer metrics.
	overheadCycles, pmuCycles uint64
	detectRounds              int
	activations, migrations   uint64
	samplesRead, admitted     int
	purity                    float64
	clustersKnown             bool
	snapshotTime              time.Duration
	// engine records whether the clustering engine was attached.
	engine bool
	// failures lists every output check this machine failed.
	failures []string
}

// setUp builds the workload and the machine, installs the workload and,
// when asked, the clustering engine: everything before the first round.
// tr, when non-nil, attaches the traced run's observers; they time host
// work and never change the simulation.
func (r machineRun) setUp(tr *tracer) (*sim.Machine, *core.Engine, *workloads.Spec, *machineResult, error) {
	res := &machineResult{engine: r.engine}
	start := now()
	spec, err := r.build(r.opt.Seed)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: building workload: %w", r.name, err)
	}
	res.build = since(start)

	mcfg := sim.DefaultConfig()
	mcfg.Engine = r.opt.Engine
	mcfg.Topo = r.opt.Topo
	mcfg.Policy = r.policy
	mcfg.QuantumCycles = r.opt.QuantumCycles
	mcfg.Seed = r.opt.Seed
	mcfg.Caches.Coherence = r.opt.Coherence
	t := now()
	m, err := sim.NewMachine(mcfg)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: %w", r.name, err)
	}
	res.newMachine = since(t)

	if tr != nil {
		tr.wrapGenerators(spec)
	}
	t = now()
	if err := spec.Install(m); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: %w", r.name, err)
	}
	var eng *core.Engine
	if r.engine {
		cfg, err := experiments.EngineConfigFor(r.opt)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s: %w", r.name, err)
		}
		if eng, err = core.New(m, cfg); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s: %w", r.name, err)
		}
		if tr != nil {
			m.OnTick(tr.beforeEngineTick)
		}
		if err := eng.Install(); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s: %w", r.name, err)
		}
		if tr != nil {
			m.OnTick(tr.afterEngineTick)
			eng.OnClusters(tr.onClusters)
		}
	}
	res.install = since(t)
	res.setup = since(start)
	return m, eng, spec, res, nil
}

// run sets the machine up, then drives it through the warm, engine and
// measure phases one timed round at a time.
func (r machineRun) run(ctx context.Context, tr *tracer) (*machineResult, error) {
	m, eng, spec, res, err := r.setUp(tr)
	if err != nil {
		return nil, err
	}
	total := r.opt.WarmRounds + r.opt.EngineRounds + r.opt.MeasureRounds
	res.rounds = make([]time.Duration, 0, total)
	runRounds := func(n int) error {
		for i := 0; i < n; i++ {
			if eng != nil && eng.Phase() == core.PhaseDetecting {
				res.detectRounds++
			}
			t := now()
			if err := m.RunRoundsCtx(ctx, 1); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			res.rounds = append(res.rounds, since(t))
		}
		return nil
	}
	if err := runRounds(r.opt.WarmRounds + r.opt.EngineRounds); err != nil {
		return nil, err
	}
	pre := m.Breakdown()
	res.overheadCycles, res.pmuCycles = m.OverheadCycles(), pre.Cycles
	m.ResetMetrics()
	t := now()
	base := m.SnapshotMetrics()
	res.snapshotTime = since(t)
	if err := runRounds(r.opt.MeasureRounds); err != nil {
		return nil, err
	}
	t = now()
	res.whole = m.SnapshotMetrics()
	res.measured = res.whole.Delta(base)
	res.snapshotTime += since(t)

	b := m.Breakdown()
	res.remoteStalls = b.RemoteStalls()
	if b.Cycles > 0 {
		res.opsPerMCycle = float64(m.TotalOps()) / (float64(b.Cycles) / 1e6)
	}
	res.overheadCycles += m.OverheadCycles()
	res.pmuCycles += b.Cycles
	res.refs = sumAccesses(res.whole)
	if res.digest, err = snapshotDigest(res.measured); err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	if eng != nil {
		res.activations = eng.Activations()
		res.migrations = eng.MigrationsDone()
		res.samplesRead = eng.SamplesRead()
		res.admitted = eng.SamplesAdmitted()
		if cl := eng.Clusters(); len(cl) > 0 {
			truth := make(map[clustering.ThreadKey]int)
			for id, part := range spec.Truth() {
				truth[clustering.ThreadKey(id)] = part
			}
			res.purity = clustering.Purity(cl, truth)
			res.clustersKnown = true
		}
	}
	res.failures = conservationFailures(r.name, m, res.measured)
	return res, nil
}

// conservationFailures checks the two accounting laws every machine
// obeys over the measured interval: per-thread cycles sum to the PMU
// cycle count, and per-thread remote misses sum to the remote-L2 plus
// remote-L3 accesses the cache hierarchy attributed.
func conservationFailures(name string, m *sim.Machine, measured metrics.Snapshot) []string {
	var cycles, remote uint64
	for _, t := range m.Threads() {
		cycles += t.Cycles
		remote += t.RemoteMisses
	}
	var out []string
	if pmu := measured.Counter(sim.MetricPMUCycles, nil); cycles != pmu {
		out = append(out, fmt.Sprintf("%s: thread cycles %d != %s %d", name, cycles, sim.MetricPMUCycles, pmu))
	}
	hier := sourceCount(measured, cache.SrcRemoteL2) + sourceCount(measured, cache.SrcRemoteL3)
	if remote != hier {
		out = append(out, fmt.Sprintf("%s: thread remote misses %d != remote-L2+remote-L3 accesses %d", name, remote, hier))
	}
	return out
}

func sourceCount(s metrics.Snapshot, src cache.Source) uint64 {
	return s.Counter(sim.MetricCacheAccesses, metrics.Labels{"source": src.String()})
}

// sumAccesses is Σ cache_accesses_total over every source: one per
// simulated memory reference.
func sumAccesses(s metrics.Snapshot) uint64 {
	var n uint64
	for src := 0; src < cache.NumSources; src++ {
		n += sourceCount(s, cache.Source(src))
	}
	return n
}

// snapshotDigest hashes a snapshot's canonical JSON (series are sorted
// and label maps marshal with sorted keys).
func snapshotDigest(s metrics.Snapshot) (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("digesting snapshot: %w", err)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(data)), nil
}
