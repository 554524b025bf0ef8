package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"threadcluster/internal/experiments"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// setupReps is how many extra set-ups (no rounds) a run times besides
// the ones each iteration does, so set-up time is a median of many.
const setupReps = 30

// simWorkload runs one default-policy machine and one clustered-policy
// machine with the engine attached, each through the warm -> engine ->
// measure phases of experiments.RunWorkload.
type simWorkload struct {
	topo  func() topology.Topology
	build func(seed int64) (*workloads.Spec, error)
	// Phase lengths in rounds. The engine phase is long enough for the
	// engine to detect and migrate on every seed tried, so the measured
	// interval shows the clustered placement.
	warm, engine, measure int
}

// volano720 is the VolanoMark analogue on the 8-way OpenPower 720.
var volano720 = simWorkload{
	topo: topology.OpenPower720,
	build: func(seed int64) (*workloads.Spec, error) {
		return experiments.BuildWorkload(experiments.Volano, seed)
	},
	warm: 100, engine: 1200, measure: 200,
}

// jbb32 is the Section 7.4 SPECjbb analogue on the 8-chip Power5
// 32-way, built as experiments.Scale32 builds it: 8 warehouses x 8
// threads.
var jbb32 = simWorkload{
	topo: topology.Power5_32Way,
	build: func(seed int64) (*workloads.Spec, error) {
		cfg := workloads.DefaultJBBConfig()
		cfg.Warehouses = 8
		cfg.ThreadsPerWarehouse = 8
		cfg.Seed = seed
		return workloads.NewJBB(memory.NewDefaultArena(), cfg)
	},
	warm: 10, engine: 300, measure: 40,
}

// machines returns the default and the clustered machine of one
// iteration.
func (w simWorkload) machines(seed int64) []machineRun {
	opt := experiments.DefaultOptions()
	opt.Topo = w.topo()
	opt.Seed = seed
	opt.WarmRounds, opt.EngineRounds, opt.MeasureRounds = w.warm, w.engine, w.measure
	return []machineRun{
		{name: "default", build: w.build, opt: opt, policy: sched.PolicyDefault},
		{name: "clustered", build: w.build, opt: opt, policy: sched.PolicyClustered, engine: true},
	}
}

// simIter is one iteration: both machines, run back to back.
type simIter struct {
	def, cl *machineResult
	wall    time.Duration
	mallocs uint64
	// Simulated headlines: remote-stall cycles removed and ops/Mcycle
	// gained by clustered over default, in percent.
	cut, gain float64
}

func (it *simIter) refs() uint64 { return it.def.refs + it.cl.refs }

// busy is the host time spent inside RunRoundsCtx on both machines.
func (it *simIter) busy() time.Duration {
	var d time.Duration
	for _, r := range []*machineResult{it.def, it.cl} {
		for _, x := range r.rounds {
			d += x
		}
	}
	return d
}

// iterate runs both machines. Each starts from a collected heap, so
// neither finds the other's garbage in the heap or in peak RSS; the
// collections are not part of the timed iteration.
func (w simWorkload) iterate(ctx context.Context, seed int64, tr *tracer) (*simIter, error) {
	it := &simIter{}
	for i, mr := range w.machines(seed) {
		runtime.GC()
		m0 := mallocs()
		start := now()
		r, err := mr.run(ctx, tr)
		if err != nil {
			return nil, err
		}
		it.wall += since(start)
		it.mallocs += mallocs() - m0
		if i == 0 {
			it.def = r
		} else {
			it.cl = r
		}
	}
	it.cut = 100 * (1 - ratio(float64(it.cl.remoteStalls), float64(it.def.remoteStalls)))
	it.gain = 100 * (ratio(it.cl.opsPerMCycle, it.def.opsPerMCycle) - 1)
	return it, nil
}

// check records the iteration's two machine runs as operations, with
// their conservation checks; the clustered run also carries the paper's
// shape and determinism against the run's first iteration.
func (it *simIter) check(o *output, first *simIter) {
	o.op(it.def.failures...)
	clFail := append([]string(nil), it.cl.failures...)
	if !(it.cut > 0) {
		clFail = append(clFail, fmt.Sprintf("remote_cut_pct %.3f, want > 0 (Fig 6 shape)", it.cut))
	}
	if !(it.gain > 0) {
		clFail = append(clFail, fmt.Sprintf("clustered_gain_pct %.3f, want > 0 (Fig 7 shape)", it.gain))
	}
	if first != nil && (it.def.digest != first.def.digest || it.cl.digest != first.cl.digest) {
		clFail = append(clFail, "measured-interval digest differs from the run's first iteration at the same seed")
	}
	o.op(clFail...)
}

// setupOnce times one set-up of both machines, without running them.
func (w simWorkload) setupOnce(seed int64) (time.Duration, error) {
	var d time.Duration
	for _, mr := range w.machines(seed) {
		_, _, _, res, err := mr.setUp(nil)
		if err != nil {
			return 0, err
		}
		d += res.setup
	}
	return d, nil
}

func (w simWorkload) run(ctx context.Context, o *output, seed int64, seconds int, trace bool) error {
	o.printf("phases: warm=%d engine=%d measure=%d rounds per machine; machines per iteration: default, clustered (engine attached)",
		w.warm, w.engine, w.measure)
	if trace {
		return w.traced(ctx, o, seed)
	}
	var setups []float64
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		d, err := w.setupOnce(seed)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	var iters []*simIter
	start := now()
	for len(iters) == 0 || another(since(start), len(iters), seconds) {
		it, err := w.iterate(ctx, seed, nil)
		if err != nil {
			return err
		}
		var first *simIter
		if len(iters) > 0 {
			first = iters[0]
		}
		it.check(o, first)
		iters = append(iters, it)
		setups = append(setups, (it.def.setup + it.cl.setup).Seconds())
	}
	return w.report(o, iters, setups)
}

func (w simWorkload) report(o *output, iters []*simIter, setups []float64) error {
	var refsPerS, walls, p50s, tails, allocs []float64
	tailPct, nRounds := 0.0, 0
	for _, it := range iters {
		refsPerS = append(refsPerS, ratio(float64(it.refs()), it.busy().Seconds()))
		walls = append(walls, it.wall.Seconds())
		allocs = append(allocs, ratio(float64(it.mallocs), float64(it.refs())))
		ms := durationsMS(it.cl.rounds)
		nRounds = len(ms)
		p50s = append(p50s, median(ms))
		if pct, v, ok := tailPercentile(ms); ok {
			tailPct = pct
			tails = append(tails, v)
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	n := len(iters)
	itNote := fmt.Sprintf("median of %d iterations", n)
	o.printf("iterations: %d; wall_s each: %s", n, fmtList(walls, "%.3f"))
	o.metric("refs_per_s", median(refsPerS), "refs/s", itNote+"; Σ cache_accesses_total / host s in RunRoundsCtx")
	o.metric("wall_s", median(walls), "s", itNote+"; set-up through result assembly of both machines, the forced GC before each excluded")
	o.metric("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups of both machines", len(setups)))
	o.metric("round_p50_ms", median(p50s), "ms", fmt.Sprintf("clustered machine, n=%d rounds per iteration, %s", nRounds, itNote))
	if len(tails) > 0 {
		o.metric("round_p99_ms", median(tails), "ms", fmt.Sprintf("p%.1f, the highest percentile with >=%d of %d rounds beyond; %s", tailPct, minTail, nRounds, itNote))
	}
	o.metric("allocs_per_ref", median(allocs), "allocs/ref", itNote+"; MemStats.Mallocs delta / refs")
	o.metric("peak_rss_mb", rss, "MiB", "peak RSS (getrusage maxrss) of this workload's process")
	o.metric("fail_frac", ratio(float64(o.failed), float64(o.attempted)), "fraction", fmt.Sprintf("%d of %d machine runs failed a check", o.failed, o.attempted))
	first := iters[0]
	o.metric("remote_cut_pct", first.cut, "%", "sim, exact at this seed; paper Fig 6: up to 70%")
	o.metric("clustered_gain_pct", first.gain, "%", "sim, exact at this seed; paper Fig 7: up to 7%; paper §7.4: ~14% hand-optimized on 32-way")
	o.printf("note: the model is calibrated to the paper's shape, not its magnitudes (EXPERIMENTS.md); no error figure against the paper is claimed.")
	return nil
}

// traced runs one untraced iteration as the reference, then one traced
// iteration under the CPU profiler, and reports the per-layer split.
func (w simWorkload) traced(ctx context.Context, o *output, seed int64) error {
	plain, err := w.iterate(ctx, seed, nil)
	if err != nil {
		return err
	}
	plain.check(o, nil)
	tr := &tracer{}
	var it *simIter
	u0 := readUsage()
	prof, err := profiled(func() error {
		var err error
		it, err = w.iterate(ctx, seed, tr)
		return err
	})
	if err != nil {
		return err
	}
	u1 := readUsage()
	it.check(o, plain)
	o.printf("traced iteration: %.3f s (untraced %.3f s); measured-interval digests default=%s clustered=%s",
		it.wall.Seconds(), plain.wall.Seconds(), it.def.digest, it.cl.digest)
	machineLayers(o, []*machineResult{it.def, it.cl}, []*tracer{tr})
	if err := profileLayers(o, prof); err != nil {
		return err
	}
	usageLayers(o, u0, u1)
	zeroLayers(o, "no job server or sweep pool on this workload",
		"sweep.cell_p50_s", "sweep.pool_busy_frac", "server.queue_wait_s", "server.payload_bytes",
		"server.events", "client.submit_ms", "client.retries")
	o.metric("trace.overhead_frac", it.wall.Seconds()/plain.wall.Seconds()-1, "fraction", "traced wall_s / untraced wall_s - 1")
	return nil
}

// another reports whether to start one more iteration: only while it
// is expected to end within 10% past the requested seconds.
func another(elapsed time.Duration, done, seconds int) bool {
	next := elapsed + elapsed/time.Duration(done)
	return next <= time.Duration(seconds)*time.Second*11/10
}

// fmtList renders samples for the human-readable lines.
func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// zeroLayers reports layers a workload does not exercise as 0.
func zeroLayers(o *output, why string, names ...string) {
	for _, n := range names {
		o.metric(n, 0, unitOf(n), "n/a: "+why)
	}
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}
