package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"threadcluster/internal/cache"
	tcmetrics "threadcluster/internal/metrics"
	"threadcluster/internal/sim"
)

// machineLayers prints the per-layer metrics the machines themselves
// yield: host time of the set-up calls, rounds and engine ticks
// (measured around public calls), the generators' Next time (traced
// wrappers), and simulated counts read from the machines' registries.
// Cache ratios are over the measured intervals; scheduler and engine
// counts cover whole runs.
func machineLayers(o *output, rs []*machineResult, trs []*tracer) {
	var rounds, detectRounds, engineRounds int
	var refs uint64
	var busy, newMachine, install, build, snapshot time.Duration
	var measured []tcmetrics.Snapshot
	var overhead, pmuCycles, activations, migrations uint64
	var samples, admitted int
	var purity float64
	var purityN int
	var dirPeak float64
	var schedMig, steals uint64
	for _, r := range rs {
		rounds += len(r.rounds)
		refs += r.refs
		for _, d := range r.rounds {
			busy += d
		}
		newMachine += r.newMachine
		install += r.install
		build += r.build
		snapshot += r.snapshotTime
		measured = append(measured, r.measured)
		overhead += r.overheadCycles
		pmuCycles += r.pmuCycles
		schedMig += r.whole.Counter(sim.MetricSchedMigrations, nil)
		steals += r.whole.Counter(sim.MetricSchedSteals, nil)
		for _, s := range r.whole.Samples {
			if s.Name == sim.MetricCacheDirectoryPeak && s.Value > dirPeak {
				dirPeak = s.Value
			}
		}
		if r.engine {
			engineRounds += len(r.rounds)
			detectRounds += r.detectRounds
			activations += r.activations
			migrations += r.migrations
			samples += r.samplesRead
			admitted += r.admitted
			if r.clustersKnown {
				purity += r.purity
				purityN++
			}
		}
	}
	n := float64(len(rs))
	var calls int64
	var nextBusy, tickBusy, detectTickBusy time.Duration
	var detectTicks int
	for _, tr := range trs {
		c, b := tr.nextStats()
		calls += c
		nextBusy += b
		tickBusy += tr.tickBusy
		detectTickBusy += tr.detectTickBusy
		detectTicks += tr.detectTicks
	}
	m := tcmetrics.MergeAll(measured)
	mRefs := float64(sumAccesses(m))
	remote := float64(sourceCount(m, cache.SrcRemoteL2) + sourceCount(m, cache.SrcRemoteL3))
	l1 := float64(sourceCount(m, cache.SrcL1))
	inval := float64(m.Counter(sim.MetricCacheInvalidations, nil))
	snoop := 0.0
	for _, s := range m.Samples {
		if s.Name == sim.MetricCacheSnoopProbesAvoided {
			snoop += float64(s.Count)
		}
	}

	mc := fmt.Sprintf("over %d machines", len(rs))
	o.metric("sim.rounds", float64(rounds), "count", mc)
	o.metric("sim.refs", float64(refs), "count", "Σ cache_accesses_total, "+mc)
	o.metric("sim.round_busy_s", busy.Seconds(), "s", "Σ timed RunRoundsCtx(ctx, 1)")
	o.metric("sim.new_machine_s", ratio(newMachine.Seconds(), n), "s", "mean NewMachine per machine")
	o.metric("sim.install_s", ratio(install.Seconds(), n), "s", "mean Spec.Install + Engine.Install per machine")
	o.metric("workloads.next_ns", ratio(float64(nextBusy.Nanoseconds()), float64(calls)), "ns",
		fmt.Sprintf("mean timed Generator.Next, including ~%.0f ns an empty timed region reads", emptyRegionNS()))
	o.metric("workloads.next_calls", float64(calls), "count", "")
	o.metric("workloads.busy_share", ratio(nextBusy.Seconds(), busy.Seconds()), "fraction", "Σ Next time / sim.round_busy_s")
	o.metric("workloads.build_s", ratio(build.Seconds(), n), "s", "mean workload build per machine")
	o.metric("cache.remote_frac", ratio(remote, mRefs), "fraction", "sim; measured intervals")
	o.metric("cache.l1_miss_frac", ratio(mRefs-l1, mRefs), "fraction", "sim; measured intervals")
	o.metric("cache.invalidations_per_kref", 1000*ratio(inval, mRefs), "1/kref", "sim; measured intervals")
	o.metric("cache.directory_peak_lines", dirPeak, "lines", "sim; largest machine")
	o.metric("cache.snoop_probes_avoided_per_kref", 1000*ratio(snoop, mRefs), "1/kref", "sim; measured intervals")
	o.metric("pmu.handler_overhead_frac", ratio(float64(overhead), float64(pmuCycles)), "fraction", "sim; sim_overhead_cycles_total / pmu_cycles_total")
	o.metric("sched.migrations", float64(schedMig), "count", "sim; "+sim.MetricSchedMigrations)
	o.metric("sched.steals", float64(steals), "count", "sim; "+sim.MetricSchedSteals)
	o.metric("core.tick_busy_s", tickBusy.Seconds(), "s", "Σ engine OnTick, bracketed by observers")
	o.metric("core.detect_round_frac", ratio(float64(detectRounds), float64(engineRounds)), "fraction", "rounds started in the detection phase, engine machines")
	o.metric("core.activations", float64(activations), "count", "sim")
	o.metric("core.migrations", float64(migrations), "count", "sim; MigrationsDone")
	o.metric("core.sample_admit_ratio", ratio(float64(admitted), float64(samples)), "fraction", "sim; SamplesAdmitted / SamplesRead")
	o.metric("clustering.detect_tick_ms", 1000*ratio(detectTickBusy.Seconds(), float64(detectTicks)), "ms",
		fmt.Sprintf("mean engine tick in which OnClusters fired (n=%d)", detectTicks))
	o.metric("clustering.purity", ratio(purity, float64(purityN)), "fraction", "sim; clustering.Purity vs Spec.Truth")
	o.metric("metrics.snapshot_ms", 1000*ratio(snapshot.Seconds(), n), "ms", "mean SnapshotMetrics x2 + Delta per machine")
}

// emptyRegionNS is the mean host time an empty now()/since() region
// reads: the timer's own share of every per-call timing.
func emptyRegionNS() float64 {
	const n = 100_000
	var d time.Duration
	for i := 0; i < n; i++ {
		d += since(now())
	}
	return float64(d.Nanoseconds()) / n
}

// profileLayers prints each layer's leaf share of a CPU profile.
func profileLayers(o *output, prof []byte) error {
	byPkg, total, err := leafShares(prof)
	if err != nil {
		return err
	}
	shares := layerShares(byPkg)
	note := fmt.Sprintf("leaf share of %.2f CPU-s profiled", total/1e9)
	for _, layer := range []string{"sim", "workloads", "cache", "pmu", "sched", "clustering", "runtime"} {
		o.metric(layer+".self_share", shares[layer], "fraction", note)
	}
	return nil
}

// hostUsage is the process's CPU accounting at one instant.
type hostUsage struct {
	at        time.Time
	cpu       time.Duration // user + system, from getrusage
	gcCPU     float64       // runtime/metrics GC CPU seconds
	activeCPU float64       // runtime/metrics non-idle CPU seconds
}

var cpuClasses = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readUsage() hostUsage {
	u := hostUsage{at: now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(cpuClasses))
	for i, name := range cpuClasses {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u.gcCPU = val(0)
	u.activeCPU = val(1) - val(2)
	return u
}

// usageLayers prints the Go runtime's share of the interval: GC CPU
// over all non-idle CPU (the runtime's own estimate, refreshed at each
// GC), and process CPU over wall time x GOMAXPROCS.
func usageLayers(o *output, a, b hostUsage) {
	wall := b.at.Sub(a.at).Seconds()
	o.metric("runtime.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, b.activeCPU-a.activeCPU), "fraction", "runtime/metrics GC / non-idle CPU")
	o.metric("runtime.cpu_util", ratio((b.cpu-a.cpu).Seconds(), wall*float64(runtime.GOMAXPROCS(0))), "fraction", "process CPU / (wall x GOMAXPROCS)")
}

// profiled runs f under the CPU profiler and returns the profile.
func profiled(f func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	err := f()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// mallocs is the cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
