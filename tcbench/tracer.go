package main

import (
	"time"

	"threadcluster/internal/clustering"
	"threadcluster/internal/sim"
	"threadcluster/internal/workloads"
)

// tracer holds the traced run's observers: a timing wrapper around every
// thread's generator, and tick observers registered just before and just
// after the clustering engine's, which bracket the engine's tick. All of
// them only read the host clock, so the simulation is unchanged — the
// traced run's measured-interval digest must equal the untraced one's.
type tracer struct {
	gens []*timedGen

	tickStart      time.Time
	tickBusy       time.Duration
	ticks          int
	clustered      bool // OnClusters fired during the current tick
	detectTickBusy time.Duration
	detectTicks    int
}

// wrapGenerators replaces each thread's generator with a timing wrapper.
// It must run before spec.Install, where the machine decides once per
// thread whether its generator is confined.
func (tr *tracer) wrapGenerators(spec *workloads.Spec) {
	for _, t := range spec.Threads {
		tg := &timedGen{g: t.Gen}
		tr.gens = append(tr.gens, tg)
		t.Gen = wrapGen(tg)
	}
}

// wrapGen returns the generator the machine sees. A confined generator
// must stay confined: dropping the marker would silently send every
// round down the serial path and change what the traced run measures.
func wrapGen(tg *timedGen) sim.Generator {
	if c, ok := tg.g.(sim.ConfinedGenerator); ok {
		return &timedConfinedGen{timedGen: tg, c: c}
	}
	return tg
}

// nextStats sums the wrappers' call counts and host time.
func (tr *tracer) nextStats() (calls int64, busy time.Duration) {
	for _, g := range tr.gens {
		calls += g.calls
		busy += g.busy
	}
	return calls, busy
}

func (tr *tracer) beforeEngineTick(*sim.Machine) {
	tr.clustered = false
	tr.tickStart = now()
}

func (tr *tracer) afterEngineTick(*sim.Machine) {
	d := since(tr.tickStart)
	tr.tickBusy += d
	tr.ticks++
	if tr.clustered {
		tr.detectTickBusy += d
		tr.detectTicks++
	}
}

func (tr *tracer) onClusters([]clustering.Cluster) { tr.clustered = true }

// timedGen times one thread's Next calls. A thread runs on one chip
// worker at a time and the engine's slice barrier orders its rounds, so
// the counters need no synchronization.
type timedGen struct {
	g     sim.Generator
	calls int64
	busy  time.Duration
}

func (t *timedGen) Next() sim.MemRef {
	start := now()
	ref := t.g.Next()
	t.busy += since(start)
	t.calls++
	return ref
}

// timedConfinedGen forwards sim.ConfinedGenerator to the wrapped
// generator.
type timedConfinedGen struct {
	*timedGen
	c sim.ConfinedGenerator
}

func (t *timedConfinedGen) Confined()                   {}
func (t *timedConfinedGen) SnapshotState() []byte       { return t.c.SnapshotState() }
func (t *timedConfinedGen) RestoreState(b []byte) error { return t.c.RestoreState(b) }
