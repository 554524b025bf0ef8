package main

import (
	"context"
	"testing"

	"threadcluster/internal/experiments"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/workloads"
)

// TestWrapGenKeepsConfinement: the traced wrapper must forward
// sim.ConfinedGenerator exactly when the wrapped generator has it.
func TestWrapGenKeepsConfinement(t *testing.T) {
	for _, name := range experiments.AllWorkloads() {
		spec, err := experiments.BuildWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Threads[0].Gen
		_, confined := g.(sim.ConfinedGenerator)
		_, wrappedConfined := wrapGen(&timedGen{g: g}).(sim.ConfinedGenerator)
		if confined != wrappedConfined {
			t.Errorf("%s: confined %v, wrapped %v", name, confined, wrappedConfined)
		}
	}
}

// TestTracedRunMatchesUntraced drives a tiny volano machine pair both
// ways: the conservation checks hold and the observers leave the
// measured-interval digest unchanged.
func TestTracedRunMatchesUntraced(t *testing.T) {
	opt := experiments.DefaultOptions()
	opt.WarmRounds, opt.EngineRounds, opt.MeasureRounds = 4, 8, 6
	for _, pol := range []sched.Policy{sched.PolicyDefault, sched.PolicyClustered} {
		mr := machineRun{
			name: pol.String(),
			build: func(seed int64) (*workloads.Spec, error) {
				return experiments.BuildWorkload(experiments.Volano, seed)
			},
			opt:    opt,
			policy: pol,
			engine: pol == sched.PolicyClustered,
		}
		plain, err := mr.run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{}
		traced, err := mr.run(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %s != untraced %s", pol, traced.digest, plain.digest)
		}
		for _, r := range []*machineResult{plain, traced} {
			for _, f := range r.failures {
				t.Errorf("%s: %s", pol, f)
			}
			if len(r.rounds) != 18 || r.refs == 0 {
				t.Errorf("%s: %d rounds, %d refs", pol, len(r.rounds), r.refs)
			}
		}
		if calls, _ := tr.nextStats(); uint64(calls) != traced.refs {
			t.Errorf("%s: %d timed Next calls, %d references", pol, calls, traced.refs)
		}
		if mr.engine && tr.ticks != 18 {
			t.Errorf("%s: %d bracketed engine ticks, want 18", pol, tr.ticks)
		}
	}
}
