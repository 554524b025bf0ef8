package experiments

import (
	"context"
	"reflect"
	"testing"

	"threadcluster/internal/cache"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/topology"
)

// TestMachineConfigCarriesOptions sets every Options field that maps to
// the machine to a non-default value and checks each one lands in the
// sim.Config, with everything else left at sim.DefaultConfig.
func TestMachineConfigCarriesOptions(t *testing.T) {
	opt := DefaultOptions()
	opt.Engine = sim.EngineSeq
	opt.Topo = topology.Power5_32Way()
	opt.QuantumCycles = 12_345
	opt.Seed = 42
	opt.Coherence = cache.CoherenceBroadcast

	got := MachineConfig(opt, sched.PolicyHandOptimized)

	want := sim.DefaultConfig()
	if want.Engine == opt.Engine || want.Topo == opt.Topo || want.QuantumCycles == opt.QuantumCycles ||
		want.Seed == opt.Seed || want.Caches.Coherence == opt.Coherence || want.Policy == sched.PolicyHandOptimized {
		t.Fatal("test options must differ from sim.DefaultConfig in every mapped field")
	}
	want.Engine = sim.EngineSeq
	want.Topo = topology.Power5_32Way()
	want.QuantumCycles = 12_345
	want.Seed = 42
	want.Caches.Coherence = cache.CoherenceBroadcast
	want.Policy = sched.PolicyHandOptimized
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MachineConfig =\n%+v\nwant\n%+v", got, want)
	}
}

// TestCoherenceReachesMuxValidation pins that -coherence reaches a
// harness beyond RunWorkload: the multiplexing study on the 2-chip
// machine must see the broadcast model's immediate cross-chip
// visibility, not silently run the directory model.
func TestCoherenceReachesMuxValidation(t *testing.T) {
	opt := DefaultOptions()
	opt.WarmRounds, opt.EngineRounds, opt.MeasureRounds = 5, 5, 5
	dir, _, err := MuxValidation(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Coherence = cache.CoherenceBroadcast
	bc, _, err := MuxValidation(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(dir, bc) {
		t.Errorf("broadcast result equals directory result: the coherence mode did not reach the machine\n%+v", dir)
	}
}
