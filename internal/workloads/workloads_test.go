package workloads

import (
	"context"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// buildMachine assembles a machine with the given policy and installs the
// spec.
func buildMachine(t *testing.T, spec *Spec, policy sched.Policy) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Policy = policy
	cfg.QuantumCycles = 20_000
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Install(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSyntheticShape(t *testing.T) {
	spec, err := NewSynthetic(memory.NewDefaultArena(), DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "microbenchmark" || spec.NumPartitions != 4 {
		t.Errorf("spec = %s/%d partitions", spec.Name, spec.NumPartitions)
	}
	if len(spec.Threads) != 16 {
		t.Fatalf("threads = %d, want 16", len(spec.Threads))
	}
	// Interleaved partitions: consecutive IDs differ.
	if spec.Threads[0].Partition == spec.Threads[1].Partition {
		t.Error("consecutive threads should belong to different scoreboards")
	}
	// Exactly 4 threads per board.
	count := make(map[int]int)
	for _, th := range spec.Threads {
		count[th.Partition]++
	}
	for b, n := range count {
		if n != 4 {
			t.Errorf("board %d has %d threads, want 4", b, n)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := DefaultSyntheticConfig()
	bad.Scoreboards = 0
	if _, err := NewSynthetic(memory.NewDefaultArena(), bad); err == nil {
		t.Error("zero scoreboards should fail")
	}
	bad = DefaultSyntheticConfig()
	bad.PrivateBytes = 8
	if _, err := NewSynthetic(memory.NewDefaultArena(), bad); err == nil {
		t.Error("sub-line private region should fail")
	}
}

func TestVolanoShape(t *testing.T) {
	spec, err := NewVolano(memory.NewDefaultArena(), DefaultVolanoConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 2 rooms x 8 clients x 2 threads per connection = 32 threads.
	if len(spec.Threads) != 32 {
		t.Fatalf("threads = %d, want 32 (two designated threads per connection)", len(spec.Threads))
	}
	if spec.NumPartitions != 2 {
		t.Errorf("partitions = %d, want 2 rooms", spec.NumPartitions)
	}
	count := make(map[int]int)
	for _, th := range spec.Threads {
		count[th.Partition]++
	}
	if count[0] != 16 || count[1] != 16 {
		t.Errorf("per-room thread counts = %v, want 16 each", count)
	}
}

func TestVolanoServerNewConnection(t *testing.T) {
	server, err := NewVolanoServer(memory.NewDefaultArena(), DefaultVolanoConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := len(server.Spec().Threads)
	pair, err := server.NewConnection(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pair) != 2 {
		t.Fatalf("connection minted %d threads, want 2", len(pair))
	}
	if pair[0].Partition != 1 || pair[1].Partition != 1 {
		t.Error("new connection threads should carry the room partition")
	}
	if pair[0].ID == pair[1].ID {
		t.Error("pair must have distinct ids")
	}
	if len(server.Spec().Threads) != before+2 {
		t.Error("spec should track the new threads")
	}
	if _, err := server.NewConnection(99); err == nil {
		t.Error("out-of-range room should fail")
	}
}

func TestMachineRemoveThreadLifecycle(t *testing.T) {
	spec, _ := NewVolano(memory.NewDefaultArena(), DefaultVolanoConfig())
	m := buildMachine(t, spec, sched.PolicyDefault)
	m.RunRoundsCtx(context.Background(), 5)
	id := spec.Threads[0].ID
	if err := m.RemoveThread(id); err != nil {
		t.Fatal(err)
	}
	if m.Thread(id) != nil {
		t.Error("removed thread still visible")
	}
	if err := m.RemoveThread(id); err == nil {
		t.Error("double removal should fail")
	}
	m.RunRoundsCtx(context.Background(), 5) // machine keeps running without the thread
	if err := m.Scheduler().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestVolanoValidation(t *testing.T) {
	bad := DefaultVolanoConfig()
	bad.Rooms = 0
	if _, err := NewVolano(memory.NewDefaultArena(), bad); err == nil {
		t.Error("zero rooms should fail")
	}
}

func TestJBBShapeAndTreeIntegrity(t *testing.T) {
	cfg := DefaultJBBConfig()
	spec, err := NewJBB(memory.NewDefaultArena(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Threads) != 16 {
		t.Fatalf("threads = %d, want 16", len(spec.Threads))
	}
	// Both warehouses' workers share trees; drive some transactions and
	// verify the shared tree stays structurally sound.
	m := buildMachine(t, spec, sched.PolicyDefault)
	m.RunRoundsCtx(context.Background(), 30)
	worker := spec.Threads[0].Gen.(*traceGenerator)
	_ = worker
	// Reach into a worker's tree via a fresh transaction trace.
	if m.TotalOps() == 0 {
		t.Error("no transactions completed")
	}
}

func TestJBBValidation(t *testing.T) {
	bad := DefaultJBBConfig()
	bad.Warehouses = 0
	if _, err := NewJBB(memory.NewDefaultArena(), bad); err == nil {
		t.Error("zero warehouses should fail")
	}
	bad = DefaultJBBConfig()
	bad.KeySpace = 0
	if _, err := NewJBB(memory.NewDefaultArena(), bad); err == nil {
		t.Error("zero key space should fail")
	}
}

func TestRubisShape(t *testing.T) {
	spec, err := NewRubis(memory.NewDefaultArena(), DefaultRubisConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Threads) != 32 {
		t.Fatalf("threads = %d, want 32 (16 clients x 2 instances)", len(spec.Threads))
	}
	if spec.NumPartitions != 2 {
		t.Errorf("partitions = %d, want 2 instances", spec.NumPartitions)
	}
}

func TestRubisValidation(t *testing.T) {
	bad := DefaultRubisConfig()
	bad.Instances = 0
	if _, err := NewRubis(memory.NewDefaultArena(), bad); err == nil {
		t.Error("zero instances should fail")
	}
}

func TestStagedShape(t *testing.T) {
	spec, err := NewStaged(memory.NewDefaultArena(), DefaultStagedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "staged" || spec.NumPartitions != 4 {
		t.Errorf("spec = %s/%d", spec.Name, spec.NumPartitions)
	}
	if len(spec.Threads) != 16 {
		t.Fatalf("threads = %d, want 16", len(spec.Threads))
	}
	count := map[int]int{}
	for _, th := range spec.Threads {
		count[th.Partition]++
	}
	for s, n := range count {
		if n != 4 {
			t.Errorf("stage %d has %d threads, want 4", s, n)
		}
	}
}

func TestStagedValidation(t *testing.T) {
	bad := DefaultStagedConfig()
	bad.Stages = 0
	if _, err := NewStaged(memory.NewDefaultArena(), bad); err == nil {
		t.Error("zero stages should fail")
	}
}

func TestStagedChainSharing(t *testing.T) {
	// Adjacent stages must share a queue; non-adjacent stages must not
	// (other than nothing at all). Verify through the generators' address
	// streams.
	spec, _ := NewStaged(memory.NewDefaultArena(), DefaultStagedConfig())
	touched := make([]map[memory.Addr]bool, 4)
	for s := range touched {
		touched[s] = map[memory.Addr]bool{}
	}
	for _, th := range spec.Threads {
		for i := 0; i < 3000; i++ {
			ref := th.Gen.Next()
			touched[th.Partition][memory.LineOf(ref.Addr)] = true
		}
	}
	overlap := func(a, b int) int {
		n := 0
		for l := range touched[a] {
			if touched[b][l] {
				n++
			}
		}
		return n
	}
	if overlap(0, 1) == 0 || overlap(1, 2) == 0 || overlap(2, 3) == 0 {
		t.Error("adjacent stages must share queue lines")
	}
	if overlap(0, 2) != 0 || overlap(0, 3) != 0 || overlap(1, 3) != 0 {
		t.Error("non-adjacent stages must not share lines")
	}
}

func TestPartitionHintAndTruthAgree(t *testing.T) {
	spec, _ := NewSynthetic(memory.NewDefaultArena(), DefaultSyntheticConfig())
	hint := spec.PartitionHint()
	truth := spec.Truth()
	for _, th := range spec.Threads {
		if hint(th.ID) != th.Partition || truth[int(th.ID)] != th.Partition {
			t.Fatalf("hint/truth disagree for thread %d", th.ID)
		}
	}
}

func TestInstallWiresHandOptimizedHint(t *testing.T) {
	spec, _ := NewSynthetic(memory.NewDefaultArena(), DefaultSyntheticConfig())
	m := buildMachine(t, spec, sched.PolicyHandOptimized)
	// With 4 scoreboards on 2 chips, boards map to chips via modulo: all
	// threads of one board must share a chip.
	s := m.Scheduler()
	for _, th := range spec.Threads {
		chip, ok := s.ChipOf(th.ID)
		if !ok {
			t.Fatalf("thread %d not placed", th.ID)
		}
		if want := th.Partition % 2; chip != want {
			t.Errorf("thread %d (board %d) on chip %d, want %d", th.ID, th.Partition, chip, want)
		}
	}
}

// The central behavioural property for each workload: scattering threads
// across chips (round-robin) produces remote stalls dominated by the
// cluster-shared data, and hand-optimized placement slashes them.
func TestWorkloadsShowSharingSignal(t *testing.T) {
	builders := map[string]func() (*Spec, error){
		"synthetic": func() (*Spec, error) {
			return NewSynthetic(memory.NewDefaultArena(), DefaultSyntheticConfig())
		},
		"volano": func() (*Spec, error) {
			return NewVolano(memory.NewDefaultArena(), DefaultVolanoConfig())
		},
		"jbb": func() (*Spec, error) {
			cfg := DefaultJBBConfig()
			cfg.InitialKeys = 800 // keep the test fast
			return NewJBB(memory.NewDefaultArena(), cfg)
		},
		"rubis": func() (*Spec, error) {
			cfg := DefaultRubisConfig()
			cfg.TableKeys = 600
			return NewRubis(memory.NewDefaultArena(), cfg)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			specRR, err := build()
			if err != nil {
				t.Fatal(err)
			}
			rr := buildMachine(t, specRR, sched.PolicyRoundRobin)
			rr.RunRoundsCtx(context.Background(), 150)
			rr.ResetMetrics()
			rr.RunRoundsCtx(context.Background(), 150)
			rrFrac := rr.Breakdown().RemoteFraction()
			if rrFrac <= 0.005 {
				t.Fatalf("round-robin remote fraction = %.4f; workload has no sharing signal", rrFrac)
			}

			specHO, err := build()
			if err != nil {
				t.Fatal(err)
			}
			ho := buildMachine(t, specHO, sched.PolicyHandOptimized)
			ho.RunRoundsCtx(context.Background(), 150)
			ho.ResetMetrics()
			ho.RunRoundsCtx(context.Background(), 150)
			hoFrac := ho.Breakdown().RemoteFraction()
			if hoFrac >= rrFrac {
				t.Errorf("hand-optimized (%.4f) should beat round-robin (%.4f)", hoFrac, rrFrac)
			}
			// Throughput should improve too (or at least not regress).
			if ho.TotalOps() < rr.TotalOps() {
				t.Errorf("hand-optimized ops %d < round-robin ops %d", ho.TotalOps(), rr.TotalOps())
			}
		})
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	run := func() uint64 {
		spec, err := NewVolano(memory.NewDefaultArena(), DefaultVolanoConfig())
		if err != nil {
			t.Fatal(err)
		}
		m := buildMachine(t, spec, sched.PolicyRoundRobin)
		m.RunRoundsCtx(context.Background(), 50)
		return m.Breakdown().Cycles ^ m.TotalOps()
	}
	if run() != run() {
		t.Error("workload runs are not deterministic")
	}
}

func TestTraceGeneratorRefills(t *testing.T) {
	calls := 0
	var backing []*sim.MemRef
	g := &traceGenerator{refill: func(dst []sim.MemRef) []sim.MemRef {
		calls++
		if len(dst) != 0 {
			t.Errorf("refill %d got %d queued refs, want a drained buffer", calls, len(dst))
		}
		dst = append(dst, sim.MemRef{Addr: 1, Insts: 1}, sim.MemRef{Addr: 2, Insts: 1, Ops: 1})
		backing = append(backing, &dst[0])
		return dst
	}}
	for i, want := range []memory.Addr{1, 2, 1, 2, 1} {
		if got := g.Next().Addr; got != want {
			t.Errorf("ref %d addr = %d, want %d", i, got, want)
		}
	}
	if calls != 3 {
		t.Errorf("refill called %d times, want 3 for 5 refs of 2-ref traces", calls)
	}
	for i := 1; i < len(backing); i++ {
		if backing[i] != backing[0] {
			t.Errorf("refill %d appended into a new array; the drained buffer must be reused", i+1)
		}
	}
}
