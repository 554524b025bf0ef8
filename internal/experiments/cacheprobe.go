package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/snapbin"
	"threadcluster/internal/stats"
)

// ProbePoint is one working-set size of the latency curve.
type ProbePoint struct {
	WorkingSetBytes uint64
	CyclesPerAccess float64
	// Level is the hierarchy level the working set should fit in.
	Level string
}

// chaseGen walks a working set line by line in a pseudo-random
// permutation, the standard pointer-chasing methodology for measuring
// memory-hierarchy latencies (every access depends on the previous one;
// with no prefetcher in the model a fixed permutation suffices).
type chaseGen struct {
	region memory.Region
	lines  uint64
	pos    uint64
	stride uint64
}

func newChaseGen(region memory.Region) *chaseGen {
	lines := region.Size / memory.LineSize
	// A stride co-prime with the line count visits every line.
	stride := lines/2 + 1
	for gcd(stride, lines) != 1 {
		stride++
	}
	return &chaseGen{region: region, lines: lines, stride: stride}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Confined marks the generator parallel-safe: the chase walks private
// per-generator state over an immutable Region.
func (g *chaseGen) Confined() {}

// SnapshotState returns the chase cursor (the current position; lines and
// stride are derived from the region at construction).
func (g *chaseGen) SnapshotState() []byte {
	e := &snapbin.Enc{}
	e.U64(g.pos)
	return e.Bytes()
}

// RestoreState overwrites the chase cursor.
func (g *chaseGen) RestoreState(state []byte) error {
	d := snapbin.NewDec(state)
	pos := d.U64()
	if err := d.Close(); err != nil {
		return fmt.Errorf("experiments: chase cursor: %w", err)
	}
	if pos >= g.lines {
		return fmt.Errorf("experiments: chase cursor %d beyond %d lines: %w", pos, g.lines, snapbin.ErrCorrupt)
	}
	g.pos = pos
	return nil
}

func (g *chaseGen) Next() sim.MemRef {
	g.pos = (g.pos + g.stride) % g.lines
	return sim.MemRef{Addr: g.region.At(g.pos * memory.LineSize), Insts: 0}
}

// CacheProbe measures the machine's effective access latency as a
// function of working-set size — the curve an lmbench-style tool draws on
// real hardware, and the methodology behind Figure 1's numbers. The
// cliffs must land at the configured cache capacities (64KB L1, 2MB L2,
// 36MB L3) and the plateau heights at the configured latencies.
func CacheProbe(ctx context.Context, opt Options) ([]ProbePoint, *stats.Table, error) {
	sizes := []struct {
		bytes uint64
		level string
	}{
		{32 << 10, "L1"},
		{48 << 10, "L1"},
		{256 << 10, "L2"},
		{1 << 20, "L2"},
		{8 << 20, "L3"},
		{24 << 20, "L3"},
		{128 << 20, "memory"},
	}
	var points []ProbePoint
	t := stats.NewTable("Latency vs working-set size (pointer chase, one thread)",
		"Working set", "Cycles/access", "Expected level")
	for _, sz := range sizes {
		p, err := probeOne(ctx, opt, sz.bytes)
		if err != nil {
			return nil, nil, err
		}
		p.Level = sz.level
		points = append(points, p)
		t.AddRow(fmtBytes(sz.bytes), fmt.Sprintf("%.1f", p.CyclesPerAccess), sz.level)
	}
	return points, t, nil
}

func probeOne(ctx context.Context, opt Options, bytes uint64) (ProbePoint, error) {
	m, err := newMachine(MachineConfig(opt, sched.PolicyRoundRobin)) // one thread, pinned to CPU 0
	if err != nil {
		return ProbePoint{}, err
	}
	arena := memory.NewDefaultArena()
	gen := newChaseGen(arena.MustAlloc(bytes, 0))
	if err := m.AddThread(&sim.Thread{ID: 1, Gen: gen}); err != nil {
		return ProbePoint{}, err
	}
	// Warm-up must cover at least two full walks of the working set at
	// worst-case (memory) latency, or big sets would be measured during
	// their cold pass.
	lines := bytes / memory.LineSize
	warmRounds := int(2*lines*300/opt.QuantumCycles) + opt.WarmRounds
	if err := m.RunRoundsCtx(ctx, warmRounds); err != nil {
		return ProbePoint{}, err
	}
	m.ResetMetrics()
	// Measure at least one further full walk.
	measureRounds := int(lines*300/opt.QuantumCycles) + opt.MeasureRounds
	if err := m.RunRoundsCtx(ctx, measureRounds); err != nil {
		return ProbePoint{}, err
	}
	th := m.Thread(1)
	if th.Insts == 0 {
		return ProbePoint{}, fmt.Errorf("probe thread never ran")
	}
	// Each reference retires exactly one instruction, so cycles per
	// access is cycles per instruction.
	return ProbePoint{
		WorkingSetBytes: bytes,
		CyclesPerAccess: float64(th.Cycles) / float64(th.Insts),
	}, nil
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}
