package workloads

import (
	"fmt"
	"math/rand"

	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// Spec is a fully built workload: the threads to schedule plus the
// ground-truth partition used by the hand-optimized placement policy and
// by cluster-quality validation (the automatic engine never sees it).
type Spec struct {
	// Name identifies the workload ("microbenchmark", "volano", ...).
	Name string
	// Threads are ready to be added to a sim.Machine.
	Threads []*sim.Thread
	// NumPartitions is the number of application-level data partitions
	// (scoreboards, rooms, warehouses, database instances).
	NumPartitions int
}

// PartitionHint adapts the spec's ground truth to the scheduler's
// hand-optimized policy interface.
func (s *Spec) PartitionHint() func(sched.ThreadID) int {
	byID := make(map[sched.ThreadID]int, len(s.Threads))
	for _, t := range s.Threads {
		byID[t.ID] = t.Partition
	}
	return func(id sched.ThreadID) int { return byID[id] }
}

// Truth returns the ground-truth partition map keyed the way the
// clustering validators expect.
func (s *Spec) Truth() map[int]int {
	truth := make(map[int]int, len(s.Threads))
	for _, t := range s.Threads {
		truth[int(t.ID)] = t.Partition
	}
	return truth
}

// Renumber shifts every thread id by offset, so multiple specs can share
// one machine without id collisions (multiprogrammed experiments).
func (s *Spec) Renumber(offset int) {
	for _, t := range s.Threads {
		t.ID += sched.ThreadID(offset)
	}
}

// Install adds every thread to the machine and, when the machine runs the
// hand-optimized policy, wires the partition hint first.
func (s *Spec) Install(m *sim.Machine) error {
	if m.Scheduler().Policy() == sched.PolicyHandOptimized {
		m.Scheduler().SetPartitionHint(s.PartitionHint())
	}
	for _, t := range s.Threads {
		if err := m.AddThread(t); err != nil {
			return fmt.Errorf("workloads: installing %s: %w", s.Name, err)
		}
	}
	return nil
}

// pick returns a uniformly random line-aligned address inside the region.
func pick(rng *rand.Rand, r memory.Region) memory.Addr {
	lines := int(r.Size / memory.LineSize)
	return r.At(uint64(rng.Intn(lines)) * memory.LineSize)
}

// pickHot returns an address from the first hotLines lines of the region
// with probability hotProb, else a uniform pick — a cheap two-tier
// approximation of the skewed accesses real servers exhibit.
func pickHot(rng *rand.Rand, r memory.Region, hotLines int, hotProb float64) memory.Addr {
	if rng.Float64() < hotProb {
		return r.At(uint64(rng.Intn(hotLines)) * memory.LineSize)
	}
	return pick(rng, r)
}

// traceGenerator replays queued address traces (e.g. a B-tree operation's
// touched nodes) as MemRefs, asking refill for the next operation when the
// buffer drains. The refill's last reference carries the op-completion
// marker.
//
// Buffer ownership: refill receives the drained buffer truncated to
// length zero and must append the next operation's references to it and
// return the result; the generator owns the returned slice and reuses
// its backing array for the following refill. A refill must therefore
// not retain the slice it returns. Once the buffer has grown to the
// longest operation, Next allocates nothing.
type traceGenerator struct {
	buf    []sim.MemRef
	pos    int
	refill func(dst []sim.MemRef) []sim.MemRef
}

func (g *traceGenerator) Next() sim.MemRef {
	for g.pos == len(g.buf) {
		g.buf = g.refill(g.buf[:0])
		g.pos = 0
	}
	ref := g.buf[g.pos]
	g.pos++
	return ref
}

// stallNoise returns small random branch/other stall cycles so the CPI
// stack has the non-dcache components visible in Figure 3.
func stallNoise(rng *rand.Rand, branchMax, otherMax uint64) (branch, other uint64) {
	if branchMax > 0 {
		branch = uint64(rng.Int63n(int64(branchMax + 1)))
	}
	if otherMax > 0 {
		other = uint64(rng.Int63n(int64(otherMax + 1)))
	}
	return branch, other
}
