package workloads

import (
	"fmt"
	"math/rand"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// JBBConfig parameterizes the SPECjbb2000-like workload (Section 5.3.3):
// warehouses stored as B-tree variants, each accessed for the experiment's
// lifetime by a fixed set of threads. The paper modifies SPECjbb so
// multiple threads share one warehouse — 2 warehouses with 8 threads each
// in the performance runs, 4 warehouses in the Figure 5 visualization.
type JBBConfig struct {
	// Warehouses is the number of warehouses (paper: 2; Figure 5 uses 4).
	Warehouses int
	// ThreadsPerWarehouse is the fixed thread set per warehouse (paper: 8).
	ThreadsPerWarehouse int
	// InitialKeys populates each warehouse's B-tree before the run.
	InitialKeys int
	// KeySpace is the range transaction keys are drawn from.
	KeySpace uint64
	// UpdateRatio is the fraction of transactions that insert (the rest
	// are lookups).
	UpdateRatio float64
	// MetaBytes sizes each warehouse's metadata block — the district and
	// warehouse records that (as in TPC-C, which SPECjbb models) are read
	// at the start of every transaction and updated by most of them
	// (next-order ids, year-to-date totals). This small write-hot block
	// is the warehouse's strongest sharing signature.
	MetaBytes uint64
	// MetaWriteRatio is the fraction of transactions that update the
	// warehouse metadata.
	MetaWriteRatio float64
	// GlobalBytes sizes JVM/process-global state (allocator metadata,
	// class tables) every thread occasionally writes.
	GlobalBytes uint64
	// HeapBytes is each thread's private allocation arena.
	HeapBytes uint64
	// Seed drives tree population and the generators.
	Seed int64
}

// DefaultJBBConfig is the paper's performance configuration: 2 warehouses,
// 8 threads per warehouse.
func DefaultJBBConfig() JBBConfig {
	return JBBConfig{
		Warehouses:          2,
		ThreadsPerWarehouse: 8,
		InitialKeys:         3000,
		KeySpace:            1 << 20,
		UpdateRatio:         0.25,
		MetaBytes:           8 * memory.LineSize,
		MetaWriteRatio:      0.6,
		GlobalBytes:         16 * memory.LineSize,
		HeapBytes:           64 << 10,
		Seed:                1,
	}
}

// jbbWorker runs warehouse transactions against its warehouse's B-tree,
// replaying the tree's address traces through a traceGenerator.
type jbbWorker struct {
	rng    *rand.Rand
	tree   *BTree
	meta   memory.Region
	cfg    JBBConfig
	global memory.Region
	heap   memory.Region
	// trace is scratch for the current tree operation's addresses, valid
	// only until the worker's next operation.
	trace []memory.Addr
}

// transaction appends the reference trace of one warehouse operation to
// refs.
func (w *jbbWorker) transaction(refs []sim.MemRef) []sim.MemRef {
	key := uint64(w.rng.Int63n(int64(w.cfg.KeySpace))) + 1
	isUpdate := w.rng.Float64() < w.cfg.UpdateRatio

	// Transaction prologue: read the warehouse/district record.
	refs = append(refs, sim.MemRef{Addr: pick(w.rng, w.meta), Insts: 8})

	if isUpdate {
		w.trace, _ = w.tree.insertInto(key, w.trace[:0])
	} else {
		_, w.trace = w.tree.lookupInto(key, w.trace[:0])
	}
	for i, a := range w.trace {
		branch, other := stallNoise(w.rng, 2, 4)
		refs = append(refs, sim.MemRef{
			Addr:        a,
			Write:       isUpdate && i == len(w.trace)-1, // the leaf write
			Insts:       8,
			BranchStall: branch,
			OtherStall:  other,
		})
	}
	// Object churn on the private heap between tree operations.
	for i := 0; i < 3; i++ {
		refs = append(refs, sim.MemRef{
			Addr:  pick(w.rng, w.heap),
			Write: i == 0,
			Insts: 12,
		})
	}
	// Occasional JVM-global write (allocation slow path, lock metadata).
	if w.rng.Intn(8) == 0 {
		refs = append(refs, sim.MemRef{
			Addr:  pick(w.rng, w.global),
			Write: w.rng.Intn(4) == 0,
			Insts: 10,
		})
	}
	// Transaction epilogue: most transactions update the district record
	// (next-order id, YTD totals).
	if w.rng.Float64() < w.cfg.MetaWriteRatio {
		refs = append(refs, sim.MemRef{Addr: pick(w.rng, w.meta), Write: true, Insts: 8})
	}
	refs[len(refs)-1].Ops = 1 // one transaction completed
	return refs
}

// NewJBB builds the warehouse workload. Threads interleave warehouses
// (thread i serves warehouse i % Warehouses); the ground-truth partition
// is the warehouse.
func NewJBB(arena *memory.Arena, cfg JBBConfig) (*Spec, error) {
	return newJBB(func(int) *memory.Arena { return arena }, arena, cfg)
}

// NewJBBOnNodes builds the warehouse workload with node-bound memory:
// warehouse i's B-tree, metadata and its threads' heaps all allocate from
// arenas[i % len(arenas)], while process-global state comes from
// arenas[0]. Combined with a memory.StripedNodes map whose stripes match
// the arenas, this models per-node allocation (numactl membind or
// first-touch) for the Section 8 NUMA experiments.
func NewJBBOnNodes(arenas []*memory.Arena, cfg JBBConfig) (*Spec, error) {
	if len(arenas) == 0 {
		return nil, fmt.Errorf("workloads: jbb on nodes needs at least one arena: %w", errs.ErrBadConfig)
	}
	return newJBB(func(wh int) *memory.Arena { return arenas[wh%len(arenas)] }, arenas[0], cfg)
}

func newJBB(arenaFor func(warehouse int) *memory.Arena, globalArena *memory.Arena, cfg JBBConfig) (*Spec, error) {
	if cfg.Warehouses <= 0 || cfg.ThreadsPerWarehouse <= 0 {
		return nil, fmt.Errorf("workloads: jbb needs positive warehouses and threads, got %+v: %w", cfg, errs.ErrBadConfig)
	}
	if cfg.KeySpace == 0 {
		return nil, fmt.Errorf("workloads: jbb needs a key space: %w", errs.ErrBadConfig)
	}
	global, err := globalArena.Alloc(cfg.GlobalBytes, memory.LineSize)
	if err != nil {
		return nil, err
	}
	popRng := rand.New(rand.NewSource(cfg.Seed * 31337))
	trees := make([]*BTree, cfg.Warehouses)
	metas := make([]memory.Region, cfg.Warehouses)
	var scratch []memory.Addr
	for i := range trees {
		arena := arenaFor(i)
		t, err := NewBTree(arena)
		if err != nil {
			return nil, err
		}
		for k := 0; k < cfg.InitialKeys; k++ {
			if scratch, err = t.insertInto(uint64(popRng.Int63n(int64(cfg.KeySpace)))+1, scratch[:0]); err != nil {
				return nil, err
			}
		}
		trees[i] = t
		if metas[i], err = arena.Alloc(cfg.MetaBytes, memory.LineSize); err != nil {
			return nil, err
		}
	}
	spec := &Spec{Name: "specjbb", NumPartitions: cfg.Warehouses}
	total := cfg.Warehouses * cfg.ThreadsPerWarehouse
	for i := 0; i < total; i++ {
		wh := i % cfg.Warehouses
		heap, err := arenaFor(wh).Alloc(cfg.HeapBytes, memory.LineSize)
		if err != nil {
			return nil, err
		}
		w := &jbbWorker{
			rng:    rand.New(rand.NewSource(cfg.Seed*7331 + int64(i))),
			tree:   trees[wh],
			meta:   metas[wh],
			cfg:    cfg,
			global: global,
			heap:   heap,
		}
		spec.Threads = append(spec.Threads, &sim.Thread{
			ID:        sched.ThreadID(i),
			Gen:       &traceGenerator{refill: w.transaction},
			Partition: wh,
		})
	}
	return spec, nil
}
