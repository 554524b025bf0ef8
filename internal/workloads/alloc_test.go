package workloads

import (
	"runtime"
	"testing"

	"threadcluster/internal/memory"
)

// TestGeneratorZeroAlloc pins the steady-state cost of every generator's
// reference path: once warmed up, Next allocates nothing. The B-tree
// generators may still allocate when their shared tree grows, but at
// most once per new node. AllocsPerRun truncates its average, so the
// exact bound comes from the MemStats window.
func TestGeneratorZeroAlloc(t *testing.T) {
	const warm, window = 200_000, 100_000
	cases := []struct {
		name  string
		build func(*memory.Arena) (*Spec, error)
	}{
		{"microbenchmark", func(a *memory.Arena) (*Spec, error) { return NewSynthetic(a, DefaultSyntheticConfig()) }},
		{"volano", func(a *memory.Arena) (*Spec, error) { return NewVolano(a, DefaultVolanoConfig()) }},
		{"specjbb", func(a *memory.Arena) (*Spec, error) { return NewJBB(a, DefaultJBBConfig()) }},
		{"rubis", func(a *memory.Arena) (*Spec, error) { return NewRubis(a, DefaultRubisConfig()) }},
		{"staged", func(a *memory.Arena) (*Spec, error) { return NewStaged(a, DefaultStagedConfig()) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			arena := memory.NewDefaultArena()
			spec, err := c.build(arena)
			if err != nil {
				t.Fatal(err)
			}
			g := spec.Threads[0].Gen
			for i := 0; i < warm; i++ {
				g.Next()
			}
			if n := testing.AllocsPerRun(1000, func() { g.Next() }); n != 0 {
				t.Errorf("Next allocates %v times per call after warm-up, want 0", n)
			}
			// After set-up only B-tree growth allocates from the arena, one
			// btreeNodeBytes region per new node; the other generators
			// allocate no nodes and so may not allocate at all.
			var before, after runtime.MemStats
			used0 := arena.Used()
			runtime.ReadMemStats(&before)
			for i := 0; i < window; i++ {
				g.Next()
			}
			runtime.ReadMemStats(&after)
			nodes := (arena.Used() - used0) / btreeNodeBytes
			if mallocs := after.Mallocs - before.Mallocs; mallocs > nodes {
				t.Errorf("%d allocations over %d refs, want at most one per new B-tree node (%d)", mallocs, window, nodes)
			}
		})
	}
}
