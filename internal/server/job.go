package server

import (
	"context"
	"fmt"
	"strings"

	"threadcluster/internal/cache"
	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/sweep"
)

// JobSpec is the wire form of one simulation job: a policy x topology x
// workload grid plus run lengths and a base seed — the same shape `tcsim
// sweep` takes on the command line. A job's result payload is a pure
// function of its normalized spec: seeds derive from Seed and grid
// position (sweep.DeriveSeed), never from arrival order, queue depth or
// server concurrency, which is what makes the byte-identical
// determinism contract survive the network boundary.
type JobSpec struct {
	// ID optionally names the job; the server assigns "job-<seq>" when
	// empty. Submitting an ID the server already holds is a conflict.
	ID string `json:"id,omitempty"`

	// Workloads, Policies and Topos span the grid. At least one of each.
	Workloads []string `json:"workloads"`
	Policies  []string `json:"policies"`
	Topos     []string `json:"topos"`

	// Seed is the grid's base seed (default 1). Per-cell seeds derive
	// from it deterministically.
	Seed int64 `json:"seed,omitempty"`

	// WarmRounds, EngineRounds and MeasureRounds override the scaled
	// experiment defaults when positive.
	WarmRounds    int `json:"warm_rounds,omitempty"`
	EngineRounds  int `json:"engine_rounds,omitempty"`
	MeasureRounds int `json:"measure_rounds,omitempty"`

	// Coherence picks the cache-coherence implementation:
	// "directory" (default) or "broadcast".
	Coherence string `json:"coherence,omitempty"`

	// Engine picks the execution engine: "parallel" (default) or "seq".
	// Results are byte-identical either way.
	Engine string `json:"engine,omitempty"`

	// Priority orders admission-to-execution: higher runs earlier, FIFO
	// within a priority level.
	Priority int `json:"priority,omitempty"`

	// Workers is the per-job sweep pool size; 0 uses the server default.
	// Results are byte-identical for any value.
	Workers int `json:"workers,omitempty"`

	// Cells, when non-empty, restricts the job to the listed full-grid
	// cell indices (strictly increasing, 0-based, grid order). The cells
	// keep their full-grid identities — names and seeds are what the
	// whole grid would assign at those positions — so a coordinator can
	// shard one grid across many workers and reassemble per-cell results
	// into the exact payload a single node would produce. Empty means
	// the whole grid, which is what every pre-shard client submits.
	Cells []int `json:"cells,omitempty"`
}

// Normalize fills defaults and validates the spec, returning the
// canonical form the server admits (and persists to the spool). All
// validation failures wrap errs.ErrBadConfig, which the HTTP layer maps
// to 400 with a structured body.
func (js JobSpec) Normalize() (JobSpec, error) {
	out := js
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Coherence == "" {
		out.Coherence = cache.CoherenceDirectory.String()
	}
	if out.Engine == "" {
		out.Engine = sim.EngineParallel.String()
	}
	if len(out.Workloads) == 0 || len(out.Policies) == 0 || len(out.Topos) == 0 {
		return JobSpec{}, fmt.Errorf("server: %w: empty grid (need at least one workload, policy and topology)", errs.ErrBadConfig)
	}
	if out.WarmRounds < 0 || out.EngineRounds < 0 || out.MeasureRounds < 0 {
		return JobSpec{}, fmt.Errorf("server: %w: negative round counts", errs.ErrBadConfig)
	}
	if out.Workers < 0 {
		return JobSpec{}, fmt.Errorf("server: %w: negative worker count", errs.ErrBadConfig)
	}
	if strings.ContainsAny(out.ID, "/\\ \t\n") {
		return JobSpec{}, fmt.Errorf("server: %w: job ID %q contains separators or spaces", errs.ErrBadConfig, out.ID)
	}
	if _, err := cache.ParseCoherenceMode(out.Coherence); err != nil {
		return JobSpec{}, fmt.Errorf("server: %w: %v", errs.ErrBadConfig, err)
	}
	if _, err := sim.ParseEngine(out.Engine); err != nil {
		return JobSpec{}, fmt.Errorf("server: %w: %v", errs.ErrBadConfig, err)
	}
	for _, name := range out.Workloads {
		if _, err := experiments.BuildWorkload(name, 1); err != nil {
			return JobSpec{}, fmt.Errorf("server: %w: %v", errs.ErrBadConfig, err)
		}
	}
	for _, name := range out.Policies {
		if _, err := experiments.ParsePolicy(name); err != nil {
			return JobSpec{}, fmt.Errorf("server: %w: %v", errs.ErrBadConfig, err)
		}
	}
	for _, name := range out.Topos {
		if _, err := experiments.ParseTopo(name); err != nil {
			return JobSpec{}, fmt.Errorf("server: %w: %v", errs.ErrBadConfig, err)
		}
	}
	if len(out.Cells) > 0 {
		gridCells := len(out.Workloads) * len(out.Policies) * len(out.Topos)
		if err := experiments.CheckSubset(gridCells, out.Cells); err != nil {
			return JobSpec{}, fmt.Errorf("server: %w: %v", errs.ErrBadConfig, err)
		}
	}
	return out, nil
}

// options resolves the spec's run-length and mode overrides onto the
// scaled experiment defaults, exactly as `tcsim sweep` does, so the
// server and the offline runner compute identical grids.
func (js JobSpec) options() experiments.Options {
	opt := experiments.DefaultOptions()
	if js.WarmRounds > 0 {
		opt.WarmRounds = js.WarmRounds
	}
	if js.EngineRounds > 0 {
		opt.EngineRounds = js.EngineRounds
	}
	if js.MeasureRounds > 0 {
		opt.MeasureRounds = js.MeasureRounds
	}
	mode, _ := cache.ParseCoherenceMode(js.Coherence)
	opt.Coherence = mode
	eng, _ := sim.ParseEngine(js.Engine)
	opt.Engine = eng
	return opt
}

// Grid compiles the normalized spec into the experiments grid the sweep
// runner executes.
func (js JobSpec) Grid() (experiments.GridSpec, error) {
	policies := make([]sched.Policy, 0, len(js.Policies))
	for _, name := range js.Policies {
		p, err := experiments.ParsePolicy(name)
		if err != nil {
			return experiments.GridSpec{}, fmt.Errorf("server: %w: %v", errs.ErrBadConfig, err)
		}
		policies = append(policies, p)
	}
	return experiments.GridSpec{
		Workloads: js.Workloads,
		Policies:  policies,
		Topos:     js.Topos,
		BaseSeed:  js.Seed,
		Opt:       js.options(),
	}, nil
}

// Cost is the job's admission token count: grid cells times total
// simulated rounds per cell (only the selected cells for a shard-scoped
// job). It is the unit the server's per-job budget (Options.MaxJobCost)
// and outstanding pool (Options.MaxQueuedCost) are denominated in.
func (js JobSpec) Cost() int64 {
	opt := js.options()
	cells := int64(len(js.Workloads)) * int64(len(js.Policies)) * int64(len(js.Topos))
	if len(js.Cells) > 0 {
		cells = int64(len(js.Cells))
	}
	rounds := int64(opt.WarmRounds) + int64(opt.EngineRounds) + int64(opt.MeasureRounds)
	return cells * rounds
}

// compile expands the spec into the cells and tasks the job will run:
// the whole grid, or — for a shard-scoped job — the selected subset
// with full-grid names and seeds.
func (js JobSpec) compile() ([]experiments.GridCell, []sweep.Task, error) {
	grid, err := js.Grid()
	if err != nil {
		return nil, nil, err
	}
	if len(js.Cells) > 0 {
		return grid.SubsetTasks(js.Cells)
	}
	return grid.Tasks()
}

// JobState is a job's position in its lifecycle.
type JobState string

// The lifecycle: Queued -> Running -> one of the three terminal states.
// Cancellation can strike in either non-terminal state.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Final reports whether the state is terminal.
func (s JobState) Final() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Seq is the admission sequence number; list order is by Seq.
	Seq uint64 `json:"seq"`
	// Spec echoes the normalized spec.
	Spec JobSpec `json:"spec"`
	// Cost is the spec's admission token count.
	Cost int64 `json:"cost"`
	// TasksDone / TasksTotal track per-cell progress while running.
	TasksDone  int `json:"tasks_done"`
	TasksTotal int `json:"tasks_total"`
	// Error carries the failure or cancellation cause in terminal states.
	Error string `json:"error,omitempty"`
	// Digest is the result payload's content digest once done.
	Digest string `json:"digest,omitempty"`
}

// job is the server-side state of one admitted job. Fields other than
// the immutable spec/seq/events are guarded by the server mutex.
type job struct {
	spec JobSpec
	seq  uint64
	cost int64

	state      JobState
	err        error
	cancel     context.CancelFunc // set while running
	cancelled  bool               // cancel requested (distinguishes cancel from ctx timeout)
	cut        bool               // cancelled by a shutdown drain, not the submitter
	tasksDone  int
	tasksTotal int

	// completed records finished grid cells for checkpointing (and seeds
	// a resumed job at re-admission); ckptNew counts completions since
	// the last checkpoint flush.
	completed map[int]CheckpointCell
	ckptNew   int

	events  *eventLog
	payload []byte // canonical result payload bytes (state == done)
	digest  string
}

// status snapshots the job's wire status. Caller holds the server mutex.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:         j.spec.ID,
		State:      j.state,
		Seq:        j.seq,
		Spec:       j.spec,
		Cost:       j.cost,
		TasksDone:  j.tasksDone,
		TasksTotal: j.tasksTotal,
		Digest:     j.digest,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}
