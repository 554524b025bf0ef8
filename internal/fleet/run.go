package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// starveRounds is how many consecutive loop ticks with work pending,
// nothing in flight and no live worker the coordinator tolerates
// (probing every tick) before declaring the fleet gone.
const starveRounds = 10

// shardState tracks one shard through the dispatch loop.
type shardState int

const (
	shardPending shardState = iota
	shardRunning
	shardDone
)

// shardRun is the coordinator-side state of one virtual-ring shard.
type shardRun struct {
	shard     Shard
	remaining []int // cells still to compute (checkpoint-filtered)

	state      shardState
	attempts   int // dispatches, lifetime
	failures   int // failed completions, lifetime
	inFlight   int // outstanding attempts (primary + steals)
	stolen     bool
	worker     string // primary lessee while running
	leaseStart time.Time
	leaseUntil time.Time
	notBefore  time.Time      // retry backoff gate while pending
	tried      map[string]int // failures/expiries per worker, for placement
}

func (sh *shardRun) name() string { return fmt.Sprintf("s%d", sh.shard.Slot) }

// completion is one attempt's outcome, delivered on the run's channel.
type completion struct {
	slot    int
	worker  string
	steal   bool
	payload server.ResultPayload
	err     error
}

// runState is the per-job mutable state of one Run call. Only the
// orchestrator goroutine touches it; attempt goroutines communicate
// exclusively through the completions channel.
type runState struct {
	c         *Coordinator
	ctx       context.Context // cancelled when Run returns; bounds every attempt
	norm      server.JobSpec
	cells     []experiments.GridCell
	results   []sweep.Result
	completed map[int]server.CheckpointCell
	runs      []*shardRun
	bySlot    map[int]*shardRun
	comps     chan completion
	sink      *eventSink

	doneShards int
	cellsDone  int
}

// Run executes one grid job across the fleet and returns the merged
// payload, its canonical bytes (exactly what tcsimd's result endpoint
// would serve) and any error. The payload and digest are byte-identical
// to an offline experiments.RunGrid of the same spec regardless of
// fleet size, worker deaths, retries, lease expiries, steals or a
// previous coordinator crash resumed from the spool checkpoint.
//
// The spec must not be shard-scoped already (Cells set) — sharding is
// the coordinator's job. An empty ID gets a deterministic spec-derived
// one, so re-running the same spec resumes its own checkpoint.
func (c *Coordinator) Run(ctx context.Context, spec server.JobSpec) (server.ResultPayload, []byte, error) {
	c.runGate.Lock()
	defer c.runGate.Unlock()

	norm, err := spec.Normalize()
	if err != nil {
		return server.ResultPayload{}, nil, err
	}
	if len(norm.Cells) > 0 {
		return server.ResultPayload{}, nil, fmt.Errorf(
			"fleet: %w: spec is already shard-scoped (cells set); submit the whole grid", errs.ErrBadConfig)
	}
	if norm.ID == "" {
		norm.ID = deriveJobID(norm)
	}
	grid, err := norm.Grid()
	if err != nil {
		return server.ResultPayload{}, nil, err
	}
	cells := grid.Cells()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	st := &runState{
		c:       c,
		ctx:     runCtx,
		norm:    norm,
		cells:   cells,
		results: make([]sweep.Result, len(cells)),
		bySlot:  make(map[int]*shardRun),
		sink:    newEventSink(c.opt.Events, c.opt.Clock, norm.ID),
	}

	// Resume: restore checkpointed cells into their grid positions.
	st.completed = c.loadCheckpoint(norm, cells)
	if st.completed == nil {
		st.completed = make(map[int]server.CheckpointCell)
	}
	indices := make([]int, 0, len(st.completed))
	for idx := range st.completed {
		indices = append(indices, idx)
	}
	sort.Ints(indices)
	for _, idx := range indices {
		cc := st.completed[idx]
		st.results[idx] = sweep.Result{Name: cc.Name, Seed: cc.Seed, Metrics: cc.Metrics}
	}
	st.cellsDone = len(indices)

	// Plan: the ring partition, minus already-checkpointed cells.
	for _, sh := range Partition(cells, c.opt.VirtualShards) {
		r := &shardRun{shard: sh, tried: make(map[string]int)}
		for _, idx := range sh.Indices {
			if _, ok := st.completed[idx]; !ok {
				r.remaining = append(r.remaining, idx)
			}
		}
		if len(r.remaining) == 0 {
			r.state = shardDone
			st.doneShards++
		}
		st.runs = append(st.runs, r)
		st.bySlot[sh.Slot] = r
	}
	st.comps = make(chan completion, 2*len(st.runs)+len(c.workers))

	st.sink.setPhase("plan")
	st.sink.emit(Event{
		Type:        EventProgress,
		CellsDone:   st.cellsDone,
		CellsTotal:  len(cells),
		ShardsDone:  st.doneShards,
		ShardsTotal: len(st.runs),
	})

	fail := func(err error) (server.ResultPayload, []byte, error) {
		// The checkpoint survives a failure: a later run of the same
		// spec resumes from the cells already banked.
		st.sink.emit(Event{Type: EventFailed, Error: err.Error()})
		return server.ResultPayload{}, nil, err
	}

	st.sink.setPhase("run")
	barren := 0
	for st.doneShards < len(st.runs) {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("fleet: job %q interrupted: %w", norm.ID, err))
		}
		// Drain everything that finished since the last tick.
		for drained := true; drained; {
			select {
			case comp := <-st.comps:
				if err := st.handle(comp, c.opt.Clock.Now()); err != nil {
					return fail(err)
				}
			default:
				drained = false
			}
		}
		if st.doneShards == len(st.runs) {
			break
		}
		now := c.opt.Clock.Now()
		st.expireLeases(now)
		st.probeDown(ctx)
		st.dispatchPending(now)
		st.stealStragglers(now)

		if st.anyInFlight() || st.anyLive() {
			barren = 0
		} else {
			barren++
			if barren >= starveRounds {
				return fail(fmt.Errorf("fleet: %w: no live workers after %d probe rounds (%d/%d shards done)",
					errs.ErrUnavailable, barren, st.doneShards, len(st.runs)))
			}
		}

		// Sleep out the tick, but wake immediately on a completion.
		tick := make(chan struct{})
		go func() {
			_ = c.sleep(runCtx, c.opt.Poll)
			close(tick)
		}()
		select {
		case comp := <-st.comps:
			if err := st.handle(comp, c.opt.Clock.Now()); err != nil {
				return fail(err)
			}
		case <-tick:
		case <-ctx.Done():
		}
	}

	st.sink.setPhase("merge")
	payload, err := server.BuildResultPayload(st.cells, st.results, sweep.Merged(st.results))
	if err != nil {
		return fail(err)
	}
	data, err := payload.Marshal()
	if err != nil {
		return fail(err)
	}
	c.removeCheckpoint(norm.ID)
	st.sink.emit(Event{
		Type:        EventDone,
		Digest:      payload.Digest,
		CellsDone:   len(cells),
		CellsTotal:  len(cells),
		ShardsDone:  len(st.runs),
		ShardsTotal: len(st.runs),
	})
	return payload, data, nil
}

// handle folds one attempt outcome into the run state. A returned
// error fails the whole job.
func (st *runState) handle(comp completion, now time.Time) error {
	sh := st.bySlot[comp.slot]
	sh.inFlight--
	st.c.addInflight(comp.worker, -1)

	if comp.err != nil {
		if sh.state == shardDone || st.ctx.Err() != nil {
			return nil // stale duplicate losing the race, or shutdown unwind
		}
		st.c.mRetried[comp.worker].Inc()
		sh.failures++
		sh.tried[comp.worker]++
		if workerDown(comp.err) && st.c.setLive(comp.worker, false) {
			st.sink.emit(Event{Type: EventWorkerDown, Worker: comp.worker, Error: comp.err.Error()})
		}
		if errors.Is(comp.err, errs.ErrBadConfig) {
			// The worker rejected the shard spec itself; every retry
			// would be rejected identically (version skew, usually).
			return fmt.Errorf("fleet: shard %s rejected by %s: %w", sh.name(), comp.worker, comp.err)
		}
		if sh.failures >= st.c.opt.MaxAttempts {
			return fmt.Errorf("fleet: shard %s failed %d times, giving up: %w", sh.name(), sh.failures, comp.err)
		}
		if sh.inFlight == 0 {
			// No surviving duplicate: back off, then re-pool.
			sh.state = shardPending
			sh.notBefore = now.Add(retryDelay(st.c.opt.RetryBase, st.norm.Seed, sh.shard.Slot, sh.failures))
		}
		st.sink.emit(Event{
			Type: EventShardRetry, Shard: sh.name(), Worker: comp.worker,
			Attempt: sh.attempts, Error: comp.err.Error(),
		})
		return nil
	}

	if sh.state == shardDone {
		return nil // a duplicate already won; results are pure, discard
	}
	if err := st.accept(sh, comp.payload); err != nil {
		return err
	}
	sh.state = shardDone
	st.doneShards++
	st.cellsDone += len(sh.remaining)
	st.c.mCompleted[comp.worker].Inc()
	st.c.writeCheckpoint(st.norm, st.completed)
	st.sink.emit(Event{Type: EventShardDone, Shard: sh.name(), Worker: comp.worker, Attempt: sh.attempts})
	st.sink.progress(st.cellsDone, len(st.cells), st.doneShards, len(st.runs))
	return nil
}

// accept validates a shard payload against the grid and scatters its
// cells into full-grid positions. Any mismatch is a determinism
// violation — the worker computed something other than what the grid
// defines — and fails the job rather than corrupting the digest.
func (st *runState) accept(sh *shardRun, p server.ResultPayload) error {
	if len(p.Tasks) != len(sh.remaining) {
		return fmt.Errorf("fleet: shard %s returned %d cells, expected %d",
			sh.name(), len(p.Tasks), len(sh.remaining))
	}
	for i, idx := range sh.remaining {
		tr := p.Tasks[i]
		want := st.cells[idx]
		if tr.Name != want.Name() || tr.Seed != want.Seed {
			return fmt.Errorf("fleet: shard %s cell %d is %q seed %d, grid says %q seed %d",
				sh.name(), idx, tr.Name, tr.Seed, want.Name(), want.Seed)
		}
		r := sweep.Result{Name: tr.Name, Seed: tr.Seed, Metrics: tr.Metrics}
		if tr.Error != "" {
			// Scatter the failure faithfully — an offline run of this
			// spec fails the same cell the same way, so the digest
			// still matches. Errored cells are never checkpointed;
			// a resume re-runs them (deterministically, to the same
			// error).
			r.Err = errors.New(tr.Error)
			st.results[idx] = r
			continue
		}
		st.results[idx] = r
		st.completed[idx] = server.CheckpointCell{Index: idx, Name: tr.Name, Seed: tr.Seed, Metrics: tr.Metrics}
	}
	return nil
}

// dispatch launches one attempt of sh on w.
func (st *runState) dispatch(sh *shardRun, w Worker, steal bool, now time.Time) {
	sh.attempts++
	attempt := sh.attempts
	name := w.Name()
	sub := st.norm
	sub.Cells = append([]int(nil), sh.remaining...)
	// Attempt-scoped IDs keep duplicate attempts (retries, steals,
	// post-crash re-dispatches) from colliding on a worker that still
	// holds an earlier twin.
	sub.ID = fmt.Sprintf("%s-%s-a%d", st.norm.ID, sh.name(), attempt)

	sh.inFlight++
	st.c.addInflight(name, 1)
	if steal {
		sh.stolen = true
		st.c.mStolen[name].Inc()
		st.sink.emit(Event{Type: EventShardSteal, Shard: sh.name(), Worker: name, Attempt: attempt})
	} else {
		sh.state = shardRunning
		sh.worker = name
		sh.leaseStart = now
		sh.leaseUntil = now.Add(st.c.opt.Lease)
		st.c.mLeased[name].Inc()
		st.sink.emit(Event{Type: EventShardLeased, Shard: sh.name(), Worker: name, Attempt: attempt})
	}
	go func() {
		p, err := w.RunShard(st.ctx, sub)
		select {
		case st.comps <- completion{slot: sh.shard.Slot, worker: name, steal: steal, payload: p, err: err}:
		case <-st.ctx.Done():
		}
	}()
}

// expireLeases re-pools running shards whose lease ran out. The stale
// attempt keeps running — if it lands first it still wins, because
// shard results are pure — but the shard no longer waits for it.
func (st *runState) expireLeases(now time.Time) {
	for _, sh := range st.runs {
		if sh.state != shardRunning || !now.After(sh.leaseUntil) {
			continue
		}
		st.c.mExpired[sh.worker].Inc()
		st.sink.emit(Event{Type: EventLeaseExpired, Shard: sh.name(), Worker: sh.worker, Attempt: sh.attempts})
		sh.tried[sh.worker]++
		sh.state = shardPending
		sh.notBefore = now
	}
}

// probeDown pings workers currently marked down; a successful probe
// returns them to the rendezvous pool.
func (st *runState) probeDown(ctx context.Context) {
	for _, w := range st.c.workers {
		name := w.Name()
		if st.c.isLive(name) {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, st.c.opt.PingTimeout)
		err := w.Ping(pctx)
		cancel()
		if err == nil && st.c.setLive(name, true) {
			st.sink.emit(Event{Type: EventWorkerUp, Worker: name})
		}
	}
}

// dispatchPending leases every ready pending shard to its
// rendezvous-chosen worker, capacity permitting.
func (st *runState) dispatchPending(now time.Time) {
	for _, sh := range st.runs {
		if sh.state != shardPending || now.Before(sh.notBefore) {
			continue
		}
		if w := st.pickWorker(sh); w != nil {
			st.dispatch(sh, w, false, now)
		}
	}
}

// pickWorker chooses the live, non-saturated worker with the highest
// rendezvous score for the shard's slot, preferring workers that have
// not already failed this shard. Deterministic given worker health —
// which is all it needs to be, since placement never affects results.
func (st *runState) pickWorker(sh *shardRun) Worker {
	var best, bestUntried Worker
	var bestScore, bestUntriedScore uint64
	for _, w := range st.c.workers {
		name := w.Name()
		if !st.c.isLive(name) || st.c.inflightOf(name) >= st.c.opt.WorkerSlots {
			continue
		}
		score := rendezvousScore(sh.shard.Slot, name)
		if best == nil || score > bestScore {
			best, bestScore = w, score
		}
		if sh.tried[name] == 0 && (bestUntried == nil || score > bestUntriedScore) {
			bestUntried, bestUntriedScore = w, score
		}
	}
	if bestUntried != nil {
		return bestUntried
	}
	return best
}

// stealStragglers hands idle capacity a duplicate attempt of the
// longest-running unstolen shard. First completion wins; the loser is
// discarded on arrival. Stealing only happens when nothing is pending
// — pending work always outranks duplicating running work.
func (st *runState) stealStragglers(now time.Time) {
	for _, sh := range st.runs {
		if sh.state == shardPending && !now.Before(sh.notBefore) {
			return // capacity was short this tick; don't spend it on duplicates
		}
	}
	for _, w := range st.c.workers {
		name := w.Name()
		if !st.c.isLive(name) || st.c.inflightOf(name) >= st.c.opt.WorkerSlots {
			continue
		}
		var victim *shardRun
		for _, sh := range st.runs {
			if sh.state != shardRunning || sh.stolen || sh.inFlight != 1 {
				continue
			}
			if sh.worker == name || sh.tried[name] > 0 {
				continue
			}
			if !now.After(sh.leaseStart.Add(st.c.opt.StealAfter)) {
				continue
			}
			if victim == nil || sh.leaseStart.Before(victim.leaseStart) {
				victim = sh
			}
		}
		if victim != nil {
			st.dispatch(victim, w, true, now)
		}
	}
}

func (st *runState) anyInFlight() bool {
	for _, sh := range st.runs {
		if sh.inFlight > 0 {
			return true
		}
	}
	return false
}

func (st *runState) anyLive() bool {
	for _, w := range st.c.workers {
		if st.c.isLive(w.Name()) {
			return true
		}
	}
	return false
}

// retryDelay is the deterministic backoff before re-pooling a failed
// shard: exponential in the failure count, jittered by a pure function
// of (job seed, slot, failure) so identical runs back off identically
// while distinct shards decorrelate.
func retryDelay(base time.Duration, seed int64, slot, failures int) time.Duration {
	d := base
	for i := 1; i < failures && d < 30*time.Second; i++ {
		d *= 2
	}
	j := uint64(sweep.DeriveSeed(seed, slot*97+failures)) % 1024
	d += time.Duration(uint64(d) * j / 2048)
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// deriveJobID names an anonymous fleet job by its normalized spec, so
// re-running the same spec finds (and resumes) its own checkpoint.
func deriveJobID(norm server.JobSpec) string {
	data, err := json.Marshal(norm)
	if err != nil {
		return "fleet-job"
	}
	return fmt.Sprintf("fleet-%016x", hash64(string(data)))
}
