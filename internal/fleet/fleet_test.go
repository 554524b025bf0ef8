package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// systemClock: tests may read wall time (the lint suite exempts
// _test.go files); the library under test still only sees the
// injected Clock.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// testSpec is a 6-cell grid (2 workloads x 3 policies) small enough to
// run many times per test binary.
func testSpec(id string) server.JobSpec {
	return server.JobSpec{
		ID:            id,
		Workloads:     []string{"microbenchmark", "volano"},
		Policies:      []string{"default", "round-robin", "clustered"},
		Topos:         []string{"open720"},
		Seed:          42,
		WarmRounds:    2,
		EngineRounds:  8,
		MeasureRounds: 6,
	}
}

// offlinePayload runs the spec on the offline `tcsim sweep` path: the
// byte-level ground truth every fleet configuration must reproduce.
func offlinePayload(t *testing.T, spec server.JobSpec) ([]byte, string) {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	grid, err := norm.Grid()
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	cells, results, merged, err := experiments.RunGrid(context.Background(), grid, 2)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	payload, err := server.BuildResultPayload(cells, results, merged)
	if err != nil {
		t.Fatalf("BuildResultPayload: %v", err)
	}
	data, err := payload.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return data, payload.Digest
}

// runShardOffline executes a shard-scoped spec in-process, exactly the
// way a tcsimd worker would: compile the subset with full-grid
// identities, run it, build the canonical payload.
func runShardOffline(ctx context.Context, spec server.JobSpec) (server.ResultPayload, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return server.ResultPayload{}, err
	}
	grid, err := norm.Grid()
	if err != nil {
		return server.ResultPayload{}, err
	}
	cells, tasks, err := grid.SubsetTasks(norm.Cells)
	if err != nil {
		return server.ResultPayload{}, err
	}
	results, err := sweep.Run(ctx, tasks, 1)
	if err != nil {
		return server.ResultPayload{}, err
	}
	return server.BuildResultPayload(cells, results, sweep.Merged(results))
}

// fakeWorker is an in-process Worker with failure-injection hooks.
type fakeWorker struct {
	name string
	// pingErr, when set, keeps the worker marked down.
	pingErr atomic.Value // error
	// failNext counts attempts to fail before running normally.
	failNext atomic.Int64
	// hangFirst blocks the worker's first RunShard until ctx cancels.
	hangFirst atomic.Bool
	// cellsRun counts grid cells this worker actually executed.
	cellsRun atomic.Int64
	// shardsRun counts RunShard calls that ran to completion.
	shardsRun atomic.Int64
}

func newFakeWorker(name string) *fakeWorker { return &fakeWorker{name: name} }

func (w *fakeWorker) Name() string { return w.name }

func (w *fakeWorker) Ping(ctx context.Context) error {
	if err, _ := w.pingErr.Load().(error); err != nil {
		return err
	}
	return nil
}

func (w *fakeWorker) RunShard(ctx context.Context, spec server.JobSpec) (server.ResultPayload, error) {
	if w.hangFirst.CompareAndSwap(true, false) {
		<-ctx.Done()
		return server.ResultPayload{}, ctx.Err()
	}
	if w.failNext.Add(-1) >= 0 {
		return server.ResultPayload{}, fmt.Errorf("fake worker %s: injected failure", w.name)
	}
	w.failNext.Add(1) // undo the decrement below zero
	p, err := runShardOffline(ctx, spec)
	if err == nil {
		w.cellsRun.Add(int64(len(p.Tasks)))
		w.shardsRun.Add(1)
	}
	return p, err
}

// fastOptions are coordinator knobs tuned for test latency.
func fastOptions() Options {
	return Options{
		Clock:         systemClock{},
		VirtualShards: 8,
		Poll:          time.Millisecond,
		RetryBase:     time.Millisecond,
		PingTimeout:   100 * time.Millisecond,
		Lease:         time.Minute,
		StealAfter:    time.Minute,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]Worker{newFakeWorker("a")}, Options{}); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("missing clock: got %v, want ErrBadConfig", err)
	}
	if _, err := New(nil, fastOptions()); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("no workers: got %v, want ErrBadConfig", err)
	}
	dup := []Worker{newFakeWorker("a"), newFakeWorker("a")}
	if _, err := New(dup, fastOptions()); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("duplicate names: got %v, want ErrBadConfig", err)
	}
}

func TestRunRejectsShardScopedSpec(t *testing.T) {
	c, err := New([]Worker{newFakeWorker("a")}, fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := testSpec("pre-sharded")
	spec.Cells = []int{0, 1}
	if _, _, err := c.Run(context.Background(), spec); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("shard-scoped spec: got %v, want ErrBadConfig", err)
	}
}

// TestFleetRetriesFailedShards: a worker that fails its first attempts
// recovers via the deterministic retry path and still produces the
// offline bytes.
func TestFleetRetriesFailedShards(t *testing.T) {
	w := newFakeWorker("flaky")
	w.failNext.Store(2)
	opt := fastOptions()
	opt.MaxAttempts = 8
	var events bytes.Buffer
	opt.Events = &events
	c, err := New([]Worker{w}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, _ := offlinePayload(t, testSpec("retry-job"))
	_, got, err := c.Run(context.Background(), testSpec("retry-job"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet payload differs from offline after retries")
	}
	if !strings.Contains(events.String(), `"shard_retry"`) {
		t.Fatalf("no shard_retry event in stream:\n%s", events.String())
	}
}

// TestFleetFailsWhenAllWorkersDead: with every worker refusing pings
// and failing attempts, the job fails unavailable instead of spinning.
func TestFleetFailsWhenAllWorkersDead(t *testing.T) {
	w := newFakeWorker("corpse")
	w.failNext.Store(1 << 30)
	w.pingErr.Store(errors.New("no route to host"))
	opt := fastOptions()
	opt.MaxAttempts = 1 << 30 // force the starvation path, not the attempt budget
	c, err := New([]Worker{w}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, _, err = c.Run(context.Background(), testSpec("doomed"))
	if !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("all workers dead: got %v, want ErrUnavailable", err)
	}
}

// TestFleetStealsStragglers: one worker wedges on its first shard; an
// idle peer is handed a duplicate and the job finishes with the
// offline bytes. Duplicate completions are safe because shard results
// are pure functions of the spec.
func TestFleetStealsStragglers(t *testing.T) {
	slow := newFakeWorker("slow")
	slow.hangFirst.Store(true)
	fast := newFakeWorker("fast")
	opt := fastOptions()
	opt.StealAfter = 5 * time.Millisecond
	opt.Lease = time.Hour // recovery must come from theft, not lease expiry
	var events bytes.Buffer
	opt.Events = &events
	reg := metrics.NewRegistry()
	opt.Registry = reg
	c, err := New([]Worker{slow, fast}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, _ := offlinePayload(t, testSpec("steal-job"))
	_, got, err := c.Run(context.Background(), testSpec("steal-job"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet payload differs from offline after steal")
	}
	if !strings.Contains(events.String(), `"shard_steal"`) {
		t.Fatalf("no shard_steal event in stream:\n%s", events.String())
	}
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(expo.String(), `fleet_shards_stolen_total{worker="fast"} 1`) {
		t.Fatalf("steal not counted:\n%s", expo.String())
	}
}

// TestFleetLeaseExpiry: a wedged primary's lease runs out, the shard
// re-enters the pool and a peer completes it.
func TestFleetLeaseExpiry(t *testing.T) {
	slow := newFakeWorker("wedged")
	slow.hangFirst.Store(true)
	fast := newFakeWorker("healthy")
	opt := fastOptions()
	opt.Lease = 5 * time.Millisecond
	opt.StealAfter = time.Hour // recovery must come from the lease, not theft
	var events bytes.Buffer
	opt.Events = &events
	c, err := New([]Worker{slow, fast}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, _ := offlinePayload(t, testSpec("lease-job"))
	_, got, err := c.Run(context.Background(), testSpec("lease-job"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet payload differs from offline after lease expiry")
	}
	if !strings.Contains(events.String(), `"lease_expired"`) {
		t.Fatalf("no lease_expired event in stream:\n%s", events.String())
	}
}

// cancelAfterDone cancels a context once n shard_done events passed
// through the stream — a deterministic stand-in for kill -9 on the
// coordinator.
type cancelAfterDone struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterDone) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"type":"shard_done"`)) {
		c.n--
		if c.n == 0 {
			c.cancel()
		}
	}
	return len(p), nil
}

// TestFleetCheckpointResume: a coordinator killed mid-sweep leaves a
// checkpoint; a fresh coordinator over the same spool resumes, runs
// only the missing cells, and converges on the uninterrupted digest.
func TestFleetCheckpointResume(t *testing.T) {
	spool := t.TempDir()
	spec := testSpec("") // empty ID: exercises the deterministic derived ID
	want, wantDigest := offlinePayload(t, spec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := fastOptions()
	opt.SpoolDir = spool
	opt.Events = &cancelAfterDone{n: 1, cancel: cancel}
	w1 := newFakeWorker("a")
	c1, err := New([]Worker{w1}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := c1.Run(ctx, spec); err == nil {
		t.Fatalf("interrupted run unexpectedly succeeded")
	}

	ckpts, err := filepath.Glob(filepath.Join(spool, "*"+fleetCheckpointSuffix))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("expected one checkpoint in %s, got %v (err %v)", spool, ckpts, err)
	}

	opt2 := fastOptions()
	opt2.SpoolDir = spool
	w2 := newFakeWorker("a")
	c2, err := New([]Worker{w2}, opt2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	payload, got, err := c2.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed payload differs from offline")
	}
	if payload.Digest != wantDigest {
		t.Fatalf("resumed digest %s, want %s", payload.Digest, wantDigest)
	}
	total := int64(len(spec.Workloads) * len(spec.Policies) * len(spec.Topos))
	if ran := w2.cellsRun.Load(); ran >= total {
		t.Fatalf("resume re-ran %d of %d cells; checkpoint was not used", ran, total)
	}
	if _, err := os.Stat(ckpts[0]); !os.IsNotExist(err) {
		t.Fatalf("checkpoint %s not removed after settle (err %v)", ckpts[0], err)
	}
	if warns := c2.Warnings(); len(warns) != 0 {
		t.Fatalf("resume produced warnings: %v", warns)
	}
}

// TestFleetQuarantinesCorruptCheckpoint: garbage where a checkpoint
// should be is quarantined with a structured warning, and the run
// starts clean.
func TestFleetQuarantinesCorruptCheckpoint(t *testing.T) {
	spool := t.TempDir()
	spec := testSpec("corrupt-ckpt")
	path := filepath.Join(spool, spec.ID+fleetCheckpointSuffix)
	if err := os.WriteFile(path, []byte("{not json"), 0o666); err != nil {
		t.Fatalf("planting corrupt checkpoint: %v", err)
	}
	opt := fastOptions()
	opt.SpoolDir = spool
	c, err := New([]Worker{newFakeWorker("a")}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, _ := offlinePayload(t, spec)
	_, got, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload differs from offline after quarantine")
	}
	warns := c.Warnings()
	if len(warns) != 1 || !errors.Is(warns[0], errs.ErrSpoolCorrupt) {
		t.Fatalf("want one ErrSpoolCorrupt warning, got %v", warns)
	}
	if _, err := os.Stat(path + server.QuarantineSuffix); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
}

// TestFleetMetricsExposition: the fleet gauges and counters render a
// valid Prometheus exposition with per-worker series.
func TestFleetMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	opt := fastOptions()
	opt.Registry = reg
	c, err := New([]Worker{newFakeWorker("a"), newFakeWorker("b")}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := c.Run(context.Background(), testSpec("metrics-job")); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	if err := metrics.CheckPrometheusText(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		`fleet_worker_up{worker="a"} 1`,
		`fleet_worker_up{worker="b"} 1`,
		`fleet_worker_inflight{worker="a"} 0`,
		`fleet_workers_live 2`,
		`fleet_shards_completed_total{worker=`,
		`fleet_shards_leased_total{worker=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
