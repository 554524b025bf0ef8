package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"threadcluster/internal/client"
	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/sched"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
	"threadcluster/internal/workloads"
)

// gridJob is a closed loop of tcsimd jobs: one in-process client submits
// a grid job over loopback HTTP to an in-process server, waits for its
// result, then submits the next. Each job is every workload under every
// placement policy on the OpenPower 720, with short phases.
type gridJob struct {
	warm, engine, measure int
	// jobsPerIter jobs run against one server start.
	jobsPerIter int
}

var gridJobs = gridJob{warm: 10, engine: 40, measure: 30, jobsPerIter: 2}

// spec is the job every submission of a run carries. Its seed is the
// grid's base seed; the cells derive theirs from it.
func (g gridJob) spec(seed int64) (server.JobSpec, error) {
	var pols []string
	for _, p := range []sched.Policy{
		sched.PolicyDefault, sched.PolicyRoundRobin,
		sched.PolicyHandOptimized, sched.PolicyClustered,
	} {
		pols = append(pols, p.String())
	}
	return server.JobSpec{
		Workloads:     experiments.AllWorkloads(),
		Policies:      pols,
		Topos:         []string{experiments.TopoOpenPower720},
		Seed:          seed,
		WarmRounds:    g.warm,
		EngineRounds:  g.engine,
		MeasureRounds: g.measure,
		Workers:       runtime.GOMAXPROCS(0),
	}.Normalize()
}

// oracle is the offline reference for one spec: the payload bytes
// experiments.RunGrid's results marshal to, and their digest.
type oracle struct {
	payload []byte
	digest  string
	refs    uint64 // measured-interval references across the grid
	cells   int
}

func computeOracle(ctx context.Context, spec server.JobSpec) (*oracle, error) {
	g, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	cells, results, merged, err := experiments.RunGrid(ctx, g, spec.Workers)
	if err != nil {
		return nil, fmt.Errorf("offline RunGrid: %w", err)
	}
	p, err := server.BuildResultPayload(cells, results, merged)
	if err != nil {
		return nil, err
	}
	data, err := p.Marshal()
	if err != nil {
		return nil, err
	}
	return &oracle{payload: data, digest: p.Digest, refs: sumAccesses(merged), cells: len(cells)}, nil
}

// jobSample is one job of the loop, as the client saw it.
type jobSample struct {
	latency, submit, queueWait time.Duration
	events, payloadBytes       int
}

// gridIter is one server lifetime: start, jobsPerIter jobs, shutdown.
type gridIter struct {
	setup, wall time.Duration
	jobs        []jobSample
	mallocs     uint64
	retries     int
}

// jobServer is an in-process server on a loopback listener plus the
// client that talks to it over one connection.
type jobServer struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	cancel  context.CancelFunc
	tr      *http.Transport
	cl      *client.Client
	retries int
}

func startServer(ctx context.Context, seed int64) (*jobServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv, err := server.New(server.Options{Clock: sysClock{}, TaskWorkers: runtime.GOMAXPROCS(0)})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("creating job server: %w", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	if err := srv.Start(sctx); err != nil {
		cancel()
		ln.Close()
		return nil, fmt.Errorf("starting job server: %w", err)
	}
	js := &jobServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		cancel: cancel,
		tr:     &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	go func() { js.served <- js.hs.Serve(ln) }()
	// The Backoff sleep hook is where the client reports a 429 retry.
	js.cl = client.New("http://"+ln.Addr().String(), &http.Client{Transport: js.tr}).WithBackoff(client.Backoff{
		Retries: 5,
		Seed:    seed,
		Sleep: func(ctx context.Context, d time.Duration) error {
			js.retries++
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	})
	if err := js.cl.Ready(ctx); err != nil {
		js.stop(ctx)
		return nil, fmt.Errorf("waiting for the job server: %w", err)
	}
	return js, nil
}

// stop drains the HTTP server and the job server and waits for both.
func (js *jobServer) stop(ctx context.Context) error {
	herr := js.hs.Shutdown(ctx)
	serr := js.srv.Shutdown(ctx)
	js.cancel()
	js.tr.CloseIdleConnections()
	if err := <-js.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	return errors.Join(herr, serr)
}

// job submits spec, follows its event stream to the end, and fetches the
// result. Failed checks go to o.
func (js *jobServer) job(ctx context.Context, o *output, spec server.JobSpec, want *oracle) (jobSample, error) {
	var s jobSample
	start := now()
	st, err := js.cl.Submit(ctx, spec)
	s.submit = since(start)
	if err != nil {
		o.op(fmt.Sprintf("submit rejected: %v", err))
		return s, nil
	}
	id := st.ID
	var queued, running time.Time
	last := ""
	err = js.cl.Events(ctx, id, func(ev server.Event) error {
		s.events++
		last = ev.Type
		switch ev.Type {
		case server.EventQueued:
			queued = ev.Time
		case server.EventRunning:
			running = ev.Time
		}
		return nil
	})
	if err != nil {
		return s, fmt.Errorf("following job %s: %w", id, err)
	}
	st, err = js.cl.Status(ctx, id)
	if err != nil {
		return s, fmt.Errorf("job %s status: %w", id, err)
	}
	data, err := js.cl.Result(ctx, id)
	s.latency = since(start)
	if !queued.IsZero() && !running.IsZero() {
		s.queueWait = running.Sub(queued)
	}
	s.payloadBytes = len(data)
	var fails []string
	switch {
	case err != nil:
		fails = append(fails, fmt.Sprintf("job %s: fetching result: %v", id, err))
	case st.State != server.StateDone || last != server.EventDone:
		fails = append(fails, fmt.Sprintf("job %s ended %s (last event %q): %s", id, st.State, last, st.Error))
	case st.Digest != want.digest:
		fails = append(fails, fmt.Sprintf("job %s digest %s != offline RunGrid digest %s", id, st.Digest, want.digest))
	case !bytes.Equal(data, want.payload):
		fails = append(fails, fmt.Sprintf("job %s payload differs from the offline RunGrid payload", id))
	}
	o.op(fails...)
	return s, nil
}

// buildGridWorkloads builds each distinct (workload, seed) of the grid
// once: the workload set-up every job repeats inside the server.
func buildGridWorkloads(spec server.JobSpec) error {
	g, err := spec.Grid()
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	for _, c := range g.Cells() {
		key := fmt.Sprintf("%s#%d", c.Workload, c.Seed)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, err := experiments.BuildWorkload(c.Workload, c.Seed); err != nil {
			return err
		}
	}
	return nil
}

// setUp starts the server and builds the grid's workloads.
func (g gridJob) setUp(ctx context.Context, spec server.JobSpec) (*jobServer, time.Duration, error) {
	start := now()
	js, err := startServer(ctx, spec.Seed)
	if err != nil {
		return nil, 0, err
	}
	if err := buildGridWorkloads(spec); err != nil {
		js.stop(ctx)
		return nil, 0, err
	}
	return js, since(start), nil
}

func (g gridJob) iterate(ctx context.Context, o *output, spec server.JobSpec, want *oracle) (*gridIter, error) {
	it := &gridIter{}
	m0 := mallocs()
	start := now()
	js, setup, err := g.setUp(ctx, spec)
	if err != nil {
		return nil, err
	}
	it.setup = setup
	for j := 0; j < g.jobsPerIter; j++ {
		s, err := js.job(ctx, o, spec, want)
		if err != nil {
			js.stop(ctx)
			return nil, err
		}
		it.jobs = append(it.jobs, s)
	}
	it.retries = js.retries
	if err := js.stop(ctx); err != nil {
		return nil, err
	}
	it.wall = since(start)
	it.mallocs = mallocs() - m0
	return it, nil
}

func (g gridJob) run(ctx context.Context, o *output, seed int64, seconds int, trace bool) error {
	spec, err := g.spec(seed)
	if err != nil {
		return err
	}
	o.printf("job: %d workloads x %d policies x %v, seed=%d, phases warm=%d engine=%d measure=%d; %d jobs per server start; one client connection",
		len(spec.Workloads), len(spec.Policies), spec.Topos, spec.Seed, g.warm, g.engine, g.measure, g.jobsPerIter)
	want, err := computeOracle(ctx, spec)
	if err != nil {
		return err
	}
	o.printf("offline RunGrid digest: %s (%d cells)", want.digest, want.cells)
	if trace {
		return g.traced(ctx, o, spec, want)
	}
	var setups []float64
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		js, d, err := g.setUp(ctx, spec)
		if err != nil {
			return err
		}
		if err := js.stop(ctx); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	var iters []*gridIter
	start := now()
	for len(iters) == 0 || another(since(start), len(iters), seconds) {
		runtime.GC()
		it, err := g.iterate(ctx, o, spec, want)
		if err != nil {
			return err
		}
		iters = append(iters, it)
		setups = append(setups, it.setup.Seconds())
	}
	return g.report(o, iters, setups, want)
}

func (g gridJob) report(o *output, iters []*gridIter, setups []float64, want *oracle) error {
	var refsPerS, walls, allocs, lat []float64
	var cells, latSum float64
	for _, it := range iters {
		var l time.Duration
		for _, s := range it.jobs {
			l += s.latency
			lat = append(lat, s.latency.Seconds())
		}
		refs := float64(want.refs) * float64(len(it.jobs))
		refsPerS = append(refsPerS, ratio(refs, l.Seconds()))
		walls = append(walls, it.wall.Seconds())
		allocs = append(allocs, ratio(float64(it.mallocs), refs))
		cells += float64(want.cells * len(it.jobs))
		latSum += l.Seconds()
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	itNote := fmt.Sprintf("median of %d iterations", len(iters))
	o.printf("iterations: %d (%d jobs); wall_s each: %s", len(iters), len(lat), fmtList(walls, "%.3f"))
	o.metric("refs_per_s", median(refsPerS), "refs/s", itNote+"; measured-interval refs in the payloads / host s of job latency")
	o.metric("wall_s", median(walls), "s", itNote+"; server start through shutdown")
	o.metric("setup_s", median(setups), "s", fmt.Sprintf("median of %d server starts + grid workload builds", len(setups)))
	o.metric("allocs_per_ref", median(allocs), "allocs/ref", itNote+"; MemStats.Mallocs delta (whole process) / payload refs")
	o.metric("peak_rss_mb", rss, "MiB", "peak RSS (getrusage maxrss) of this workload's process, offline reference run included")
	o.metric("job_p50_s", median(lat), "s", fmt.Sprintf("submit to result, n=%d jobs; no tail percentile below %d jobs", len(lat), minTail+1))
	o.metric("cells_per_s", ratio(cells, latSum), "cells/s", "grid cells completed / host s of job latency")
	o.metric("fail_frac", ratio(float64(o.failed), float64(o.attempted)), "fraction", fmt.Sprintf("%d of %d jobs failed, were rejected or mismatched the offline digest", o.failed, o.attempted))
	return nil
}

// traced runs one untraced iteration, one traced iteration under the
// CPU profiler, then the instrumented offline reference run of the same
// grid, whose machines give the simulator-side layers.
func (g gridJob) traced(ctx context.Context, o *output, spec server.JobSpec, want *oracle) error {
	runtime.GC()
	plain, err := g.iterate(ctx, o, spec, want)
	if err != nil {
		return err
	}
	var it *gridIter
	runtime.GC()
	u0 := readUsage()
	prof, err := profiled(func() error {
		var err error
		it, err = g.iterate(ctx, o, spec, want)
		return err
	})
	if err != nil {
		return err
	}
	u1 := readUsage()
	o.printf("traced iteration: %.3f s (untraced %.3f s); every payload checked against %s", it.wall.Seconds(), plain.wall.Seconds(), want.digest)

	rs, trs, cellTimes, poolWall, err := g.reference(ctx, spec, want, o)
	if err != nil {
		return err
	}
	o.printf("instrumented reference run: %d cells on %d workers in %.3f s (layers below from its machines, except self shares and runtime, from the traced job loop)",
		len(rs), spec.Workers, poolWall.Seconds())
	machineLayers(o, rs, trs)
	if err := profileLayers(o, prof); err != nil {
		return err
	}
	usageLayers(o, u0, u1)
	o.metric("sweep.cell_p50_s", median(cellTimes), "s", fmt.Sprintf("timed sweep.Task.Run, n=%d cells", len(cellTimes)))
	o.metric("sweep.pool_busy_frac", ratio(sum(cellTimes), poolWall.Seconds()*float64(spec.Workers)), "fraction", "Σ task time / (pool wall x workers)")
	var wait, payload, events, submit []float64
	for _, s := range it.jobs {
		wait = append(wait, s.queueWait.Seconds())
		payload = append(payload, float64(s.payloadBytes))
		events = append(events, float64(s.events))
		submit = append(submit, float64(s.submit.Nanoseconds())/1e6)
	}
	n := fmt.Sprintf("median of %d jobs", len(it.jobs))
	o.metric("server.queue_wait_s", median(wait), "s", n+"; running minus queued event time")
	o.metric("server.payload_bytes", median(payload), "bytes", n)
	o.metric("server.events", median(events), "count", n+"; events per job stream")
	o.metric("client.submit_ms", median(submit), "ms", n+"; timed Client.Submit")
	o.metric("client.retries", float64(it.retries), "count", "429 resubmissions in the traced iteration")
	o.metric("trace.overhead_frac", it.wall.Seconds()/plain.wall.Seconds()-1, "fraction", "traced wall_s / untraced wall_s - 1")
	return nil
}

// reference runs the job's grid offline on the sweep pool with every
// cell driven through the instrumented machine runner, and checks that
// its digest equals RunGrid's: the runner reproduces RunWorkload
// exactly, observers included.
func (g gridJob) reference(ctx context.Context, spec server.JobSpec, want *oracle, o *output) ([]*machineResult, []*tracer, []float64, time.Duration, error) {
	grid, err := spec.Grid()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	cells, tasks, err := grid.Tasks()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	rs := make([]*machineResult, len(tasks))
	trs := make([]*tracer, len(tasks))
	times := make([]float64, len(tasks))
	for i := range tasks {
		i, cell := i, cells[i]
		trs[i] = &tracer{}
		tasks[i].Run = func(ctx context.Context, seed int64) (metrics.Snapshot, error) {
			start := now()
			opt := grid.Opt
			topo, err := experiments.ParseTopo(cell.Topo)
			if err != nil {
				return metrics.Snapshot{}, err
			}
			opt.Topo = topo
			opt.Seed = seed
			mr := machineRun{
				name: cell.Name(),
				build: func(seed int64) (*workloads.Spec, error) {
					return experiments.BuildWorkload(cell.Workload, seed)
				},
				opt:    opt,
				policy: cell.Policy,
				engine: cell.Policy == sched.PolicyClustered,
			}
			r, err := mr.run(ctx, trs[i])
			if err != nil {
				return metrics.Snapshot{}, err
			}
			rs[i] = r
			times[i] = since(start).Seconds()
			return r.measured, nil
		}
	}
	start := now()
	results, err := sweep.Run(ctx, tasks, spec.Workers)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	wall := since(start)
	for _, r := range results {
		if r.Err != nil {
			return nil, nil, nil, 0, fmt.Errorf("reference cell %s: %w", r.Name, r.Err)
		}
	}
	digest, err := server.Digest(cells, results, sweep.Merged(results))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	var fails []string
	if digest != want.digest {
		fails = append(fails, fmt.Sprintf("instrumented reference digest %s != RunGrid digest %s", digest, want.digest))
	}
	for _, r := range rs {
		fails = append(fails, r.failures...)
	}
	o.op(fails...)
	return rs, trs, times, wall, nil
}
